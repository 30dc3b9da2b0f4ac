"""Show that the minimizer can need memory in bounded-energy games.

On this four-vertex instance with bound 15, neither of Min's two positional
strategies defeats vertex 2 on its own, but alternating them does.  The
solver's recorded strategy sequence, replayed by death index, is exactly
that alternation.
"""

from mpgsolve import (
    MEMORY_GAME_BOUND,
    Owner,
    PositionalStrategy,
    certify,
    memory_game,
    oracle_lwub,
    restrict_to_strategy,
    solve_lwub,
    verify_min_witness,
)

game = memory_game()
bound = MEMORY_GAME_BOUND

result = solve_lwub(game, bound)
certify(game, bound, result)  # raises InvariantViolation on a wrong answer
print(f"answers at bound {bound}: {result.lwub}")
print()

for target in (0, 3):
    fixed = restrict_to_strategy(game, PositionalStrategy(Owner.MIN, {2: target}))
    value = oracle_lwub(fixed, bound)[2]
    print(f"Min pinned to 2 -> {target}: vertex 2 needs only {value} (Max survives)")

print()
print("strategy sequence recorded by the solver:")
for i, strategy in enumerate(result.min_witness.strategies):
    print(f"  index {i}: 2 -> {strategy.choice[2]}")
print(f"death indices: {result.min_witness.death_index}")

trace = verify_min_witness(game, bound, result.min_witness, 2, bound)
print()
print(f"replayed witness play: {' -> '.join(map(str, trace.vertices))}")
print(f"edge weights taken:    {trace.weights}")
print(f"worst traversed segment weighs {trace.min_segment_weight()} < -{bound},")
print("so Max loses from vertex 2 with any finite starting energy.")
