"""Walk through solving a two-vertex duel with both algorithms.

Vertex 0 (Max) holds a free self-loop and a -3 escape to vertex 1; vertex 1
(Min) must pay -3 to get back.  How much starting energy does each vertex
need when the tank is capped at 3?
"""

from mpgsolve import certify, oracle_lwub, render_game, solve_lwub, two_vertex_duel, vi_solve

game = two_vertex_duel()
bound = 3

print("The instance, in wire format:")
print(render_game(game))

result = solve_lwub(game, bound)
certify(game, bound, result)  # raises InvariantViolation on a wrong answer
print(f"strategy improvement: lwub = {result.lwub} after {result.iterations} iteration(s)")
print(f"value iteration:      lwub = {vi_solve(game, bound)}")
print(f"safety-game oracle:   lwub = {oracle_lwub(game, bound)}")
print()
print(f"Max's optimal choices: {result.max_strategy.choice}")
print("Vertex 0 camps on its self-loop; vertex 1 needs 3 units to survive the -3 edge.")
