"""Mutation study: how much of one module the tier-1 suite pins.

Each mutant flips one comparison operator of the module, one at a time:
``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``is`` and ``is not``,
``in`` and ``not in`` turn into each other.  The mutant is written into a
copy of the tree, and the tier-1 suite runs on the copy without criterion
11 (which only times solves), stopping at the first failure.  A mutant is
*killed* when the suite fails or runs past five times the unmutated run's
time, and *survives* when it passes.

    python studies/mutants.py src/mpgsolve/kasi.py --root ../parent --out before.json
    python studies/mutants.py src/mpgsolve/kasi.py --parent before.json --out MUTANTS_kasi.json

writes one record per mutant: the line, the operator before and after, the
source line, the outcome and the first failing test.  ``EQUIVALENT`` below
names the survivors known to change no behaviour, each with its reason;
their records carry it.  With ``--parent``, an earlier run's file (the
committed ``MUTANTS_<module>.json`` of the parent commit, say), the result
also lists each mutant that run killed which now survives, and each whose
source line and operators no longer occur in the module.  A run takes
minutes, so tier-1 does not run it.  Needs only the standard library and
the test suite's own packages.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

FLIPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
    ast.NotEq: "!=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
}
#: (module file name, stripped source line, operator before, operator after)
#: -> why the flip changes no behaviour the suite could see.
EQUIVALENT = {
    ("kasi.py", "if pops == poll:", "==", "!="):
        "the clock poll runs on every pop but the stride's, which changes only when a time limit is read",
    ("kasi.py", "if dv > cand and (best is None or (cand, u) < best):", "<", "<="):
        "two candidates tie on (value, target) only as parallel edges to one target, and the first "
        "of those is not lighter than the one <= keeps only where both weigh the same",
    ("kasi.py", "if dv > 0:", ">", ">="):
        "a vertex at 0 took the branch above, so no value reaching this test is 0",
    ("core.py", "if bound * n >= WEIGHT_ENVELOPE:", ">=", ">"):
        "(|V|-1) * |V| * W is 2**63 only at |V| = 2 and W = 2**62, as |V| - 1 and |V| are coprime "
        "powers of two there, and validate already rejects that game, whose |V| * W is 2**63",
    ("core.py", "if time.perf_counter() > at:", ">", ">="):
        "the two differ only at a clock reading exactly equal to the deadline, a single instant at which "
        "the limit has as much passed as not; every limit still expires",
    ("checker.py", "nxt = (u, e2, j if du is None or du >= j else du)", ">=", ">"):
        "where du == j both branches give the same index",
    ("checker.py", "if label[v] + w > label[u]:", ">", ">="):
        "no cycle has scaled weight 0, so a walk grown on ties still repeats a vertex only on a cycle "
        "that gained: ties add relaxations, not verdicts",
}
COPIED = ("src", "tests", "perfbench", "demos", "pyproject.toml")
CRITERION_11 = "tests/test_acceptance.py::test_criterion_11_runtime_ordering"


def sites(tree: ast.AST) -> list[tuple[ast.Compare, int]]:
    """Every flippable operator as ``(compare node, operator index)``, in
    source order."""
    found = [
        (node, i)
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for i, op in enumerate(node.ops)
        if type(op) in FLIPS
    ]
    return sorted(found, key=lambda s: (s[0].lineno, s[0].col_offset, s[1]))


def run_suite(work: Path, timeout: float | None) -> tuple[str, str | None, float]:
    """``(outcome, first failing test, seconds)`` of tier-1 on ``work``."""
    env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "--deselect", CRITERION_11]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return "killed", "timeout", time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    if proc.returncode == 0:
        return "survived", None, seconds
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return "killed", failed[0] if failed else f"exit {proc.returncode}", seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module path relative to the tree, e.g. src/mpgsolve/kasi.py")
    parser.add_argument("--root", default=str(Path(__file__).resolve().parents[1]),
                        help="the tree to mutate (default: this checkout)")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--work", default=None, help="scratch directory for the copy (default: a temporary one)")
    parser.add_argument("--parent", default=None, help="an earlier run's JSON file to compare with")
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    source = (root / args.module).read_text()
    work = Path(args.work or tempfile.mkdtemp(prefix="mutants-")).resolve()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "out")
    for name in COPIED:
        src = root / name
        if src.is_dir():
            shutil.copytree(src, work / name, ignore=ignore)
        elif src.exists():
            shutil.copy2(src, work / name)
    target = work / args.module

    outcome, failed, baseline = run_suite(work, None)
    if outcome != "survived":
        print(f"the unmutated suite fails ({failed}); nothing to measure", file=sys.stderr)
        return 1
    mutants = []
    count = len(sites(ast.parse(source)))
    for k in range(count):
        tree = ast.parse(source)
        node, i = sites(tree)[k]
        before = type(node.ops[i])
        node.ops[i] = FLIPS[before]()
        target.write_text(ast.unparse(tree))
        outcome, failed, seconds = run_suite(work, 5 * baseline + 30)
        line = source.splitlines()[node.lineno - 1].strip()
        record = {"line": node.lineno, "before": SYMBOLS[before], "after": SYMBOLS[FLIPS[before]],
                  "source": line, "outcome": outcome, "killed_by": failed, "seconds": round(seconds, 1)}
        code = line.split("#", 1)[0].strip()
        reason = EQUIVALENT.get((target.name, code, record["before"], record["after"]))
        if outcome == "survived" and reason:
            record["equivalent"] = reason
        mutants.append(record)
        print(f"{k + 1}/{count} line {node.lineno} {record['before']} -> {record['after']}: {outcome}",
              flush=True)
    target.write_text(source)
    if args.work is None:
        shutil.rmtree(work)
    killed = sum(m["outcome"] == "killed" for m in mutants)
    result = {
        "module": args.module,
        "operators": "comparison flips: < <=, > >=, == !=, is / is not, in / not in",
        "suite": f"pytest -q -x --continue-on-collection-errors --deselect {CRITERION_11}",
        "python": sys.version.split()[0],
        "unmutated_suite_s": round(baseline, 1),
        "mutants": len(mutants),
        "killed": killed,
        "survived": len(mutants) - killed,
        "records": mutants,
    }
    if args.parent:
        before = json.loads(Path(args.parent).read_text())
        now = {}
        for m in mutants:
            now.setdefault((m["source"], m["before"], m["after"]), set()).add(m["outcome"])
        killed = [m for m in before["records"] if m["outcome"] == "killed"]
        brief = ("line", "before", "after", "source")
        result["parent"] = {
            "file": Path(args.parent).name,
            "mutants": before["mutants"],
            "killed": before["killed"],
            "killed_now_surviving": [{k: m[k] for k in brief} for m in killed
                                     if "survived" in now.get((m["source"], m["before"], m["after"]), ())],
            "killed_now_gone": [{k: m[k] for k in brief} for m in killed
                                if (m["source"], m["before"], m["after"]) not in now],
        }
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
