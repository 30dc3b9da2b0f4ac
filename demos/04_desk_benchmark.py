"""Tiny desk benchmark: strategy improvement versus value iteration.

Generates a few mid-size instances into a temporary directory and times
both algorithms on both problems with ``mpg bench`` (input parsing
excluded, median of three runs), which prints its CSV table.
"""

import sys
import tempfile
from pathlib import Path

from mpgsolve import GenSpec, generate, render_game
from mpgsolve.cli import main

specs = {
    "rand2-desk": GenSpec(family="sprand", n=1000, edge_factor=2.0, seed=1,
                          weight_lo=1, weight_hi=10, shift=5),
    "torus-desk": GenSpec(family="torus", rows=20, cols=25, seed=1,
                          weight_lo=-6, weight_hi=4),
    "collect-desk": GenSpec(family="collect", grid=4, docks=2, phases=2, seed=1),
}

with tempfile.TemporaryDirectory() as tmp:
    paths = []
    for name, spec in specs.items():
        path = Path(tmp) / f"{name}.mpg"
        path.write_text(render_game(generate(spec)))
        paths.append(str(path))
    sys.exit(main(["bench", *paths, "--problems", "lb,lwub", "--algorithms", "kasi,vi",
                   "--bound", "15", "--repeat", "3"]))
