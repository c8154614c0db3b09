"""Store the golden outputs of each workload's reference input.

    python3 bench/make_golden.py [workload ...]

Run from the root of a checkout whose outputs are known to be right; every
benchmark run is checked against what this writes to ``bench/golden/``.
"""

import sys
from pathlib import Path

from run import Bench
from workloads import load_design, workloads

if __name__ == "__main__":
    design = load_design()
    known = workloads(design)
    for name in sys.argv[1:] or list(known):
        print(Bench(Path.cwd(), known[name], design, seed=0).write_golden())
