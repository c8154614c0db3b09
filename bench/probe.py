"""Host-speed probe: a fixed amount of interpreter and NumPy work, no domstab.

    python3 bench/probe.py

The benchmark runs this child between timed ``report-all`` children on the
same CPU and scales its times by how fast the probe ran (``run.py``), so that
the host's speed, which drifts by tens of percent over minutes on a shared
machine, cancels out of the reported figures.  It imports nothing of the
program, so no change to the program can move it; its work -- start-up and
NumPy import, float arithmetic, small array solves and number formatting --
is the kind of work ``report-all`` does.
"""

import io
import math

import numpy as np


def work() -> float:
    total = 0.0
    for i in range(1, 240_000):
        total += math.exp(-i * 1e-5) * math.sin(i)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(40, 4))
    b = rng.normal(size=40)
    for _ in range(1600):
        total += float(np.linalg.lstsq(a, b, rcond=None)[0][0])
        total += float(np.sum(a * a[:, :1]))
    buf = io.StringIO()
    for i in range(80_000):
        buf.write(f"{i},{i * 0.1!r},OTU{i}\n")
    return total + len(buf.getvalue())


if __name__ == "__main__":
    work()
