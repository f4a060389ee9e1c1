"""Set-up cost of a fresh process, as every CLI invocation pays it.

Imports linconn, loads every shipped spec (all four workloads use c0..c4)
and builds its linearized connection, then prints the elapsed seconds.
Usage: setup_probe.py <repository root>
"""

from time import perf_counter

t0 = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import linconn  # noqa: E402

specs_dir = Path(sys.argv[1]) / "src" / "linconn" / "specs"
for name in ("c0", "c1", "c2", "c3", "c4"):
    linconn.LinearizedConnection(linconn.load_spec(specs_dir / f"{name}.ini").conn)
print(perf_counter() - t0)
