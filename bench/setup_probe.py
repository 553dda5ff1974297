"""Set-up time of one workload in a fresh interpreter.

Prints the wall time from before `import spincavity` until the workload's
inputs are built.  Run from the root of the checkout:

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys
import time

sys.path.insert(0, "src")
t0 = time.perf_counter()
import spincavity  # noqa: E402,F401

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].build_inputs(int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
