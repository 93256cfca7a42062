"""Time one cold set-up of a workload in this fresh interpreter.

    python3 bench/cold_setup.py <workload> <seed> <size>

Prints the seconds taken by `import ergclt` plus the construction of the
systems the workload needs.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import cold_setup  # noqa: E402

if __name__ == "__main__":
    workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    print(repr(cold_setup(workload, seed, size)[1]))
