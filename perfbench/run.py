"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 15 --trace 0

See perfbench/README.md for the workloads and the metrics.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
