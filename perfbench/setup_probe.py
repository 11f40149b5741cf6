"""Print the set-up seconds of one fresh process for one workload.

Usage: python3 perfbench/setup_probe.py <workload> <path of the checkout's src>
"""

import sys

sys.path.insert(0, sys.argv[2])

from workloads import WORKLOADS, timed_setup  # noqa: E402

_, seconds = timed_setup(WORKLOADS[sys.argv[1]])
print(repr(seconds))
