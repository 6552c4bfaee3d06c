"""Set-up probe: a fresh interpreter imports kinlang and its harness and
validates one workload config, then prints the monotonic clock.

    python3 bench/setup_probe.py <src dir> <config.json>

The caller reads the clock before it starts this process; the difference
is the set-up time every CLI invocation pays.  CLOCK_MONOTONIC is one
system-wide clock, so readings from the two processes compare.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import kinlang  # noqa: E402,F401
from kinlang.harness import load_config_file  # noqa: E402

load_config_file(sys.argv[2])
print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
