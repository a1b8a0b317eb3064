"""Set-up probe: a fresh interpreter imports the package and builds a workload's inputs.

    python3 perfbench/probe.py <workload> <seed> <rounds>

``run.py`` times this whole process for ``setup_s``.
"""

import os
import sys

sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]))
