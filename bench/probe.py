"""Set-up probe: a fresh interpreter imports what one workload calls and
finishes that workload's warm-up job, then exits with the job's code.

Usage: python3 bench/probe.py {numeric,symbolic,search}
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402  (needs the path above)

workload = WORKLOADS[sys.argv[1]]
code, _ = workload.runner()(workload.warmup)
sys.exit(code)
