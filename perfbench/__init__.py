"""The repository benchmark: seeded compile, cli, serve and fig8 workloads.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/run.py``.
"""
