"""Stage benchmark for the dualprune pipeline; run it with ``python3 stagebench/run.py``."""
