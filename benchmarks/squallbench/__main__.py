"""``python -m benchmarks.squallbench``: the same command line as run.py
(run it from the repository root with ``PYTHONPATH=src``)."""

import sys

from benchmarks.squallbench.cli import main

sys.exit(main())
