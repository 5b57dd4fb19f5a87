"""Entry point: ``python3 benchmarks/squallbench/run.py ...``.

Puts the checkout's root and ``src/`` first on the path, so the
benchmark measures the sources beside it and nothing installed.  Without
those sources there is nothing to measure: exit 2, no result.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")

if __name__ == "__main__":
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"squallbench: no engine sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [ROOT, SRC]
    from benchmarks.squallbench.cli import main

    sys.exit(main())
