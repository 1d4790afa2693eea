"""Make the benchmark's own modules importable by their plain names,
as they are when ``run.py`` runs them, and the program importable."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import harness  # noqa: E402

harness.use_repo_sources()
