"""Locate the checkout the benchmark runs in and import exactspca from it.

The benchmark measures the source tree next to it, never an installed copy,
so a checkout without ``src/exactspca`` is an error rather than a fallback.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUTPUT = ROOT / ".perfbench"


def use_checkout_source():
    """Put the checkout's ``src`` first on the path and import exactspca."""
    package = SOURCE / "exactspca"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no exactspca sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import exactspca

    if Path(exactspca.__file__).resolve().parent != package:
        raise SystemExit(
            f"perfbench: imported exactspca from {exactspca.__file__}, not {package}"
        )
    return exactspca
