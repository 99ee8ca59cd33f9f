"""Locate the lyndonkit sources of the checkout the benchmark runs in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


def load_lyndonkit():
    """Import lyndonkit from this checkout's src/, never from elsewhere.

    Exits with a message, and without a result, when the checkout holds no
    lyndonkit sources.
    """
    package_dir = SRC / "lyndonkit"
    if not (package_dir / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no lyndonkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lyndonkit
    import lyndonkit.cli

    if Path(lyndonkit.__file__).resolve().parent != package_dir:
        raise SystemExit(f"perfbench: lyndonkit imported from {lyndonkit.__file__}")
    return lyndonkit
