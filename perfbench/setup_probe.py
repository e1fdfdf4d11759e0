"""Time one fresh interpreter's set-up: import sccckit and resolve models.

Usage: python3 setup_probe.py SRC_DIR MODEL [MODEL ...]

Prints the seconds from this script's first line until ``import sccckit``
from SRC_DIR and ``resolve_model`` of every MODEL (which runs the semiring
law spot checks) have finished.
"""
import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    src = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(src))
    import sccckit
    from sccckit.models import resolve_model
    if not Path(sccckit.__file__).resolve().is_relative_to(src):
        print(f"imported sccckit from {sccckit.__file__}, not {src}", file=sys.stderr)
        return 1
    for selector in sys.argv[2:]:
        resolve_model(selector)
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
