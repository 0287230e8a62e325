"""Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the root of a source checkout.

Prints a human-readable report on stderr and, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero when a correctness check fails or when the
checkout holds no program to measure.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "serve" / "protocol.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.driver import main as run

    return run()


if __name__ == "__main__":
    sys.exit(main())
