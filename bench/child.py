"""Run one orthoseq CLI command in this fresh interpreter, traced.

Usage: python3 bench/child.py SPANS_JSON ARG...

Installs the tracer, calls ``orthoseq.cli.main(ARG...)``, writes the spans
(``cli.args`` at the root, timestamps on the system-wide monotonic clock) to
SPANS_JSON and exits with main's exit code.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import orthoseq.cli  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        code = orthoseq.cli.main(argv)
    finally:
        tracer.active = False
        tracer.uninstall()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
