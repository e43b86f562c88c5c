"""Time ``load_config`` + ``build_workspace`` once, in this fresh process.

Usage: ``python3 bench/setup_probe.py CONFIG``. Prints the seconds on
stdout. ``run.py`` starts it several times per run and reports the
median as ``setup_s``; imports are outside the timed region.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from hypkob.config import build_workspace, load_config  # noqa: E402


def main(path: str) -> None:
    t0 = time.perf_counter()
    build_workspace(load_config(path))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1])
