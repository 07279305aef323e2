#!/usr/bin/env python3
"""stodep benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-ladder --seed 0 --seconds 30 --trace 0

Workloads: exact-ladder, batch-small, monte-carlo (see perfbench/NOTES.md).
The last line of stdout is the JSON result.  The package under src/ is used
from source; without it the run exits with code 2 and prints no result.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    root = here.parent
    if not (root / "src" / "stodep" / "__init__.py").is_file():
        print(f"perfbench: no stodep package under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(here)]
    import pb

    pb.cap_threads(len(os.sched_getaffinity(0)))
    from pb.driver import main as run

    return run(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
