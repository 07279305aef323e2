#!/usr/bin/env python3
"""Record perfbench/reference.json: the default seed's outputs at the current code.

    python3 perfbench/record_reference.py

Runs one pass of exact-ladder (J* at x0 per rung) and batch-small (every
report column except timing and fingerprint) with the workload gates on but no
reference, and refuses to write if any gate fails.  Later runs with the
default seed compare against the file within 1e-9 relative (flags exactly).
"""

import json
import shutil
import sys
from pathlib import Path


def main() -> int:
    here = Path(__file__).resolve().parent
    root = here.parent
    sys.path[:0] = [str(root / "src"), str(here)]
    from pb.tracing import Tracer
    from pb.workloads import DEFAULT_SEED, BatchSmall, ExactLadder

    reference = {}
    work = here / "_work" / "reference"
    try:
        for cls in (ExactLadder, BatchSmall):
            workload = cls(DEFAULT_SEED, work / cls.name)
            workload.prepare()
            workload.setup()
            workload.run_pass(Tracer())
            if workload.failures:
                print("\n".join(workload.failures), file=sys.stderr)
                return 1
            reference[cls.name] = workload.reference_data()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (here / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
