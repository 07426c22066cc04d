"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_refs.py [workload ...]

Writes ``perfbench/refs/<workload>.json``.  The references are part of the
benchmark: re-record them only when a change is meant to alter results
beyond roundoff, and say so with the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    names = (argv if argv is not None else sys.argv[1:]) or list(workloads.WORKLOADS)
    workloads.REFS_DIR.mkdir(exist_ok=True)
    for name in names:
        refs = workloads.record(workloads.WORKLOADS[name])
        (workloads.REFS_DIR / f"{name}.json").write_text(json.dumps(refs) + "\n")
        print(f"recorded {name}: {len(refs['ops'])} operations, {len(refs['eval'])} eval sets")
    return 0


if __name__ == "__main__":
    sys.exit(main())
