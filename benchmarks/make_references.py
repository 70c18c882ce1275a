"""Write references.json: every full-size workload's outputs at the default
seed, computed by the sources in ``src/``.

    python3 benchmarks/make_references.py

Regenerate only when a change is meant to alter what a workload computes
(not its speed), and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from run import DEFAULT_WORKERS, WORKLOADS  # noqa: E402


def main() -> int:
    refs: dict[str, object] = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for name in WORKLOADS:
            wl = workloads.make(name, "full", workloads.DEFAULT_SEED, DEFAULT_WORKERS[name], Path(tmp))
            wl.setup()
            code, text = wl.execute()
            units, problems = wl.check(code, text)
            if problems.by_unit:
                print(f"{name}: {problems.by_unit}", file=sys.stderr)
                return 1
            refs[name] = json.loads(text)
            print(f"{name}: {units} units")
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
