"""Record the benchmark's reference outputs.

Usage, from the root of a checkout:  python3 bench/record.py OUT_DIR

Runs each stage once, untraced, and stores the outputs its checks compare
against: the flagship CSVs and pathology-run's verdicts.json, the psi-check
JSON and the J = 4096 sequence table (long integers as digests), and
field-eval on a fixed set of anchor points.  The committed references in
bench/reference were recorded at the seed commit; recording them again from
later code would make the check compare that code with itself.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

from run import SRC, WORK, Rep, now
from workloads import STAGES, _write_points

ANCHOR_SEED = 20250907
ANCHOR_POINTS = 1_000


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    sys.path.insert(0, str(SRC))
    for stage in STAGES.values():
        run_dir = WORK / f"record-{stage.name}"
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        if stage.name == "field-eval":
            _write_points(run_dir / "points.csv", *stage.generate(ANCHOR_SEED, ANCHOR_POINTS))
        rep = Rep(run_dir, 0, stage.commands(run_dir), "run", False, []).wait(now() + 600)
        codes = [c["code"] for c in rep.result.get("commands", [])]
        if not rep.ok or any(codes):
            print(f"{stage.name}: {rep.error or codes}", file=sys.stderr)
            return 1
        ref = out / stage.name
        ref.mkdir(parents=True, exist_ok=True)
        stage.record(rep.work, rep.result, ref)
        shutil.rmtree(run_dir)
        print(f"{stage.name}: recorded in {ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
