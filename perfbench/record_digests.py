"""Record the CSV digests that run.py checks each run's output against.

Usage (from the root of a checkout): python3 perfbench/record_digests.py

Runs every workload once per seed in 0..31 at full size and merges the
SHA-256 of its CSVs into digests.json.  Record only from code whose CSVs
are known good: every later run is held to these bytes.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> None:
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    run.WORK.mkdir(exist_ok=True)
    for name, wl in run.WORKLOADS.items():
        sizes = wl.sizes()
        for seed in range(32):
            work = Path(tempfile.mkdtemp(prefix=f"record-{name}-{seed}-", dir=run.WORK))
            try:
                run.prepare(wl, seed, sizes, work)
                report = run.one_run(work, 0, False, "", 2 * wl.steps)
                run.check_outputs(report, None, None)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            digests[f"{name}/full/seed={seed}"] = report["digest"]
            print(f"{name} seed {seed}: {report['digest']}", flush=True)
            run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
