"""Record the verdicts and library values the benchmark checks against.

    python3 perfbench/pin.py

For each seed in workloads.PINNED_SEEDS this runs every workload body once
with the current code and writes perfbench/pinned.json: the verdict vector
of each suite and the warm-phase library values. Run it only at a commit
whose results are to become the reference; the benchmark never writes it.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run
import workloads as wl


def record(seed: int, tmp) -> dict:
    verdicts, values = {}, {}
    for workload in wl.WORKLOADS.values():
        runner = run.Runner(workload, seed, tmp)
        primed = runner.setup()[1]
        body = runner.body(primed)
        for rec in body["steps"]:
            if rec["error"]:
                raise run.BenchError(f"{rec['name']} raised:\n{rec['error']}")
            if rec["kind"] == "suite":
                if verdicts.setdefault(rec["name"], rec["verdicts"]) \
                        != rec["verdicts"]:
                    raise run.BenchError(f"{rec['name']} verdicts differ "
                                         f"between phases")
            else:
                values.update(rec["values"])
    return {"verdicts": verdicts, "values": values}


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        pinned = {str(seed): record(seed, tmp) for seed in wl.PINNED_SEEDS}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(run.PINNED, "w") as fh:
        json.dump(pinned, fh, indent=1)
        fh.write("\n")
    for seed, rec in pinned.items():
        fails = [f"{suite}[{i}]" for suite, vs in rec["verdicts"].items()
                 for i, (_, ok) in enumerate(vs) if not ok]
        print(f"seed {seed}: failing assertions {fails}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
