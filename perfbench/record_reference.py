"""Record reference.json: the outputs of every workload at seed 0.

    python3 perfbench/record_reference.py

Run it only on a commit whose outputs are the accepted reference; the
benchmark compares later outputs of the same argv against this file.
"""
from __future__ import annotations

import json
import os
import sys

import run
import workloads


def main() -> int:
    os.makedirs(os.path.join(run.OUT, "work"), exist_ok=True)
    reference = {}
    for name in workloads.UNITS:
        out = workloads.out_path(name)
        argv = workloads.argv_for(name, 0, out)
        res = run._spawn([sys.executable, "-m", "cqduffing.cli", *argv], f"reference-{name}")
        if res["exit"] != 0:
            print(f"{name}: exit code {res['exit']}", file=sys.stderr)
            return 1
        reference[name] = workloads.reference_record(name, argv, os.path.join(run.ROOT, out))
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
