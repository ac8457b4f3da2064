"""Regenerate the default-seed outputs in ``reference.json``.

``python3 perfbench/make_reference.py`` runs one iteration of every
workload at seed 0, checks it against the EXPERIMENTS.md rows kept in
``reference.json``, and on success rewrites that file's ``outputs``.
Run it only when a change is meant to alter the simulator's outputs.
"""

import contextlib
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench_workloads  # noqa: E402


def main() -> int:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text())
    work = HERE.parent / ".perfbench-work"
    work.mkdir(exist_ok=True)
    for name, cls in bench_workloads.WORKLOADS.items():
        rows = {"experiments_md": reference[name]["experiments_md"]}
        with tempfile.TemporaryDirectory(dir=work) as scratch:
            workload = cls(0, rows, Path(scratch))
            try:
                workload.generate()
                iteration = workload.iterate(lambda label: contextlib.nullcontext())
            finally:
                workload.close()
        if iteration.failed:
            print(f"{name}: {iteration.failed} failed", *iteration.problems, sep="\n  ")
            return 1
        reference[name]["outputs"] = workload.first
        print(f"{name}: reference updated")
    path.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
