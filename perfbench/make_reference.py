"""Write the stored references of the benchmark for ``check.DEFAULT_SEED``.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run this only at a commit whose outputs are trusted: the references are what
every later commit is checked against.  It runs each workload family once
(serially, for the tables) without a time budget beyond the minimum passes.
"""

import json
import shutil
import tempfile
from pathlib import Path

import check
import workloads as wl


def main() -> None:
    out_dir = Path(__file__).resolve().parent / "out"
    out_dir.mkdir(exist_ok=True)
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=out_dir))
    try:
        seed = check.DEFAULT_SEED
        runs = {
            "tables": wl.run_tables(seed, 0.0, 1, False, work, None),
            "esd": wl.run_esd(seed, 0.0, False, work, None),
            "cli": wl.run_cli(seed, 0.0, False, work, None),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, out in runs.items():
        if out.failed or out.problems or not out.self_check_ok:
            raise SystemExit(f"{name}: outputs failed their checks: {out.problems}")
        path = check.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps({"seed": seed, **out.outputs}, indent=1) + "\n")
        print(path)


if __name__ == "__main__":
    main()
