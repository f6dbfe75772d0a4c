"""Workload process: times its own import of spotspectra, then runs one workload.

Started by ``run.py``; prints human-readable lines and, as its last line, a
JSON object with the metrics, the op accounting and the environment.
"""

from time import perf_counter

_T0 = perf_counter()
import spotspectra  # noqa: E402,F401
import spotspectra.cli  # noqa: E402,F401

IMPORT_S = perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import check  # noqa: E402
import workloads as wl  # noqa: E402

REFERENCE_NAME = {
    "tables-serial": "tables",
    "tables-workers2": "tables",
    "esd-figures": "esd",
    "cli-roundtrip": "cli",
}


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("openblas configuration", blas.get("name", "unknown")),
        "spotspectra": spotspectra.__version__,
    }


def peak_rss_mb() -> float:
    """Largest RSS of this process plus the largest of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace-out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    work = Path(args.work)
    result = {"import_s": IMPORT_S, "env": environment()}
    if args.trace:
        import tracing

        traced = tracing.run_traced(args.seed, args.seconds, args.smoke, work, Path(args.trace_out))
        result.update(traced, self_check_ok=True)
    else:
        family = REFERENCE_NAME[args.workload]
        ref = None if args.smoke or args.seed != check.DEFAULT_SEED else check.load_reference(family)
        if family == "tables":
            workers = 1 if args.workload == "tables-serial" else 2
            out = wl.run_tables(args.seed, args.seconds, workers, args.smoke, work, ref)
        elif family == "esd":
            out = wl.run_esd(args.seed, args.seconds, args.smoke, work, ref)
        else:
            out = wl.run_cli(args.seed, args.seconds, args.smoke, work, ref)
        raw = wl.raw_metrics(out)
        metrics = wl.end_to_end_metrics(out)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        result.update(
            metrics=metrics,
            attempted=out.attempted,
            failed=min(out.failed, out.attempted),  # one op can fail several checks
            problems=out.problems,
            self_check_ok=out.self_check_ok,
            digests=out.digests,
            tail=f"p{out.tail_percentile} over {sum(op for _, _, op in out.steps)} op latencies",
            pass_walls_s=out.pass_walls_s,
            raw=raw,
            steps=out.steps,
            kernel_s=out.kernel_s,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
