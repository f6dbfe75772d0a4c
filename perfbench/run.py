"""Benchmark entry point for spotspectra.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload tables-serial --seed 0 --seconds 25 --trace 0

Workloads: ``tables-serial``, ``tables-workers2``, ``esd-figures`` and
``cli-roundtrip`` (see ``perfbench/NOTES.md``).  With ``--trace 0`` the run
prints every end-to-end metric; with ``--trace 1`` it prints every per-layer
metric from a traced run.  ``--smoke`` shrinks every count to a minimum for
the benchmark's own tests.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout.  The workload runs in
a process of its own with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` removed from its environment, so it sees the library
defaults, as a user of ``spotspectra mc-*`` does.  Every time is reported at
the reference speed of ``calibration.py``; the raw times are printed too.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
WORKLOADS = ("tables-serial", "tables-workers2", "esd-figures", "cli-roundtrip")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh interpreters timed for setup_s besides the workload's own, after one
# untimed warm-up.  Half run before the workload and half after it, so that
# the median spans the run rather than a few seconds of machine noise.
SETUP_PROBES = 4
# Fresh interpreters timed for the per-layer import split.
SPLIT_PROBES = 3
# Every run must end within 180 s.
DEADLINE_S = 170.0


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv: list[str], env: dict[str, str], timeout: float) -> str:
    """Run a Python child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: {argv[0]} did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"error: {argv[0]} exited with code {proc.returncode}")
    return stdout


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable (not a git checkout)"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny counts, for the benchmark's tests")
    args = parser.parse_args()
    if not (ROOT / "src" / "spotspectra" / "__init__.py").is_file():
        print(f"error: no spotspectra sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64 or args.seconds <= 0:
        print("error: seed must lie in [0, 2**64) and seconds must be positive", file=sys.stderr)
        return 2

    started = time.monotonic()
    env_record = {
        "loadavg_at_start": os.getloadavg(),
        "git_commit": _git_commit(),
        "blas_thread_env": "unset for the workload process (library defaults): " + ", ".join(BLAS_THREAD_VARS),
    }
    env = _child_env()
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir()

    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    try:
        probe = str(BENCH / "setup_probe.py")
        if args.trace:
            split = [
                _last_json(_run_child([probe, "--split"], env, remaining()))
                for _ in range(1 if args.smoke else SPLIT_PROBES)
            ]
        else:
            _run_child([probe], env, remaining())  # warm-up, not timed

            def setup_probe() -> float:
                return _last_json(_run_child([probe], env, remaining()))["import_s"]

            setup_samples = [setup_probe() for _ in range(1 if args.smoke else SETUP_PROBES // 2)]
        worker_argv = [
            str(BENCH / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--work", str(work),
            "--trace-out", str(OUT / f"spans-{tag}.json"),
        ] + (["--smoke"] if args.smoke else [])
        result = _last_json(_run_child(worker_argv, env, remaining()))
        if not args.trace:
            setup_samples += [
                setup_probe() for _ in range(0 if args.smoke else SETUP_PROBES - SETUP_PROBES // 2)
            ]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {name: (value, unit) for name, (value, unit) in result["metrics"].items()}
    if args.trace:
        for key in ("numpy_s", "scipy_integrate_s", "spotspectra_rest_s"):
            metrics[f"setup.{key}"] = (statistics.median(s[key] for s in split), "s")
    else:
        setup_samples.append(result["import_s"])
        # Scaled by the workload's own kernel median: the probes run before and
        # after the workload, and a few kernel runs next to each probe track
        # the host's speed far worse than the hundreds taken during the run.
        result["raw"]["setup_s"] = statistics.median(setup_samples)
        metrics["setup_s"] = (result["raw"]["setup_s"] * result["raw"]["speed_factor"], "s")
    env_record.update(result["env"])
    failed, attempted = result["failed"], result["attempted"]
    correct = failed == 0 and result["self_check_ok"] and not result["problems"]

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "env": env_record,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted if attempted else None,
        "problems": result["problems"],
        "raw": result.get("raw"),
        "digests": result.get("digests"),
        "tail": result.get("tail"),
        "pass_walls_s": result.get("pass_walls_s"),
        "steps": result.get("steps"),
        "kernel_s": result.get("kernel_s"),
        "traced_reps": result.get("traced_reps"),
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    print("env " + json.dumps(env_record))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"metric {name} = {value!r} {unit}")
    print(f"fail_share = {record['fail_share']!r} ({failed} of {attempted} ops failed)")
    if record["raw"]:
        print("raw (unscaled) " + json.dumps(record["raw"], sort_keys=True))
    if record["tail"]:
        print(f"op_ms_tail is {record['tail']}; {len(record['pass_walls_s'])} passes")
    if record["digests"]:
        print("digests " + json.dumps(record["digests"], sort_keys=True))
    for problem in result["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
