"""Smoke tests of the benchmark itself: tiny counts, every metric, valid JSON.

Run from the root of the repository::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert sorted(m) == ["unit", "value"]
        assert isinstance(m["value"], float) and np.isfinite(m["value"])


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _spec(z):
    return [{"levels": (0.1, 0.05), "r1": 0.0, "k_n": 68, "p_list": (34,), "s": 0.45, "z": z}]


def test_flipped_byte_in_a_table_is_a_failure():
    z = {("lw", 34): np.array([0.1, -2.5, 3.0, 1.7]), ("j", 34): np.array([2.0, 0.0, -0.3, 4.1])}
    table = check.expected_table_bytes(_spec(z), with_s=False)
    assert check.check_table(table, _spec(z), False, "t") == []
    assert check.flipped_byte_detected(table, _spec(z), False)


def test_mp_cdf_oracle_matches_the_program():
    from spotspectra import MPLaw, mp_cdf

    for y in (0.5, 1.0, 1.5):
        law = MPLaw(y)
        xs = np.concatenate([np.linspace(-0.1, law.b + 0.2, 301), [law.a, law.b, 0.0]])
        program = np.array([mp_cdf(float(x), law) for x in xs])
        assert np.max(np.abs(check.mp_cdf_oracle(xs, y) - program)) < 1e-12
