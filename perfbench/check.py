"""Output checks for the benchmark: digests, oracles and reference comparison.

Every check returns a list of problem strings; an empty list means the output
is correct.  Three kinds of check are used:

* Oracles that hold for any seed: a size or power table must be exactly the
  CSV that its z-score arrays imply, an ESD file's ``mp_cdf`` column must
  match an independent Gauss-Legendre evaluation of the Marchenko-Pastur
  distribution function, and so on.
* References stored for ``DEFAULT_SEED`` under ``perfbench/reference``.
  Tables are compared byte for byte (their SHA-256 must match).  Floating
  point outputs are compared within the project's contract of 1e-10 on
  z-scores, because a change that keeps the Philox draws but reorders the
  arithmetic (a trace identity instead of an eigendecomposition, a closed
  form instead of quadrature) legitimately moves the last digits.  Their
  SHA-256 digests are still recorded so that two commits can be compared.
* Repeat determinism: every pass of a run must reproduce the digests of the
  first pass.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0

# The ROADMAP contract on z-scores; applied relative to max(1, |z|).
Z_TOL = 1e-10
# Eigenvalues and KS distances: same contract, a little looser because they
# are not standardized.
VALUE_RTOL = 1e-9
VALUE_ATOL = 1e-12
# Independent MP cdf oracle against the program's mp_cdf column.
CDF_ATOL = 1e-9

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(96)


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: Path) -> str:
    return sha256_bytes(Path(path).read_bytes())


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def z_close(actual, expected) -> bool:
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if a.shape != e.shape or not np.all(np.isfinite(a)):
        return False
    return bool(np.all(np.abs(a - e) <= Z_TOL * np.maximum(1.0, np.abs(e))))


def values_close(actual, expected) -> bool:
    a = np.asarray(actual, dtype=float)
    e = np.asarray(expected, dtype=float)
    if a.shape != e.shape or not np.all(np.isfinite(a)):
        return False
    return bool(np.all(np.abs(a - e) <= VALUE_ATOL + VALUE_RTOL * np.abs(e)))


# -- tables -------------------------------------------------------------------

TEST_ORDER = ("bjyz", "lw", "j")


def expected_table_bytes(rows_spec: list[dict], with_s: bool) -> bytes:
    """The size/power table CSV implied by z-score arrays.

    ``rows_spec`` holds one entry per experiment in table order, each with
    ``levels``, ``r1``, ``k_n``, ``p_list``, optional ``s`` and ``z``, a dict
    ``{(test, p): array}``.  The layout is the documented one:
    ``test,level,r1,pbar[,s],rejection_pct`` looping test, level, p.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["test", "level", "r1", "pbar"] + (["s"] if with_s else []) + ["rejection_pct"])
    for spec in rows_spec:
        for test in TEST_ORDER:
            for level in spec["levels"]:
                threshold = NormalDist().inv_cdf(1.0 - level / 2.0)
                for p in spec["p_list"]:
                    z = spec["z"].get((test, p))
                    if z is None:
                        continue
                    rate = float(np.mean(np.abs(np.asarray(z)) > threshold))
                    row = [test, repr(level), repr(spec["r1"]), repr(p / spec["k_n"])]
                    if with_s:
                        row.append(repr(spec["s"]))
                    row.append(repr(100.0 * rate))
                    writer.writerow(row)
    return buf.getvalue().encode()


def check_table(actual: bytes, rows_spec: list[dict], with_s: bool, label: str) -> list[str]:
    """A table must be exactly what its own z-scores imply."""
    if actual != expected_table_bytes(rows_spec, with_s):
        return [f"{label}: table does not match the rejection rates of its z-scores"]
    return []


def flipped_byte_detected(table: bytes, rows_spec: list[dict], with_s: bool) -> bool:
    """Self-check: flipping one byte of a correct table must be reported."""
    pos = len(table) // 2
    broken = table[:pos] + bytes([table[pos] ^ 0x01]) + table[pos + 1 :]
    return bool(check_table(broken, rows_spec, with_s, "flipped"))


# -- test statistics oracle ---------------------------------------------------

# Independent arithmetic agrees with the program to rounding; a wrong formula
# is off by far more.
ORACLE_ZTOL = 1e-8


def oracle_zscores(window: np.ndarray, n: int, k_n: int, null_scale: float) -> dict[str, float]:
    """Z-scores of one replication from the documented formulas.

    ``window`` is the ``p x k_n`` increment block; the estimate is
    ``(n / k_n) W W^T / null_scale``.  ``lw`` and ``j`` are standardized as
    ``(k_n * raw - p - 1) / 2``; ``bjyz`` (only for ``p / k_n < 1``) uses the
    MP constants of ``x - log x - 1``.
    """
    p = window.shape[0]
    est = (n / k_n) * (window @ window.T) / null_scale
    est = 0.5 * (est + est.T)
    lam = np.linalg.eigvalsh(est)
    y = p / k_n
    out = {
        "lw": (k_n * (np.mean((lam - 1.0) ** 2) - y * np.mean(lam) ** 2 + y) - p - 1.0) / 2.0,
        "j": (k_n * np.mean((p * lam / np.sum(lam) - 1.0) ** 2) - p - 1.0) / 2.0,
    }
    if y < 1.0:
        lg = math.log1p(-y)
        center, shift, var = 1.0 + (1.0 / y - 1.0) * lg, -lg / 2.0, -2.0 * lg - 2.0 * y
        raw = float(np.sum(lam - np.log(lam))) - p
        out["bjyz"] = (raw - p * center - shift) / math.sqrt(var)
    return {kind: float(z) for kind, z in out.items()}


def oracle_close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= ORACLE_ZTOL * max(1.0, abs(expected))


# -- Marchenko-Pastur oracle --------------------------------------------------


def mp_cdf_oracle(x: np.ndarray, y: float) -> np.ndarray:
    """Unit-scale MP distribution function by Gauss-Legendre quadrature.

    Uses the substitution ``u = a + (b - a) sin^2(theta)``, under which the
    density times the Jacobian is smooth on ``[0, theta_max]``; 96 nodes give
    far better than 1e-12 on every ``y`` used here.
    """
    x = np.asarray(x, dtype=float)
    root = math.sqrt(y)
    a, b = (1.0 - root) ** 2, (1.0 + root) ** 2
    width = b - a
    atom = max(1.0 - 1.0 / y, 0.0)
    ratio = np.clip((x - a) / width, 0.0, 1.0)
    theta_max = np.arcsin(np.sqrt(ratio))
    theta = 0.5 * theta_max[:, None] * (_GL_NODES[None, :] + 1.0)
    s2 = np.sin(theta) ** 2
    # density * du/dtheta = width^2 * sin^2 * cos^2 / (pi * y * u)
    u = a + width * s2
    with np.errstate(invalid="ignore", divide="ignore"):  # u = 0 only where x <= a
        integrand = s2 * (1.0 - s2) * width**2 / (math.pi * y * u)
    bulk = 0.5 * theta_max * (integrand @ _GL_WEIGHTS)
    out = np.where(x < 0.0, 0.0, np.where(x <= a, atom, atom + bulk))
    return np.where(x >= b, 1.0, np.minimum(out, 1.0))


# -- ESD artifacts ------------------------------------------------------------


def parse_esd_csv(data: bytes) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(data.decode())))
    if rows[0] != ["x", "esd", "mp_cdf"]:
        raise ValueError(f"bad ESD header {rows[0]!r}")
    return np.array([[float(v) for v in row] for row in rows[1:] if row])


def check_esd(data: bytes, eigenvalues: np.ndarray, y: float, ks: float, label: str) -> list[str]:
    """Check one ESD CSV against its spectrum and the MP oracle.

    ``eigenvalues`` is the spectrum recomputed through the public pipeline;
    ``ks`` is the Kolmogorov distance the program reported.
    """
    try:
        table = parse_esd_csv(data)
    except (ValueError, IndexError) as exc:
        return [f"{label}: unreadable ESD CSV ({exc})"]
    xs, esd, cdf = table[:, 0], table[:, 1], table[:, 2]
    problems = []
    if np.any(np.diff(xs) <= 0.0):
        problems.append(f"{label}: x column not strictly increasing")
    lam = np.sort(np.asarray(eigenvalues, dtype=float))
    p = lam.size
    # Every eigenvalue is a grid point.
    idx = np.clip(np.searchsorted(xs, lam), 0, xs.size - 1)
    if not values_close(xs[idx], lam):
        problems.append(f"{label}: eigenvalues missing from the x grid")
    expected_esd = np.searchsorted(lam, xs, side="right") / p
    near = np.min(np.abs(xs[:, None] - lam[None, :]), axis=1) <= VALUE_RTOL * np.maximum(np.abs(xs), 1e-300)
    if np.any((esd != expected_esd) & ~near):
        problems.append(f"{label}: esd column is not the eigenvalue fraction")
    oracle = mp_cdf_oracle(xs, y)
    if np.max(np.abs(cdf - oracle)) > CDF_ATOL:
        problems.append(
            f"{label}: mp_cdf column off the MP oracle by {np.max(np.abs(cdf - oracle)):.3e}"
        )
    # KS distance: largest gap at an eigenvalue, from either side.
    uniq = np.unique(lam)
    right = np.searchsorted(lam, uniq, side="right") / p
    left = np.searchsorted(lam, uniq, side="left") / p
    f_right = mp_cdf_oracle(uniq, y)
    f_left = mp_cdf_oracle(np.nextafter(uniq, -np.inf), y)
    ks_oracle = float(max(np.max(np.abs(right - f_right)), np.max(np.abs(left - f_left))))
    if abs(ks_oracle - ks) > CDF_ATOL:
        problems.append(f"{label}: KS distance {ks!r} differs from oracle {ks_oracle!r}")
    return problems


# -- CLI reports --------------------------------------------------------------


def parse_report_csv(data: bytes) -> dict[str, dict[str, float]]:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    return {
        row["kind"]: {key: float(row[key]) for key in ("raw", "zscore", "pvalue")}
        for row in rows
    }


def check_report(data: bytes, expected: dict[str, dict[str, float]], label: str, z_ok=z_close) -> list[str]:
    """Compare a ``test`` report with expected z-scores (and raw statistics
    and p-values where ``expected`` has them)."""
    try:
        actual = parse_report_csv(data)
    except (ValueError, KeyError) as exc:
        return [f"{label}: unreadable report CSV ({exc})"]
    if sorted(actual) != sorted(expected):
        return [f"{label}: report has tests {sorted(actual)}, expected {sorted(expected)}"]
    problems = []
    for kind, want in expected.items():
        got = actual[kind]
        if not z_ok(got["zscore"], want["zscore"]):
            problems.append(f"{label}: {kind} z-score {got['zscore']!r} != {want['zscore']!r}")
        others = [key for key in ("raw", "pvalue") if key in want]
        if not values_close([got[k] for k in others], [want[k] for k in others]):
            problems.append(f"{label}: {kind} raw/p-value differ from expected")
    return problems
