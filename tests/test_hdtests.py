"""Identity and sphericity test statistics: hand values, oracles, invariances."""

import io
import math

import numpy as np
import pytest

from spotspectra import (
    ConfigError,
    DegenerateStatisticError,
    NumericalError,
    SingularEstimateError,
    SpotEstimate,
    TestKind,
    TestReport,
    eigenvalues_sym,
    evaluate_tests,
    mp_lss_constants,
    rescale,
    spot_vol,
    write_report_csv,
)


def _estimate(matrix, k_n):
    return SpotEstimate(matrix=np.asarray(matrix, dtype=float), t=0.0, k_n=k_n, window=(1, k_n))


def _random_estimate(rng, p, k_n):
    g = rng.standard_normal((p, k_n))
    return spot_vol(g, 0.0, k_n)


def test_bjyz_identity_value():
    # identity input: every eigenvalue is 1, so the raw statistic is 0 and
    # the z-score reduces to -(p*center + mean_shift) / sqrt(variance)
    report = evaluate_tests(_estimate(np.eye(34), 68), [TestKind.BJYZ])[0]
    assert report.raw == 0.0
    c = mp_lss_constants(0.5)
    expected = -(34 * c.center + c.mean_shift) / math.sqrt(c.variance)
    assert report.zscore == expected
    assert report.zscore == pytest.approx(-17.343719083634245, abs=1e-12)
    assert report.kind is TestKind.BJYZ
    assert report.p == 34 and report.k_n == 68 and report.z_n == 0.5
    assert report.pvalue == pytest.approx(0.0, abs=1e-60)


def test_lw_identity_value():
    # identity input: raw = 0, z = (k*0 - p - 1)/2 = -17.5 for p=34
    report = evaluate_tests(_estimate(np.eye(34), 68), [TestKind.LW])[0]
    assert report.raw == 0.0
    assert report.zscore == -17.5
    assert report.kind is TestKind.LW


def test_j_identity_value():
    report = evaluate_tests(_estimate(np.eye(34), 68), [TestKind.J])[0]
    assert report.raw == 0.0
    assert report.zscore == -17.5
    assert report.kind is TestKind.J


def test_bjyz_raw_nonnegative_iff_ones():
    # x - log(x) - 1 >= 0 with equality only at x = 1
    rng = np.random.default_rng(0)
    for _ in range(20):
        est = _random_estimate(rng, 8, 32)
        assert evaluate_tests(est, [TestKind.BJYZ])[0].raw > 0.0
    assert evaluate_tests(_estimate(np.eye(5), 10), [TestKind.BJYZ])[0].raw == 0.0
    nearly = _estimate(np.diag([1.0, 1.0, 1.0 + 1e-6]), 10)
    assert evaluate_tests(nearly, [TestKind.BJYZ])[0].raw > 0.0


def test_bjyz_raw_matches_slogdet_route():
    # independent route: raw = tr(A) - logdet(A) - p via slogdet
    rng = np.random.default_rng(1)
    for _ in range(20):
        est = _random_estimate(rng, 6, 24)
        sign, logdet = np.linalg.slogdet(est.matrix)
        assert sign == 1.0
        expected = float(np.trace(est.matrix)) - logdet - 6
        assert evaluate_tests(est, [TestKind.BJYZ])[0].raw == pytest.approx(expected, rel=1e-10)


def test_lw_raw_matches_eigenvalue_route():
    # independent route: the eigenvalue form of the statistic on the
    # validated spectrum, not the trace identities the kernel uses
    rng = np.random.default_rng(2)
    for p, k_n in ((6, 24), (10, 8)):
        est = _random_estimate(rng, p, k_n)
        lam = eigenvalues_sym(est.matrix).eigenvalues
        expected = np.mean((lam - 1.0) ** 2) - (p / k_n) * np.mean(lam) ** 2 + p / k_n
        report = evaluate_tests(est, [TestKind.LW])[0]
        assert report.raw == pytest.approx(expected, rel=1e-12)
        assert report.zscore == pytest.approx((k_n * expected - p - 1) / 2, rel=1e-12)


def test_j_raw_matches_eigenvalue_route():
    rng = np.random.default_rng(3)
    for p, k_n in ((6, 24), (10, 8)):
        est = _random_estimate(rng, p, k_n)
        lam = eigenvalues_sym(est.matrix).eigenvalues
        expected = np.mean((p * lam / np.sum(lam) - 1.0) ** 2)
        report = evaluate_tests(est, [TestKind.J])[0]
        assert report.raw == pytest.approx(expected, rel=1e-12)
        assert report.zscore == pytest.approx((k_n * expected - p - 1) / 2, rel=1e-12)


@pytest.mark.parametrize("case", ["near identity", "large norm"])
def test_lw_and_j_match_eigenvalue_route_at_extreme_scales(case):
    # At A = I + E with ||E||_F = 1e-8, ||A||_F**2 - 2 tr(A) + p cancels to
    # ||E||_F**2; at ||A||_F**2 = 1e307, (tr A)**2 alone would overflow.
    p, k_n = 34, 68
    rng = np.random.default_rng(8)
    if case == "near identity":
        s = rng.standard_normal((p, p))
        s += s.T
        a = np.eye(p) + 1e-8 * (s / np.linalg.norm(s))
    else:
        g = rng.standard_normal((p, k_n))
        a = g @ g.T
        a *= math.sqrt(1e307 / np.vdot(a, a))
    lam = np.linalg.eigvalsh(a)
    raw = {
        TestKind.LW: np.mean((lam - 1.0) ** 2) - (p / k_n) * np.mean(lam) ** 2 + p / k_n,
        TestKind.J: np.mean((p * lam / np.sum(lam) - 1.0) ** 2),
    }
    for report in evaluate_tests(_estimate(a, k_n), [TestKind.LW, TestKind.J]):
        z = (k_n * raw[report.kind] - p - 1) / 2
        assert abs(report.zscore - z) <= 1e-10 * max(1.0, abs(z))


def test_j_scale_invariance():
    rng = np.random.default_rng(4)
    est = _random_estimate(rng, 12, 30)
    base = evaluate_tests(est, [TestKind.J])[0]
    # power-of-two factors rescale the matrix without any rounding, so the
    # report must be bit-identical
    for factor in (0.25, 2.0, 1024.0):
        scaled = evaluate_tests(rescale(est, factor), [TestKind.J])[0]
        assert scaled.zscore == base.zscore
        assert scaled.raw == base.raw
    # a general factor introduces one rounding step per entry, nothing more
    general = evaluate_tests(rescale(est, 3.7), [TestKind.J])[0]
    assert general.zscore == pytest.approx(base.zscore, rel=1e-12)


def test_identity_tests_are_scale_sensitive():
    rng = np.random.default_rng(5)
    est = _random_estimate(rng, 8, 32)
    for kind in (TestKind.LW, TestKind.BJYZ):
        scaled = evaluate_tests(rescale(est, 2.0), [kind])[0]
        assert scaled.zscore != evaluate_tests(est, [kind])[0].zscore


def test_pvalues():
    rng = np.random.default_rng(6)
    est = _random_estimate(rng, 8, 32)
    report = evaluate_tests(est, [TestKind.LW])[0]
    assert report.pvalue == math.erfc(abs(report.zscore) / math.sqrt(2.0))
    # two-sided: z and -z give the same p-value; z = 1.96 is close to 5%
    z95 = 1.959963984540054
    assert math.erfc(z95 / math.sqrt(2.0)) == pytest.approx(0.05, abs=1e-12)
    assert 0.0 <= report.pvalue <= 1.0


def test_bjyz_requires_narrow_aspect():
    with pytest.raises(DegenerateStatisticError, match="singular with probability one"):
        evaluate_tests(_estimate(np.eye(68), 68), [TestKind.BJYZ])[0]


def test_bjyz_rejects_singular_input():
    with pytest.raises(SingularEstimateError, match="Cholesky factorization failed"):
        evaluate_tests(_estimate(np.diag([1.0, 1.0, 0.0]), 8), [TestKind.BJYZ])[0]
    # the factorization succeeds, but its last pivot is below the 1e-12 floor
    with pytest.raises(SingularEstimateError, match="pivot 1.000000e-13"):
        evaluate_tests(_estimate(np.diag([1.0, 1.0, 1e-13]), 8), [TestKind.BJYZ])[0]


def test_j_rejects_zero_trace():
    with pytest.raises(SingularEstimateError):
        evaluate_tests(_estimate(np.zeros((3, 3)), 8), [TestKind.J])[0]


def test_overflowing_distance_to_identity_is_a_numerical_error():
    # finite entries, but ||A - I||_F**2 overflows to inf; at 1e308 tr(A)
    # does too, and neither leaks a RuntimeWarning (see pyproject.toml)
    for scale in (1e200, 1e308):
        for kind in TestKind:
            with pytest.raises(NumericalError, match="estimate is not finite"):
                evaluate_tests(_estimate(np.eye(3) * scale, 8), [kind])


def test_evaluate_tests_default_selection():
    rng = np.random.default_rng(7)
    narrow = _random_estimate(rng, 6, 24)
    kinds = [r.kind for r in evaluate_tests(narrow)]
    assert kinds == [TestKind.BJYZ, TestKind.LW, TestKind.J]
    wide = _random_estimate(rng, 24, 6)
    kinds = [r.kind for r in evaluate_tests(wide)]
    assert kinds == [TestKind.LW, TestKind.J]
    with pytest.raises(DegenerateStatisticError):
        evaluate_tests(wide, kinds=[TestKind.BJYZ])


def test_evaluate_tests_rejects_an_unknown_kind():
    est = _estimate(np.eye(4), 8)
    assert evaluate_tests(est, kinds=["lw"]) == evaluate_tests(est, kinds=[TestKind.LW])
    for kind in ("bogus", None):
        with pytest.raises(ConfigError, match="unknown test kind"):
            evaluate_tests(est, kinds=[TestKind.LW, kind])


def test_evaluate_tests_single_kind_matches_all_kinds():
    rng = np.random.default_rng(8)
    est = _random_estimate(rng, 6, 24)
    every = evaluate_tests(est)
    assert [r.kind for r in every] == list(TestKind)
    for report in every:
        assert evaluate_tests(est, [report.kind]) == [report]


def test_evaluate_tests_does_not_depend_on_the_matrix_layout():
    # The kernel forms A - I and B - I on the diagonal of a flat view, which
    # needs C order; a Fortran-ordered estimate must give the same reports.
    rng = np.random.default_rng(9)
    est = _random_estimate(rng, 6, 24)
    fortran = _estimate(np.asfortranarray(est.matrix), 24)
    assert fortran.matrix.flags.f_contiguous and not fortran.matrix.flags.c_contiguous
    assert evaluate_tests(fortran) == evaluate_tests(est)


def test_report_csv():
    rng = np.random.default_rng(11)
    est = _random_estimate(rng, 6, 24)
    reports = evaluate_tests(est)
    buf = io.StringIO()
    write_report_csv(reports, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == ",".join(TestReport.CSV_HEADER)
    assert len(lines) == 1 + len(reports)
    first = lines[1].split(",")
    assert first[0] == "bjyz"
    assert int(first[1]) == 6 and int(first[2]) == 24
    assert float(first[5]) == reports[0].zscore


def test_bjyz_factors_on_one_blas_thread(monkeypatch, blas_threads):
    # OpenBLAS threads the Cholesky factorization from about p = 150 on; the
    # split changes the factor's rounding, though rarely the z-score's.
    get, set_ = blas_threads
    counts = []
    real = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: counts.append(get()) or real(a))
    set_(2)
    evaluate_tests(_estimate(np.eye(3), 10), [TestKind.BJYZ])[0]
    assert counts == [1]
    assert get() == 2
