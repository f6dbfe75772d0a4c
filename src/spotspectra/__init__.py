"""Spectral analysis of high-frequency spot volatility matrix estimators.

The package simulates multivariate price paths, forms local (spot) and
integrated realized covariance estimates, compares their eigenvalue
distributions against Marchenko--Pastur theory, and runs standardized
identity and sphericity tests, together with a Monte Carlo harness that
reproduces size/power tables and figure data.
"""

from .errors import (
    ConfigError,
    DegenerateStatisticError,
    NumericalError,
    SingularEstimateError,
    SpotSpectraError,
)
from .estimators import (
    SpotEstimate,
    read_matrix_csv,
    realized_integrated_vol,
    rescale,
    spot_vol,
    spot_vol_from_window,
    write_matrix_csv,
)
from .harness import (
    Alternative,
    EsdArtifact,
    MCConfig,
    MCSummary,
    QQArtifact,
    run_esd_figure,
    run_power_experiment,
    run_qq_figure,
    run_size_experiment,
    write_power_table,
    write_size_table,
)
from .hdtests import (
    TestKind,
    TestReport,
    bjyz_test,
    evaluate_tests,
    j_test,
    lw_test,
    whiten_increments,
    write_report_csv,
)
from .rmt import (
    DiscreteH,
    LssConstants,
    MPLaw,
    StieltjesPoint,
    mp_cdf,
    mp_lss_constants,
    mp_pdf,
    solve_silverstein,
)
from .simkit import (
    GridConfig,
    PricePath,
    VolKind,
    VolModel,
    increments,
    read_path_csv,
    simulate_path,
    simulate_window_increments,
    write_path_csv,
)
from .spectra import (
    SpectralSample,
    eigenvalues_sym,
    esd_eval,
    kolmogorov_distance,
)

__version__ = "0.1.0"

__all__ = [
    "Alternative",
    "ConfigError",
    "DegenerateStatisticError",
    "DiscreteH",
    "EsdArtifact",
    "GridConfig",
    "LssConstants",
    "MCConfig",
    "MCSummary",
    "MPLaw",
    "NumericalError",
    "PricePath",
    "QQArtifact",
    "SingularEstimateError",
    "SpectralSample",
    "SpotEstimate",
    "SpotSpectraError",
    "StieltjesPoint",
    "TestKind",
    "TestReport",
    "VolKind",
    "VolModel",
    "bjyz_test",
    "eigenvalues_sym",
    "esd_eval",
    "evaluate_tests",
    "increments",
    "j_test",
    "kolmogorov_distance",
    "lw_test",
    "mp_cdf",
    "mp_lss_constants",
    "mp_pdf",
    "read_matrix_csv",
    "read_path_csv",
    "realized_integrated_vol",
    "rescale",
    "run_esd_figure",
    "run_power_experiment",
    "run_qq_figure",
    "run_size_experiment",
    "simulate_path",
    "simulate_window_increments",
    "solve_silverstein",
    "spot_vol",
    "spot_vol_from_window",
    "whiten_increments",
    "write_matrix_csv",
    "write_path_csv",
    "write_power_table",
    "write_report_csv",
    "write_size_table",
    "__version__",
]
