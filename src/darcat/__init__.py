"""Modelling toolkit for short categorical and ordinal time series.

The package bundles a persistence-parametrised Markov model (DAR(1))
with its estimators and independence tests, lagged multinomial-logit and
proportional-odds regression compared by AIC, and a seeded Monte Carlo
harness for estimator studies.  See the README for the command-line
interface.
"""

from .core import (
    MISSING,
    CatSeries,
    DarcatError,
    StateSpace,
    empirical_transition_matrix,
    parse_series,
    serialize_series,
    transition_counts,
)
from .dar import (
    DarModel,
    MissingDarModel,
    augmented_transition_matrix,
    autocorrelation,
    simulate,
    simulate_with_missing,
    transition_matrix,
    transition_matrix_power,
)
from .estimate import (
    AlphaEstimate,
    PiEstimate,
    estimate_alpha_ls,
    estimate_alpha_mle,
    estimate_alpha_mle_gapped,
    estimate_beta,
    estimate_pi,
    vn,
)
from .glm import AicTable, Design, GlmFit, aic_table, aic_tables, build_design, fit_multinomial, fit_proportional_odds
from .independence import (
    RunsSummary,
    TestReport,
    chi_square_test,
    longest_run_power,
    longest_run_test,
    runs_count_test,
    runs_summary,
)
from .montecarlo import CellResult, SimGrid, study_grid, run_grid

__all__ = [
    "MISSING",
    "CatSeries",
    "DarcatError",
    "StateSpace",
    "parse_series",
    "serialize_series",
    "transition_counts",
    "empirical_transition_matrix",
    "DarModel",
    "MissingDarModel",
    "transition_matrix",
    "transition_matrix_power",
    "autocorrelation",
    "simulate",
    "simulate_with_missing",
    "augmented_transition_matrix",
    "PiEstimate",
    "AlphaEstimate",
    "estimate_pi",
    "estimate_alpha_mle",
    "estimate_alpha_ls",
    "estimate_alpha_mle_gapped",
    "estimate_beta",
    "vn",
    "RunsSummary",
    "TestReport",
    "runs_summary",
    "chi_square_test",
    "runs_count_test",
    "longest_run_test",
    "longest_run_power",
    "Design",
    "GlmFit",
    "AicTable",
    "build_design",
    "fit_multinomial",
    "fit_proportional_odds",
    "aic_table",
    "aic_tables",
    "SimGrid",
    "CellResult",
    "run_grid",
    "study_grid",
]
