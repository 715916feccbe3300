"""Swap-calibrated online forecasting over finite prediction grids.

An online forecaster that combines per-cell regression learners through a
stochastic-matrix fixed point, utilities for measuring calibration and swap
regret against linear comparator classes, an online-to-batch conversion, and
an experiment harness for convergence-rate studies.
"""

from .batch import (MixturePredictor, estimate_dsmcal, estimate_dsomni,
                    estimate_saerr, mixture_predict, select_snapshot,
                    train_mixture)
from .core import (Grid, HypothesisClass, LinearFn, LossSpec, Transcript,
                   absolute_loss, affine_restricted, cover_class,
                   cover_thetas, custom_loss, finite_class, linear_ball,
                   make_grid, squared_loss, validate_outcome, validate_stream,
                   vshaped_loss)
from .errors import (FormatError, NumericFailure, PreconditionError,
                     ResourceLimitError)
from .forecaster import (BmForecaster, RoundOutput, choose_n, lockstep_rounds,
                         rround, run_lockstep, run_online, seed_streams)
from .harness import (AdversarySpec, RateFit, SweepConfig, evaluate_metric,
                      fit_rate, generate_stream, ingest_csv, parse_class_spec,
                      parse_losses, read_results, resolve_n, run_sweep,
                      simulate_run)
from .linalg import (check_column_stochastic, project_ball_a_norm,
                     stationary_distribution)
from .metrics import (CellSums, MetricReport, WitnessFn, bm_external_regrets,
                      cal, cell_sums, mcal, psmcal, psreg, realized_weights,
                      smcal, somni, sreg, witness_f_prime)
from .ons import BETA, OMEGA, RADIUS

__version__ = "0.1.0"

__all__ = [
    "AdversarySpec", "BETA", "BmForecaster", "CellSums", "FormatError", "Grid",
    "HypothesisClass", "LinearFn", "LossSpec", "MetricReport",
    "MixturePredictor", "NumericFailure", "OMEGA", "PreconditionError",
    "RADIUS", "RateFit", "ResourceLimitError", "RoundOutput", "SweepConfig",
    "Transcript", "WitnessFn", "absolute_loss", "affine_restricted",
    "bm_external_regrets", "cal", "cell_sums", "check_column_stochastic",
    "choose_n", "cover_class", "cover_thetas", "custom_loss",
    "estimate_dsmcal", "estimate_dsomni", "estimate_saerr",
    "evaluate_metric", "finite_class", "fit_rate", "generate_stream",
    "ingest_csv", "linear_ball", "lockstep_rounds", "make_grid", "mcal",
    "mixture_predict", "parse_class_spec", "parse_losses",
    "project_ball_a_norm", "psmcal", "psreg", "read_results",
    "realized_weights", "resolve_n", "rround", "run_lockstep", "run_online",
    "run_sweep", "select_snapshot", "seed_streams", "simulate_run", "smcal",
    "somni", "squared_loss", "sreg",
    "stationary_distribution", "train_mixture", "validate_outcome",
    "validate_stream", "vshaped_loss", "witness_f_prime",
]
