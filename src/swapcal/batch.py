"""Online-to-batch conversion: uniform mixtures over per-round predictor
snapshots, and estimators of their distributional guarantees.

A trained mixture keeps the learners' parameter stack, thetas (S, K, d):
snapshot k is taken at the start of round 1 + k * stride. Prediction draws a
snapshot uniformly, commits its conditional distribution for the query
context, and samples a grid point from it.

Each distributional estimator is its guarantee's online report (the
metrics builders sup_calibration, swap_regret, omni_gap) on the mixture's
bucket weights in place of a transcript's: the same per-cell extras, and
notes that begin with how the weights were made. The weights average every
snapshot over every test point exactly, so an estimate costs S x M commits
for S snapshots and M test points.

Training and test streams are one pair of arrays (X, y): contexts X float
(T, d), outcomes y int (T,), as generate_stream returns them.
"""

from __future__ import annotations

import numpy as np

from .core import (MEMBER_CAP, Grid, as_context, as_int, linear_ball,
                   make_grid, validate_stream)
from .forecaster import (BmForecaster, commit_round, lockstep_rounds,
                         sample_cell)
from .metrics import omni_gap, sup_calibration, swap_regret


class MixturePredictor:
    """Uniform mixture over per-round snapshots of the online forecaster,
    held as their parameter stacks thetas (S, K, d)."""

    def __init__(self, grid, thetas):
        if not isinstance(grid, Grid):
            raise ValueError("grid must be a Grid")
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 3 or not len(thetas) or thetas.shape[1] != grid.size:
            raise ValueError(f"thetas must have shape (S >= 1, {grid.size}, d),"
                             f" got {thetas.shape}")
        if not np.isfinite(thetas).all():
            raise ValueError("thetas hold a non-finite value")
        self.grid, self.thetas, self.d = grid, thetas, thetas.shape[2]

    @property
    def size(self):
        return len(self.thetas)

    def cond_dist(self, t, X):
        """Conditional distribution over grid points that snapshot t commits
        to on context X, shape (d,) and checked by as_context, or on each
        row of X, shape (M, d) and unchecked (the estimators check their
        test stream), max(1, MEMBER_CAP // K^2) rows at a time to bound
        memory (deterministic)."""
        X, thetas = np.asarray(X, dtype=float), self.thetas[t]
        if X.ndim == 1:
            return commit_round(thetas, as_context(X, self.d), self.grid)[2]
        rows = max(1, MEMBER_CAP // self.grid.size ** 2)
        return np.concatenate([commit_round(thetas, X[i:i + rows], self.grid)[2]
                               for i in range(0, max(len(X), 1), rows)])


def train_mixture(stream, n, stride=1):
    """Run the online forecaster over the stream (X, y) by lockstep_rounds
    and keep the stack that every stride-th round commits from; the mixture
    is uniform over the kept snapshots. The context dimension is X.shape[1]
    and stride >= 1 follows as_int."""
    X, y = validate_stream(stream)
    if not len(y):
        raise ValueError("cannot train a mixture on an empty stream")
    stride = as_int(stride, "stride", 1)
    fc = BmForecaster(make_grid(n), X.shape[1])
    snaps = np.concatenate([thetas for t, (thetas, *_) in enumerate(
        lockstep_rounds([fc], [(X, y)])) if t % stride == 0])
    return MixturePredictor(fc.grid, snaps)


def select_snapshot(mix, rng):
    """Uniform snapshot index draw; split out so the selection distribution
    is testable on its own."""
    return int(rng.integers(mix.size))


def mixture_predict(mix, x, rng):
    """Sample a grid index: uniform snapshot, then a draw from its
    conditional distribution on the (d,) context x, which as_context checks
    before rng draws anything. Returns the index; the grid value is
    mix.grid.points[index]."""
    x = as_context(x, mix.d)
    P = mix.cond_dist(select_snapshot(mix, rng), x)
    return int(sample_cell(P, rng.random()))


# ---------------------------------------------------------------------------
# distributional estimators

# the notes prefix of every estimator: how _bucket_weights makes V
_HOW = "exhaustive enumeration over snapshots x test points; "


def _buckets(mix, test):
    """The test stream (X, y) checked against the mixture, y as float, and
    its bucket weights V."""
    X, y = validate_stream(test, mix.d)
    if not len(y):
        raise ValueError("test sample must be non-empty")
    return X, y.astype(float), _bucket_weights(mix, X)


def _bucket_weights(mix, X):
    """Joint weight matrix V (n+1, M) over (cell, test point): every
    snapshot's conditional cell weights averaged over the snapshots and the
    test points exactly (total mass 1), by S x M commits."""
    V = np.zeros((mix.grid.size, len(X)))
    for t in range(mix.size):
        V += mix.cond_dist(t, X).T
    V /= mix.size * len(X)
    return V


def estimate_saerr(mix, test, hc=None):
    """Swap agnostic-learning error of the mixture on a test sample: per
    bucket, the squared loss of the cell value minus the best comparator
    fit on that bucket, summed over the buckets (swap_regret)."""
    hc = linear_ball(4.0) if hc is None else hc
    X, y, V = _buckets(mix, test)
    return swap_regret("saerr", X, y, V, mix.grid.points, hc, _HOW)


def estimate_dsmcal(mix, test, hc=None, q=2):
    """Distributional swap multicalibration of the mixture: bucket the test
    points by cell weight, take the per-bucket supremum of the mean
    context-weighted residual, and average cell-mass-weighted
    (sup_calibration)."""
    hc = linear_ball(1.0) if hc is None else hc
    X, y, V = _buckets(mix, test)
    return sup_calibration(f"dsmcal{q}", X, y, V, mix.grid.points, hc, q, _HOW)


def estimate_dsomni(mix, test, losses=None, hc=None):
    """Distributional swap omniprediction gap of the mixture on a test
    sample, over a loss menu and comparator class (omni_gap)."""
    X, y, V = _buckets(mix, test)
    return omni_gap("dsomni", X, y, V, mix.grid.points, hc, losses, _HOW)
