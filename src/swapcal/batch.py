"""Online-to-batch conversion: uniform mixtures over per-round predictor
snapshots, and Monte-Carlo estimators of their distributional guarantees.

A trained mixture keeps the learners' parameter stack, thetas (S, K, d):
snapshot k is taken at the start of round 1 + k * stride. Prediction draws a
snapshot uniformly, commits its conditional distribution for the query
context, and samples a grid point from it.

The distributional estimators bucket draws by sampled cell and apply the
plug-in empirical supremum over each bucket; reports label the estimates as
plug-in and carry per-cell masses in their extras.

Training and test streams are one pair of arrays (X, y): contexts X float
(T, d), outcomes y int (T,), as generate_stream returns them.
"""

from __future__ import annotations

import numpy as np

from .core import (MEMBER_CAP, Grid, affine_restricted, as_int, linear_ball,
                   make_grid, validate_stream)
from .forecaster import (BmForecaster, commit_round, lockstep_rounds,
                         sample_cell)
from .metrics import (DEFAULT_LOSSES, MetricReport, per_cell_omni_gap,
                      sup_calibration, swap_regret)


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
        to on context X, shape (d,), or on each row of X, shape (M, d),
        max(1, MEMBER_CAP // K^2) rows at a time to bound memory
        (deterministic)."""
        X, thetas = np.asarray(X, dtype=float), self.thetas[t]
        if X.ndim == 1:
            return commit_round(thetas, X, self.grid)[2]
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
    conditional distribution on x. Returns the index; the grid value is
    mix.grid.points[index]."""
    P = mix.cond_dist(select_snapshot(mix, rng), x)
    return int(sample_cell(P, rng.random()))


# ---------------------------------------------------------------------------
# distributional estimators


def _buckets(mix, test, mc_draws, seed):
    """The test stream (X, y) checked against the mixture, y as float, its
    bucket weights V and how V was made; seed follows as_int."""
    X, y = validate_stream(test, mix.d)
    if not len(y):
        raise ValueError("test sample must be non-empty")
    V, how = _bucket_weights(mix, X, mc_draws, as_int(seed, "seed", 0))
    return X, y.astype(float), V, how


def _bucket_weights(mix, X, mc_draws, seed):
    """Joint weight matrix V (n+1, M) over (cell, test point).

    mc_draws=None averages every snapshot's conditional cell weights over
    the test points exactly (total mass 1); an as_int >= 1 runs that many
    Monte-Carlo draws of (test point, snapshot, uniform), drawn as three
    arrays in that order and then committed one snapshot at a time.
    """
    M = len(X)
    V = np.zeros((mix.grid.size, M))
    if mc_draws is None:
        for t in range(mix.size):
            V += mix.cond_dist(t, X).T
        V /= mix.size * M
        return V, "exhaustive enumeration over snapshots x test points"
    draws = as_int(mc_draws, "mc_draws", 1)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    xi = rng.integers(M, size=draws)
    snap = rng.integers(mix.size, size=draws)
    u = rng.random(draws)
    for t in np.unique(snap):
        mine = snap == t
        points, back = np.unique(xi[mine], return_inverse=True)
        cells = sample_cell(mix.cond_dist(t, X[points])[back], u[mine])
        np.add.at(V, (cells, xi[mine]), 1.0)
    V /= draws
    return V, f"plug-in Monte-Carlo, {draws} draws"


def estimate_saerr(mix, test, hc=None, mc_draws=None, seed=0):
    """Swap agnostic-learning error of the mixture on a test sample: per
    sampled cell, the squared loss of the cell value minus the best
    comparator fit on that bucket, averaged over draws."""
    hc = linear_ball(4.0) if hc is None else hc
    X, y, V, how = _buckets(mix, test, mc_draws, seed)
    value, _, masses, note = swap_regret(X, y, V, mix.grid.points, hc)
    return MetricReport(
        "saerr", value, hc.descriptor(),
        f"{how}; {note}; per-cell masses in extras",
        extras={"per_cell_mass": masses})


def estimate_dsmcal(mix, test, hc=None, q=2, mc_draws=None, seed=0):
    """Distributional swap multicalibration of the mixture: bucket draws by
    sampled cell, take the per-bucket supremum of the mean context-weighted
    residual, and average cell-frequency-weighted."""
    hc = linear_ball(1.0) if hc is None else hc
    X, y, V, how = _buckets(mix, test, mc_draws, seed)
    value, _, masses, note = sup_calibration(X, y, V, mix.grid.points, hc, q)
    return MetricReport(
        f"dsmcal{q}", value, hc.descriptor(),
        f"{how}; {note}; per-cell masses in extras",
        extras={"per_cell_mass": masses})


def estimate_dsomni(mix, test, losses=None, hc=None, mc_draws=None, seed=0):
    """Distributional swap omniprediction gap of the mixture on a test
    sample, over a loss menu and comparator class."""
    losses = list(DEFAULT_LOSSES) if losses is None else list(losses)
    hc = affine_restricted() if hc is None else hc
    X, y, V, how = _buckets(mix, test, mc_draws, seed)
    masses = V.sum(axis=1)
    gaps, _, note = per_cell_omni_gap(X, y, V, mix.grid.points, losses, hc)
    value = float(np.sum(gaps[masses > 0]))
    menu = ",".join(l.name for l in losses)
    return MetricReport(
        "dsomni", value, hc.descriptor(),
        f"{how}; loss menu [{menu}]; {note}; per-cell masses in extras",
        extras={"per_cell_mass": masses})
