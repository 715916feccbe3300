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

import json

import numpy as np

from .core import (Grid, affine_restricted, linear_ball, make_grid,
                   validate_stream)
from .errors import FormatError
from .forecaster import BmForecaster, commit_round, sample_cell
from .metrics import (DEFAULT_LOSSES, MetricReport, per_cell_omni_gap,
                      sup_calibration, swap_regret)

COMMIT_CHUNK = 1024  # test points per batched commit: bounds solver memory


class MixturePredictor:
    """Uniform mixture over per-round snapshots of the online forecaster,
    held as their parameter stacks thetas (S, K, d)."""

    def __init__(self, grid, thetas, seed=None, stride=1):
        if not isinstance(grid, Grid):
            raise ValueError("grid must be a Grid")
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 3 or not len(thetas) or thetas.shape[1] != grid.size:
            raise ValueError(f"thetas must have shape (S >= 1, {grid.size}, d),"
                             f" got {thetas.shape}")
        self.grid = grid
        self.thetas = thetas
        self.d = thetas.shape[2]
        self.seed = seed
        self.stride = int(stride)

    @property
    def size(self):
        return len(self.thetas)

    def cond_dist(self, t, X):
        """Conditional distribution over grid points that snapshot t commits
        to on context X, shape (d,), or on each row of X, shape (M, d)
        (deterministic)."""
        return commit_round(self.thetas[t], np.asarray(X, dtype=float),
                            self.grid)[2]


def train_mixture(stream, n, seed=0, stride=1):
    """Run the online forecaster over the stream (X, y) and keep every
    stride-th start-of-round snapshot; the mixture is uniform over the kept
    snapshots. The context dimension is X.shape[1]."""
    X, y = validate_stream(stream)
    if not len(y):
        raise ValueError("cannot train a mixture on an empty stream")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    fc = BmForecaster(make_grid(n), X.shape[1], seed=seed)
    snaps = []
    for t, (x, yt) in enumerate(zip(X, y)):
        if t % stride == 0:
            snaps.append(fc.thetas)
        fc.update(fc.predict(x), int(yt), x)
    return MixturePredictor(fc.grid, snaps, seed=seed, stride=stride)


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
# serialization (versioned JSON, no binary blobs)


def mixture_to_json(mix, path):
    """Write the mixture as a version-2 document: n, d, seed, stride and the
    (S, K, d) parameter stack."""
    doc = {"version": 2, "n": mix.grid.n, "d": mix.d, "seed": mix.seed,
           "stride": mix.stride, "thetas": mix.thetas.tolist()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def mixture_from_json(path):
    """Read a version-2 document, or a version-1 one (per-snapshot learner
    records, of which only theta is read)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    try:
        if doc["version"] == 1:
            thetas = [[st["theta"] for st in s["learners"]]
                      for s in doc["snapshots"]]
        elif doc["version"] == 2:
            thetas = doc["thetas"]
        else:
            raise FormatError(f"{path}: unsupported mixture version "
                              f"{doc['version']}")
        mix = MixturePredictor(make_grid(int(doc["n"])),
                               np.asarray(thetas, dtype=float),
                               seed=doc.get("seed"),
                               stride=int(doc.get("stride", 1)))
        if mix.d != int(doc["d"]):
            raise ValueError(f"thetas have dimension {mix.d}, header says "
                             f"{doc['d']}")
        return mix
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"{path}: malformed mixture document: {exc}") from exc


# ---------------------------------------------------------------------------
# distributional estimators


def _buckets(mix, test, mc_draws, seed):
    """The test stream (X, y) checked against the mixture, y as float, its
    bucket weights V and how V was made."""
    X, y = validate_stream(test, mix.d)
    if not len(y):
        raise ValueError("test sample must be non-empty")
    V, how = _bucket_weights(mix, X, mc_draws, seed)
    return X, y.astype(float), V, how


def _snapshot_dists(mix, t, X):
    """Snapshot t's conditional distributions on the rows of X, (M, n+1),
    committed COMMIT_CHUNK rows at a time."""
    return np.concatenate([mix.cond_dist(t, X[i:i + COMMIT_CHUNK])
                           for i in range(0, len(X), COMMIT_CHUNK)])


def _bucket_weights(mix, X, mc_draws, seed):
    """Joint weight matrix V (n+1, M) over (cell, test point).

    mc_draws=None averages every snapshot's conditional cell weights over
    the test points exactly (total mass 1); an integer runs that many
    Monte-Carlo draws of (test point, snapshot, uniform), made in that order
    and then committed one snapshot at a time.
    """
    M = len(X)
    V = np.zeros((mix.grid.size, M))
    if mc_draws is None:
        for t in range(mix.size):
            V += _snapshot_dists(mix, t, X).T
        V /= mix.size * M
        return V, "exhaustive enumeration over snapshots x test points"
    if mc_draws < 1:
        raise ValueError("mc_draws must be positive (or None for exhaustive)")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    draws = int(mc_draws)
    xi, snap, u = np.array([(rng.integers(M), select_snapshot(mix, rng),
                             rng.random()) for _ in range(draws)]).T
    xi, snap = xi.astype(int), snap.astype(int)
    for t in np.unique(snap):
        mine = snap == t
        points, back = np.unique(xi[mine], return_inverse=True)
        cells = sample_cell(_snapshot_dists(mix, t, X[points])[back], u[mine])
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


def estimate_dsomni(mix, test, losses=None, hc=None, mc_draws=None, seed=0,
                    iters=500, restarts=0):
    """Distributional swap omniprediction gap of the mixture on a test
    sample, over a loss menu and comparator class."""
    losses = list(DEFAULT_LOSSES) if losses is None else list(losses)
    hc = affine_restricted() if hc is None else hc
    X, y, V, how = _buckets(mix, test, mc_draws, seed)
    masses = V.sum(axis=1)
    rng = np.random.default_rng(seed + 1)
    gaps, _, note = per_cell_omni_gap(X, y, V, mix.grid.points, losses, hc,
                                      iters=iters, restarts=restarts, rng=rng)
    value = float(np.sum(gaps[masses > 0]))
    menu = ",".join(l.name for l in losses)
    return MetricReport(
        "dsomni", value, hc.descriptor(),
        f"{how}; loss menu [{menu}]; {note}; per-cell masses in extras",
        extras={"per_cell_mass": masses})
