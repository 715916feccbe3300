"""Online-to-batch conversion: uniform mixtures over per-round predictor
snapshots, and Monte-Carlo estimators of their distributional guarantees.

A trained mixture keeps the learner states frozen at the start of every round
(states are immutable, so snapshots are plain references). Prediction draws a
snapshot uniformly, rebuilds that round's conditional distribution for the
query context, and samples a grid point from it.

The distributional estimators bucket draws by sampled cell and apply the
plug-in empirical supremum over each bucket; reports label the estimates as
plug-in and carry per-cell masses in their extras.

Training and test streams are one pair of arrays (X, y): contexts X float
(T, d), outcomes y int (T,), as generate_stream returns them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import (Grid, affine_restricted, linear_ball, make_grid,
                   validate_stream)
from .errors import FormatError
from .forecaster import BmForecaster, commit_round
from .metrics import (DEFAULT_LOSSES, MetricReport, per_cell_min_squared,
                      per_cell_omni_gap, per_cell_sup_numerators)
from .ons import OnsState
from . import metrics as _metrics


@dataclass(frozen=True)
class PredictorSnapshot:
    """Learner states frozen at the start of a round (1-based)."""

    round_index: int
    learners: tuple


class MixturePredictor:
    """Uniform mixture over per-round snapshots of the online forecaster."""

    def __init__(self, grid, d, snapshots, seed=None, stride=1):
        if not isinstance(grid, Grid):
            raise ValueError("grid must be a Grid")
        if not snapshots:
            raise ValueError("mixture needs at least one snapshot")
        self.grid = grid
        self.d = int(d)
        self.snapshots = list(snapshots)
        self.seed = seed
        self.stride = int(stride)

    @property
    def size(self):
        return len(self.snapshots)

    def cond_dist(self, t, x):
        """Conditional distribution over grid points that snapshot t commits
        to on context x (deterministic)."""
        return commit_round(self.snapshots[t].learners, x, self.grid)[2]


def train_mixture(stream, n, seed=0, stride=1):
    """Run the online forecaster over the stream (X, y) and keep every
    stride-th start-of-round snapshot; the mixture is uniform over the kept
    snapshots. The context dimension is X.shape[1]."""
    X, y = validate_stream(stream)
    if not len(y):
        raise ValueError("cannot train a mixture on an empty stream")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    d = X.shape[1]
    grid = make_grid(n)
    fc = BmForecaster(grid, d, seed=seed)
    snaps = []
    for t in range(len(y)):
        x = X[t]
        if t % stride == 0:
            snaps.append(PredictorSnapshot(round_index=t + 1,
                                           learners=tuple(fc.learners)))
        out = fc.predict(x)
        fc.update(out, int(y[t]), x)
    return MixturePredictor(grid, d, snaps, seed=seed, stride=stride)


def select_snapshot(mix, rng):
    """Uniform snapshot index draw; split out so the selection distribution
    is testable on its own."""
    return int(rng.integers(mix.size))


def mixture_predict(mix, x, rng):
    """Sample a grid index: uniform snapshot, then a draw from its
    conditional distribution on x. Returns the index; the grid value is
    mix.grid.points[index]."""
    x = np.asarray(x, dtype=float)
    t = select_snapshot(mix, rng)
    P = mix.cond_dist(t, x)
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(P), u, side="right"))
    return min(idx, mix.grid.n)


# ---------------------------------------------------------------------------
# serialization (versioned JSON, no binary blobs)


def mixture_to_json(mix, path):
    doc = {
        "version": 1,
        "n": mix.grid.n,
        "d": mix.d,
        "T": mix.size,
        "seed": mix.seed,
        "stride": mix.stride,
        "snapshots": [
            {"round": s.round_index,
             "learners": [
                 {"theta": [float(v) for v in st.theta],
                  "inv_curvature": [[float(v) for v in row]
                                    for row in st.inv_curvature],
                  "rounds_seen": st.rounds_seen}
                 for st in s.learners]}
            for s in mix.snapshots],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def mixture_from_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    try:
        if doc["version"] != 1:
            raise FormatError(f"{path}: unsupported mixture version "
                              f"{doc['version']}")
        grid = make_grid(int(doc["n"]))
        d = int(doc["d"])
        snaps = []
        for s in doc["snapshots"]:
            learners = tuple(
                OnsState(theta=np.asarray(st["theta"], dtype=float),
                         inv_curvature=np.asarray(st["inv_curvature"],
                                                  dtype=float),
                         rounds_seen=int(st["rounds_seen"]))
                for st in s["learners"])
            snaps.append(PredictorSnapshot(round_index=int(s["round"]),
                                           learners=learners))
        return MixturePredictor(grid, d, snaps, seed=doc.get("seed"),
                                stride=int(doc.get("stride", 1)))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"{path}: malformed mixture document: {exc}") from exc


# ---------------------------------------------------------------------------
# distributional estimators


def _test_arrays(mix, test):
    """The test stream (X, y) checked against the mixture, y as float."""
    X, y = validate_stream(test, mix.d)
    if not len(y):
        raise ValueError("test sample must be non-empty")
    return X, y.astype(float)


def _bucket_weights(mix, X, mc_draws, seed):
    """Joint weight matrix V (n+1, M) over (cell, test point).

    mc_draws=None enumerates all snapshot/test pairs with exact conditional
    cell weights (total mass 1); an integer runs that many Monte-Carlo draws
    of (test point, snapshot, sampled cell), caching conditional
    distributions per (snapshot, test point) pair.
    """
    M = len(X)
    n = mix.grid.n
    V = np.zeros((n + 1, M))
    if mc_draws is None:
        for t in range(mix.size):
            for xi in range(M):
                V[:, xi] += mix.cond_dist(t, X[xi])
        V /= mix.size * M
        return V, "exhaustive enumeration over snapshots x test points"
    if mc_draws < 1:
        raise ValueError("mc_draws must be positive (or None for exhaustive)")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    cache = {}
    for _ in range(int(mc_draws)):
        xi = int(rng.integers(M))
        t = select_snapshot(mix, rng)
        key = (t, xi)
        if key not in cache:
            cache[key] = np.cumsum(mix.cond_dist(t, X[xi]))
        cum = cache[key]
        cell = min(int(np.searchsorted(cum, rng.random(), side="right")), n)
        V[cell, xi] += 1.0
    V /= mc_draws
    return V, f"plug-in Monte-Carlo, {int(mc_draws)} draws"


def estimate_saerr(mix, test, hc=None, mc_draws=None, seed=0):
    """Swap agnostic-learning error of the mixture on a test sample: per
    sampled cell, the squared loss of the cell value minus the best
    comparator fit on that bucket, averaged over draws."""
    hc = linear_ball(4.0) if hc is None else hc
    X, y = _test_arrays(mix, test)
    V, how = _bucket_weights(mix, X, mc_draws, seed)
    z = mix.grid.points
    learner = np.sum(V * (z[:, None] - y[None, :]) ** 2, axis=1)
    mins, note = per_cell_min_squared(X, y, V, hc)
    masses = V.sum(axis=1)
    nz = masses > 0
    value = float(np.sum(learner[nz] - mins[nz]))
    return MetricReport(
        "saerr", value, hc.descriptor(),
        f"{how}; squared loss; {note}; per-cell masses in extras",
        extras={"per_cell_mass": masses})


def estimate_dsmcal(mix, test, hc=None, q=2, mc_draws=None, seed=0):
    """Distributional swap multicalibration of the mixture: bucket draws by
    sampled cell, take the per-bucket supremum of the mean context-weighted
    residual, and average cell-frequency-weighted."""
    _metrics._check_q(q)
    hc = linear_ball(1.0) if hc is None else hc
    X, y = _test_arrays(mix, test)
    V, how = _bucket_weights(mix, X, mc_draws, seed)
    num, note = per_cell_sup_numerators(X, y, V, mix.grid.points, hc)
    masses = V.sum(axis=1)
    nz = masses > 0
    value = float(np.sum(masses[nz] * (num[nz] / masses[nz]) ** q))
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
    X, y = _test_arrays(mix, test)
    V, how = _bucket_weights(mix, X, mc_draws, seed)
    rng = np.random.default_rng(seed + 1)
    gaps, _, note = per_cell_omni_gap(X, y, V, mix.grid.points, losses, hc,
                                      iters=iters, restarts=restarts, rng=rng)
    masses = V.sum(axis=1)
    value = float(np.sum(gaps[masses > 0]))
    menu = ",".join(l.name for l in losses)
    return MetricReport(
        "dsomni", value, hc.descriptor(),
        f"{how}; loss menu [{menu}]; {note}; per-cell masses in extras",
        extras={"per_cell_mass": masses})
