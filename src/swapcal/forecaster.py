"""Forecaster: a grid of online Newton learners tied together by a
column-stochastic fixed point.

Per round, each grid cell's learner proposes a value in [0, 1], the proposal
is rounded onto the two neighboring grid points (mean-preserving), the
resulting columns form a column-stochastic matrix Q_t, and the committed
conditional distribution P_t is its stationary fixed point Q_t P_t = P_t.
The realized prediction is sampled from P_t; each learner i is then fed the
squared loss scaled by its own stationary weight P_t(i).

Everything except the sampling is deterministic: the learner updates read
P_t, not the sampled draw, so the conditional-distribution trajectory is a
function of the input stream alone.

Randomness contract: a single 64-bit seed feeds numpy's SeedSequence; child 0
of the root sequence drives the PCG64 generator used for prediction sampling,
child 1 is reserved for the adversary (see the harness module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (JSONL_BLOCK, MEMBER_CAP, Grid, Transcript, as_context,
                   as_int, validate_outcome, validate_stream)
from .errors import PreconditionError, ResourceLimitError
from .linalg import stationary_solve
from .ons import OMEGA, ons_kernel, ons_step


def seed_streams(seed):
    """Split a seed into (forecaster, adversary) SeedSequence children."""
    return tuple(np.random.SeedSequence(seed).spawn(2))


@dataclass(frozen=True)
class RoundOutput:
    """One committed round before the outcome arrives: the conditional
    distribution over grid points, the full column-stochastic matrix, and
    the sampled grid index."""

    cond_dist: np.ndarray
    q_matrix: np.ndarray
    sampled_index: int


def rround(w, grid):
    """Round w in [0, 1] onto the grid: a 2-sparse distribution on the
    neighboring grid points with mean exactly w. Grid points map to point
    masses; w = 1 maps to the point mass on the last grid point.

    A scalar w gives one vector of length n+1; an array w of shape (..., K)
    gives the (..., n+1, K) stack whose columns are the roundings of its
    entries.
    """
    w = np.asarray(w, dtype=float)
    if not (w.min(initial=0.0) >= 0.0 and w.max(initial=1.0) <= 1.0):
        ok = (w >= 0.0) & (w <= 1.0)  # NaN fails both
        raise ValueError(f"value {w[~ok].flat[0]} outside [0, 1]")
    return _round(w, grid.n)


def round_split(w, n):
    """Grid indices k <= n and upper weights f in [0, 1): w = (k + f) / n."""
    k = np.minimum((w * n).astype(int), n)
    return k, w * n - k


def _round(w, n):
    """rround of a float w in [0, 1], unchecked."""
    idx, frac = round_split(w.ravel(), n)
    rows = np.arange(len(idx))
    # row k rounds entry k; the spare cell n+1 takes w = 1's zero weight
    q = np.zeros(w.shape + (n + 2,))
    flat = q.reshape(-1, n + 2)
    flat[rows, idx] = 1.0 - frac
    flat[rows, idx + 1] = frac
    return q[:n + 1] if w.ndim == 0 else q[..., :n + 1].swapaxes(-1, -2)


def commit_round(thetas, x, grid):
    """The commitment of the learners with parameter stack thetas (K, d) on
    context x, shape (d,) or (M, d): the clamped proposals w (..., K), the
    column-stochastic rounding matrices Q = rround(w) (..., K, K) and their
    stationary distributions P = QP (..., K). Returns (w, Q, P); a NaN
    proposal raises rround's ValueError. Q, column-stochastic by
    construction, is solved unchecked (stationary_solve), residual checked."""
    w = np.minimum(np.maximum((thetas @ x[..., None])[..., 0], 0.0), 1.0)
    if np.isnan(w.sum()):  # the clamp keeps NaN
        raise ValueError("value nan outside [0, 1]")
    Q = _round(w, grid.n)
    return w, Q, stationary_solve(Q)


def sample_cell(P, u):
    """The grid cell each row of P (..., K) draws with the uniform u (...):
    searchsorted(cumsum(P), u, "right"), clipped to the last cell."""
    hits = P.cumsum(axis=-1) <= np.asarray(u)[..., None]
    return np.minimum(hits.sum(axis=-1), P.shape[-1] - 1)


class BmForecaster:
    """Grid of per-cell learners reduced to a single forecaster.

    Owns n+1 online Newton learners, one per grid point, as the stacks thetas
    (K, d) and inv_curvatures (K, d, d), the update count rounds_seen and the
    sampling generator; d and seed follow as_int. predict() commits and
    samples a conditional distribution. update(), one client's per-cell
    path, and a run (run_lockstep) swap in fresh stacks, all or nothing."""

    def __init__(self, grid, d, seed=0):
        if not isinstance(grid, Grid):
            raise ValueError("grid must be a Grid")
        self.d = d = as_int(d, "dimension", 1)
        self.seed = seed = as_int(seed, "seed", 0)
        if grid.size ** 2 > MEMBER_CAP:
            raise ResourceLimitError(f"N = {grid.n} needs over {MEMBER_CAP} "
                                     "rounding-matrix entries a round")
        self.grid = grid
        self.thetas = np.zeros((grid.size, d))
        self.inv_curvatures = np.tile(np.eye(d) / OMEGA, (grid.size, 1, 1))
        self.rounds_seen = 0
        self.rng = np.random.Generator(np.random.PCG64(seed_streams(seed)[0]))

    def predict(self, x):
        """Commit this round's conditional distribution for context x and
        sample a grid index from it."""
        _, Q, P = commit_round(self.thetas, as_context(x, self.d), self.grid)
        return RoundOutput(P, Q, int(sample_cell(P, self.rng.random())))

    def update(self, out, y, x):
        """Advance every learner on (x, y), learner i scaled by its
        stationary weight out.cond_dist[i], in ascending cell order, into
        fresh stacks that replace the old ones once every cell is done. x, y
        and out.cond_dist (K weights in [0, 1]) are checked first, once."""
        x, y = as_context(x, self.d), validate_outcome(y)
        P = np.asarray(out.cond_dist, dtype=float)
        if P.shape != (self.grid.size,) or not 0 <= P.min() <= P.max() <= 1:
            raise ValueError(f"cond_dist of shape {P.shape} is not "
                             f"{self.grid.size} weights in [0, 1]")
        thetas = np.empty_like(self.thetas)
        invs = np.empty_like(self.inv_curvatures)
        for i, (theta, inv, p) in enumerate(zip(
                self.thetas, self.inv_curvatures, P.tolist())):
            thetas[i], invs[i] = ons_step(theta, inv, x, p, y)
        self.thetas, self.inv_curvatures = thetas, invs
        self.rounds_seen += 1


def run_online(forecaster, stream):
    """Run the forecaster over a stream (X, y), contexts X float (T, d) and
    outcomes y int (T,), and record the transcript its JSONL file holds:
    run_lockstep with one forecaster."""
    return run_lockstep([forecaster], [stream])[0]


def run_lockstep(forecasters, streams):
    """Run R forecasters that share a grid and d over R streams (X, y) of
    one length by lockstep_rounds and return one transcript per forecaster,
    bit for bit the one it would record alone. Then each rng draws its T
    uniforms at once (on PCG64 the T scalar draws) and sample_cell samples
    P JSONL_BLOCK rounds at a time; a raise writes and draws nothing."""
    R, K = len(forecasters), forecasters[0].grid.size
    P = np.fromiter((Pt for *_, Pt in lockstep_rounds(forecasters, streams)),
                    np.dtype((float, (R, K))))
    P = np.ascontiguousarray(P.swapaxes(0, 1))  # (R, T, K)
    u = np.array([fc.rng.random(P.shape[1]) for fc in forecasters])
    pi = np.zeros(u.shape, dtype=int)
    for t0 in range(0, P.shape[1], JSONL_BLOCK):
        block = slice(t0, t0 + JSONL_BLOCK)
        pi[:, block] = sample_cell(P[:, block], u[:, block])
    return [Transcript(fc.grid, X, P[r], pi[r], y, seed=fc.seed)
            for r, (fc, (X, y)) in enumerate(zip(forecasters, streams))]


def lockstep_rounds(forecasters, streams):
    """The round loop: advance R forecasters that share a grid and d over R
    streams (X, y) of one length together, each stream validated once.

    A round runs one commit_round on the (R, K, d) parameter stack, yields
    (thetas (R, K, d), w (R, K), P (R, K)), arrays no later round writes to,
    and advances all R K learners by one ons_kernel call (its inputs valid by
    the stream checks and P); no rng is touched (run_lockstep samples). A run
    is all-or-nothing: after the last round, unless a forecaster's stacks were
    replaced since the first (new thetas, an update call), which raises
    PreconditionError, each forecaster takes its rows of the final stacks and
    adds T to rounds_seen. A run that raises, is closed early or has no rounds
    writes nothing. R K^2 rounding-matrix entries a round over MEMBER_CAP raise
    ResourceLimitError before the first."""
    grid, d = forecasters[0].grid, forecasters[0].d
    if any(fc.grid != grid or fc.d != d for fc in forecasters):
        raise ValueError("lockstep forecasters must share a grid and d")
    if len(forecasters) * grid.size ** 2 > MEMBER_CAP:
        raise ResourceLimitError(f"{len(forecasters)} forecasters at N = "
                                 f"{grid.n} need over {MEMBER_CAP} "
                                 "rounding-matrix entries a round")
    if len(streams) != len(forecasters):
        raise ValueError(f"{len(forecasters)} forecasters but "
                         f"{len(streams)} streams")
    streams = [validate_stream(s, d) for s in streams]
    if len({len(y) for _, y in streams}) > 1:
        raise ValueError("lockstep streams must have one length")
    # round-major (T, R, ...) float inputs, with a cell axis for the kernel
    X, Y = (np.stack(a, axis=1)[:, :, None].astype(float)
            for a in zip(*streams))
    rows = [(fc.thetas, fc.inv_curvatures) for fc in forecasters]
    thetas, invs = (np.array(stack) for stack in zip(*rows))
    for x, yt in zip(X, Y):
        w, _, P = commit_round(thetas, x[:, 0], grid)
        yield thetas, w, P
        thetas, invs = ons_kernel(thetas, invs, x, P, yt)
    if not len(X):
        return
    if any(fc.thetas is not theta or fc.inv_curvatures is not inv
           for fc, (theta, inv) in zip(forecasters, rows)):
        raise PreconditionError("learners replaced during lockstep_rounds")
    for fc, theta, inv in zip(forecasters, thetas, invs):
        fc.thetas, fc.inv_curvatures = theta, inv
        fc.rounds_seen += len(X)


def choose_n(T, d, objective):
    """Grid resolution for a horizon-T run in dimension d.

    Calibration and omniprediction objectives use round((T / (d ln T))^{1/3});
    the contextual swap regret objective uses exponent 1/5. Clamped to >= 1.
    T >= 1 and d >= 1 follow as_int.
    """
    T, d = as_int(T, "horizon", 1), as_int(d, "dimension", 1)
    if objective in ("smcal", "somni"):
        expo = 1.0 / 3.0
    elif objective == "sreg":
        expo = 1.0 / 5.0
    else:
        raise ValueError(f"unknown objective {objective!r}")
    if T == 1:
        return 1
    return max(1, round((T / (d * math.log(T))) ** expo))
