"""Calibration, swap-regret, and omniprediction metrics over transcripts.

All metrics share the same skeleton: bucket rounds by grid cell, weight them
either by the realized predictions (indicator weights) or by the committed
conditional distributions (pseudo weights), and take per-cell suprema over a
comparator class. Every closed-form metric reads a transcript only through
per-cell sums (cell_sums): every ball class is one map offset + scale
<theta, x> over ||theta|| <= radius with closed-form suprema (support
function, constrained least squares); finite and cover classes, theta
stacks, go member by member, a fixed budget of table entries (member x
cell, and member x point for the omniprediction gap) at a time.
Every report discloses in its notes which evaluation set was actually used.

Conventions: ball suprema are exact over the stated theta radius, which for
the bounded-function families is the certified inner ball of the sandwich
containment; covers cap their enumeration at MEMBER_CAP members.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import (COND_DIST_TOL, LossSpec, absolute_loss, affine_restricted,
                   as_int, cover_thetas, squared_loss, vshaped_loss)
from .errors import NumericFailure, PreconditionError, ResourceLimitError
from .forecaster import BmForecaster, lockstep_rounds, round_split
from .linalg import ridge_to_sphere

#: table entries per chunk of an enumerated class's members (their cells,
#: and for the omniprediction table their points too): bounds the tables'
#: temporaries at a few (OMNI_CHUNK,) float arrays, whatever M x K x T is
OMNI_CHUNK = 2 ** 20

#: projected subgradient steps of the affine omniprediction comparator
OMNI_ITERS = 500

#: default loss menu for omniprediction reports
DEFAULT_LOSSES = (squared_loss(), absolute_loss(),
                  vshaped_loss(0.25), vshaped_loss(0.5), vshaped_loss(0.75))


@dataclass
class MetricReport:
    """A metric value plus full disclosure of how it was evaluated.

    extras carries auxiliary arrays (per-cell masses and the like); the JSON
    form is exactly the four keys name/value/class/notes.
    """

    name: str
    value: float
    class_descriptor: str
    notes: str
    extras: dict = field(default_factory=dict)

    def as_dict(self):
        return {"name": self.name, "value": self.value,
                "class": self.class_descriptor, "notes": self.notes}

    def to_json(self):
        return json.dumps(self.as_dict())


def realized_weights(tr):
    """Indicator weight matrix (T, n+1): one-hot rows at the sampled cells."""
    W = np.zeros((tr.horizon, tr.grid.size))
    W[np.arange(tr.horizon), tr.sampled_indices] = 1.0
    return W


# ---------------------------------------------------------------------------
# per-cell sums and the kernels shared with the batch estimators
#
# CW is a (n_cells, T) matrix of nonnegative weights: row c weights the
# rounds (or test points) attributed to cell c.


@dataclass(frozen=True)
class CellSums:
    """Per-cell weighted moments of the residuals r_ct = y_t - z_c, with
    weights w_ct = CW[c, t]: mass = sum_t w_ct, S = sum_t w_ct r_ct and
    SS = sum_t w_ct r_ct^2, each (n_cells,); R = sum_t w_ct r_ct x_t,
    (n_cells, d); A = sum_t w_ct x_t x_t^T, (n_cells, d, d)."""

    mass: np.ndarray
    S: np.ndarray
    SS: np.ndarray
    R: np.ndarray
    A: np.ndarray


def cell_sums(X, y, CW, z):
    """The CellSums of the stream (X, y) under cell weights CW (n_cells, T)
    and cell values z (n_cells,)."""
    r = y[None, :] - z[:, None]
    E = CW * r
    # one (n_cells, d) row block of A per coordinate: temporaries the size of
    # CW, never (T, d, d)
    return CellSums(mass=CW.sum(axis=1), S=E.sum(axis=1),
                    SS=np.sum(E * r, axis=1), R=E @ X,
                    A=np.stack([(CW * x) @ X for x in X.T], axis=1))


def _members(hc, d):
    """Theta stack (M, d) of a finite or cover class in dimension d, plus a
    note."""
    if hc.kind == "cover":
        thetas = cover_thetas(hc.epsilon, hc.radius, d)
        return thetas, (f"enumerated over {len(thetas)} cover members "
                        f"(eps={hc.epsilon:g}, r={hc.radius:g})")
    if hc.thetas.shape[1] != d:
        raise ValueError(f"finite class thetas have dimension "
                         f"{hc.thetas.shape[1]}, the contexts have d = {d}")
    return hc.thetas, f"enumerated over {len(hc.thetas)} finite members"


def _chunks(thetas, width):
    """Row blocks of thetas, OMNI_CHUNK // width rows each (at least 1)."""
    step = max(1, OMNI_CHUNK // max(width, 1))
    return (thetas[i:i + step] for i in range(0, len(thetas), step))


def per_cell_sup_numerators(X, y, CW, zvals, hc):
    """sup_f | sum_t CW[c,t] f(x_t) (y_t - z_c) | for every cell c.

    Returns (numerators, note): offset |S_c| + scale r ||R_c|| for a ball
    class's offset + scale <theta, x> over ||theta|| <= r, the largest
    |<theta, R_c>| over an enumerated class's members.
    """
    s = cell_sums(X, y, CW, zvals)
    if hc.enumerated:
        thetas, note = _members(hc, X.shape[1])
        sups = np.zeros(len(CW))
        for th in _chunks(thetas, len(CW)):
            np.maximum(sups, np.max(np.abs(th @ s.R.T), axis=0), out=sups)
        return sups, note
    return (hc.offset * np.abs(s.S)
            + hc.scale * hc.radius * np.linalg.norm(s.R, axis=1),
            f"support function, exact over {hc.functions}")


def per_cell_min_squared(X, y, CW, hc):
    """min_f sum_t CW[c,t] (f(x_t) - y_t)^2 for every cell. Empty cells get 0.

    On cell c, theta's loss is theta^T A_c theta - 2 theta^T R_c + SS_c, from
    the sums of scale X with z = offset: balls take its minimizer
    ridge_to_sphere(A_c, R_c, r), enumerated classes its least value over
    their members.
    """
    K = len(CW)
    s = cell_sums(hc.scale * X, y, CW, np.full(K, hc.offset))
    if hc.enumerated:
        thetas, note = _members(hc, X.shape[1])
    else:
        note = f"constrained least squares over {hc.functions}"
    mins = np.zeros(K)
    for c in np.flatnonzero(s.mass > 0):
        th = thetas if hc.enumerated else \
            ridge_to_sphere(s.A[c], s.R[c], hc.radius)[None, :]
        loss = np.sum((th @ s.A[c]) * th, axis=1) - 2.0 * (th @ s.R[c])
        mins[c] = np.min(loss) + s.SS[c]
    return mins, note


def per_cell_omni_gap(X, y, CW, zvals, losses, hc):
    """Per cell: max over the loss menu of
    (post-processed learner loss) - (best-in-class loss), both CW-weighted.

    Returns (gaps (n_cells,), achieved comparator losses (n_cells, losses),
    note); empty cells get 0. The loss menu must be non-empty and hold
    LossSpec entries, and its custom-convex losses must pass certify().
    Enumerated classes fill the comparator table by _least_member_losses.
    A ball class's inner minimization is _min_ball_losses: projected
    subgradient descent from theta = 0 (step 1/sqrt(k), best-iterate
    tracking) that stops at a zero subgradient, so a V-shaped loss, whose
    derivative is 0, stays at theta = 0. Linear balls, whose functions
    leave [0, 1], are refused.
    """
    if not losses:
        raise ValueError("loss menu must be non-empty")
    for loss in losses:
        if not isinstance(loss, LossSpec):
            raise ValueError(f"loss menu entries must be LossSpec, got {loss!r}")
        if loss.kind == "custom-convex":
            loss.certify()
    if hc.kind == "linear-ball":
        raise ValueError(
            f"omniprediction comparator must be affine-restricted or an "
            f"enumerable class, got {hc.kind}")
    nz = CW.sum(axis=1) > 0
    if hc.enumerated:
        thetas, note = _members(hc, X.shape[1])
        achieved = _least_member_losses(thetas, X, y, CW, losses)
    else:
        note = (f"inner minimization by projected subgradient descent "
                f"({OMNI_ITERS} iterations from theta = 0, step 1/sqrt(k); "
                "stops at a zero subgradient, so V-shaped losses stay at "
                "theta = 0)")
        achieved = np.zeros((len(CW), len(losses)))
        achieved[nz] = _min_ball_losses(losses, X, CW[nz], y, hc)
    achieved[~nz] = 0.0
    learner = np.empty_like(achieved)
    for j, loss in enumerate(losses):
        k = np.array([loss.post_process(z) for z in zvals])
        learner[:, j] = np.sum(CW * loss(k[:, None], y), axis=1)
    gaps = np.where(nz, np.max(learner - achieved, axis=1), 0.0)
    return gaps, achieved, note


def _least_member_losses(thetas, X, y, CW, losses):
    """(n_cells, losses) table of min over members m of
    sum_t CW[c, t] loss(<theta_m, x_t>, y_t), one chunk of members (of T +
    n_cells entries each) at a time: never the (M, T) or (M, n_cells) one."""
    best = np.full((len(CW), len(losses)), np.inf)
    for th in _chunks(thetas, len(X) + len(CW)):
        vals = th @ X.T
        for j, loss in enumerate(losses):
            np.minimum(best[:, j], np.min(loss(vals, y[None, :]) @ CW.T, axis=0),
                       out=best[:, j])
    return best


def _min_ball_losses(losses, X, W, y, hc):
    """Projected subgradient minimization of the W-weighted loss of the ball
    class hc's f_theta(x) = offset + scale <theta, x> from theta = 0, for
    every row of W (each of positive mass) and every loss: the
    (rows, losses) table of the best objective over OMNI_ITERS steps of size
    1/sqrt(k). Each loss runs one descent that steps all rows together on a
    flat, row-major array of each row's positive-weight points. A row stops
    at an exactly zero subgradient, whose later iterates would all repeat
    it; only the rows still moving are projected."""
    C, d = len(W), X.shape[1]
    rows, cols = np.nonzero(W)
    lens = np.bincount(rows, minlength=C)
    starts = np.cumsum(lens) - lens
    # one row of XT per coordinate of scale x
    XT, yf, wf = hc.scale * X.T[:, cols], y[cols], W[rows, cols]
    wXT = wf * XT
    out = np.empty((C, len(losses)))
    for j, loss in enumerate(losses):
        th = np.zeros((C, d))
        best = np.full(C, np.inf)
        live = np.ones(C, dtype=bool)
        for k in range(1, OMNI_ITERS + 2):
            p = sum((x * np.repeat(t, lens) for x, t in zip(XT, th.T)),
                    hc.offset)
            np.minimum(best, np.add.reduceat(wf * loss(p, yf), starts),
                       out=best)
            if k > OMNI_ITERS:
                break
            dv = loss.deriv(p, yf)
            g = np.column_stack([np.add.reduceat(dv * x, starts) for x in wXT])
            live &= g.any(axis=1)
            if not live.any():
                break
            th -= g / np.sqrt(k)    # a stopped row's g is 0: it stays put
            nrm = np.linalg.norm(th, axis=1)
            th /= np.where(live & (nrm > hc.radius), nrm / hc.radius,
                           1.0)[:, None]
        out[:, j] = best
    return out


# ---------------------------------------------------------------------------
# calibration metrics


def _check_q(q):
    if as_int(q, "moment q", 1) > 2:
        raise ValueError(f"moment q must be 1 or 2, got {q!r}")


def sup_calibration(name, X, y, CW, z, hc, q, how):
    """Report `name`: sum over cells of mass_c * sup_f |rho_{c,f}|^q, rho_{c,f}
    the CW-weighted mean of f(x)(y - z_c) on cell c. how prefixes the notes
    ("" on a transcript). Extras: per_cell_mass and per_cell_sup."""
    _check_q(q)
    mass = CW.sum(axis=1)
    num, note = per_cell_sup_numerators(X, y, CW, z, hc)
    nz = mass > 0
    sups = np.zeros_like(mass)
    sups[nz] = num[nz] / mass[nz]
    return MetricReport(name, float(np.sum(mass[nz] * sups[nz] ** q)),
                        hc.descriptor(),
                        f"{how}{note}; empty cells contribute 0",
                        extras={"per_cell_mass": mass, "per_cell_sup": sups})


def smcal(tr, hc, q=2):
    """Swap multicalibration error: sum over cells of
    count_p * sup_f |rho_{p,f}|^q with realized (indicator) weights."""
    return sup_calibration(f"smcal{q}", tr.contexts, tr.outcomes.astype(float),
                           realized_weights(tr).T, tr.grid.points, hc, q, "")


def psmcal(tr, hc, q=2):
    """Pseudo swap multicalibration error: conditional-distribution weights
    in place of realized indicators."""
    return sup_calibration(f"psmcal{q}", tr.contexts,
                           tr.outcomes.astype(float), tr.cond_dists.T.copy(),
                           tr.grid.points, hc, q, "")


def mcal(tr, hc, q=2):
    """Multicalibration error: a single f across all cells,
    max_f sum_p count_p |rho_{p,f}|^q.

    Ball classes are maximized over an evaluation cover of their theta ball
    (eps = 1/sqrt(T), doubled until the enumeration fits MEMBER_CAP); the
    realized eps is disclosed in the notes.
    """
    _check_q(q)
    X, y, z = tr.contexts, tr.outcomes.astype(float), tr.grid.points
    CW = realized_weights(tr).T
    s = cell_sums(X, y, CW, z)
    nz = s.mass > 0
    if not np.any(nz):
        return MetricReport(f"mcal{q}", 0.0, hc.descriptor(), "empty transcript")
    if hc.enumerated:
        thetas, note = _members(hc, tr.d)
    else:
        eps = 1.0 / np.sqrt(max(tr.horizon, 1))
        while True:
            try:
                thetas = cover_thetas(eps, hc.radius, tr.d)
                break
            except ResourceLimitError:
                eps *= 2.0
        note = (f"maximized over a theta cover of {len(thetas)} members "
                f"(realized eps={eps:g})")
    m, per_chunk = s.mass[nz], []
    for th in _chunks(thetas, len(s.mass)):
        numer = hc.scale * (th @ s.R.T)
        numer += hc.offset * s.S
        per_chunk.append(np.max(np.sum(m * np.abs(numer[:, nz] / m) ** q,
                                       axis=1)))
    return MetricReport(f"mcal{q}", float(np.max(per_chunk)), hc.descriptor(),
                        f"{note}; empty cells contribute 0")


def cal(tr, q=2):
    """Plain calibration error: the constant test function f = 1."""
    _check_q(q)
    s = cell_sums(tr.contexts, tr.outcomes.astype(float),
                  realized_weights(tr).T, tr.grid.points)
    nz = s.mass > 0
    value = float(np.sum(s.mass[nz] * np.abs(s.S[nz] / s.mass[nz]) ** q))
    return MetricReport(f"cal{q}", value, "constant-1",
                        "single constant test function; empty cells contribute 0")


# ---------------------------------------------------------------------------
# swap regret


def swap_regret(name, X, y, CW, z, hc, how):
    """Report `name`: contextual swap regret under squared loss, per cell the
    CW-weighted loss of the cell value z_c (the sum SS_c) minus the best
    comparator's; how as in sup_calibration. Extras: per_cell_mass and
    per_cell_gap."""
    s = cell_sums(X, y, CW, z)
    mins, note = per_cell_min_squared(X, y, CW, hc)
    nz = s.mass > 0
    return MetricReport(name, float(np.sum(s.SS[nz] - mins[nz])),
                        hc.descriptor(),
                        f"{how}squared loss; {note}; empty cells contribute 0",
                        extras={"per_cell_mass": s.mass,
                                "per_cell_gap": s.SS - mins})


def sreg(tr, hc):
    """Contextual swap regret under squared loss, realized weights: per cell,
    the learner's loss minus the best fixed comparator on that cell."""
    return swap_regret("sreg", tr.contexts, tr.outcomes.astype(float),
                       realized_weights(tr).T, tr.grid.points, hc, "")


def psreg(tr, hc):
    """Pseudo contextual swap regret: conditional-distribution weights."""
    return swap_regret("psreg", tr.contexts, tr.outcomes.astype(float),
                       tr.cond_dists.T.copy(), tr.grid.points, hc, "")


def bm_external_regrets(tr, hc):
    """Per-learner external regret of the reduction: learner i pays
    P_t(i) <q_{t,i}, squared-loss vector>, q_{t,i} the rounding of its
    proposal, and competes with the best fixed f on its own stationary
    weights. The sum over i upper-bounds the pseudo contextual swap regret.

    P depends on the stream alone, so a fresh BmForecaster replays the
    proposals by lockstep_rounds; a round whose P it does not reproduce to
    COND_DIST_TOL raises ValueError.
    """
    y, P = tr.outcomes.astype(float), tr.cond_dists
    mins, _ = per_cell_min_squared(tr.contexts, y, P.T.copy(), hc)
    W, fc = np.empty_like(P), BmForecaster(tr.grid, tr.d)
    rounds = lockstep_rounds([fc], [(tr.contexts, tr.outcomes)])
    for t, (_, w, Pt) in enumerate(rounds):
        if np.max(np.abs(Pt[0] - P[t])) > COND_DIST_TOL:
            raise ValueError(f"round {t + 1} of {len(P)} is not the "
                             "forecaster's")
        W[t] = w[0]
    L = (tr.grid.points[None, :] - y[:, None]) ** 2
    k, f = round_split(W, tr.grid.n)  # <q_{t,i}, L_t> by its two points
    rows = np.arange(len(L))[:, None]
    qdot = (1.0 - f) * L[rows, k] + f * L[rows, np.minimum(k + 1, tr.grid.n)]
    return np.sum(P * qdot, axis=0) - mins


# ---------------------------------------------------------------------------
# omniprediction


def omni_gap(name, X, y, CW, z, hc, losses, how):
    """Report `name`: swap omniprediction gap, per cell the worst loss-menu
    entry's gap between the post-processed learner and the best comparator
    in the class (losses None: DEFAULT_LOSSES, hc None: affine-restricted),
    as per_cell_omni_gap checks and computes it, which also says how the
    V-shaped losses fare; how as in sup_calibration. Extras: per_cell_mass,
    per_cell_gap and achieved_comparator_loss."""
    losses = list(DEFAULT_LOSSES) if losses is None else list(losses)
    hc = affine_restricted() if hc is None else hc
    gaps, achieved, note = per_cell_omni_gap(X, y, CW, z, losses, hc)
    menu = ",".join(l.name for l in losses)
    return MetricReport(
        name, float(np.sum(gaps)), hc.descriptor(),
        f"{how}loss menu [{menu}]; grid best responses; {note}; achieved "
        "per-cell objectives in extras; empty cells contribute 0",
        extras={"per_cell_mass": CW.sum(axis=1), "per_cell_gap": gaps,
                "achieved_comparator_loss": achieved})


def somni(tr, losses=None, hc=None):
    """Swap omniprediction gap (omni_gap) with realized weights."""
    return omni_gap("somni", tr.contexts, tr.outcomes.astype(float),
                    realized_weights(tr).T, tr.grid.points, hc, losses, "")


# ---------------------------------------------------------------------------
# witness construction


@dataclass(frozen=True)
class WitnessFn:
    """f'(x) = center + eta * f(x): the squared-loss improvement witness
    distilled from a positive calibration correlation."""

    base: object
    center: float
    eta: float

    def __call__(self, x):
        return self.center + self.eta * np.asarray(self.base(x), dtype=float)


def witness_f_prime(tr, cell, f, use_pseudo=True):
    """Turn a positive cell correlation into a squared-loss improvement.

    For alpha = weighted mean of f(x)(y - z_cell) over the cell (pseudo or
    realized weights), with |f| <= 1 on the transcript contexts, returns
    (f', improvement) where f' = z_cell + eta f, eta = min(1, alpha / mu),
    mu the weighted mean of f^2. The improvement in weighted squared loss is
    at least alpha^2. cell must be an integer (as_int) in [0, n].
    """
    if not (0 <= as_int(cell, "cell", None) <= tr.grid.n):
        raise ValueError(f"cell {cell} outside the grid")
    CW = tr.cond_dists.T if use_pseudo else realized_weights(tr).T
    w = CW[cell]
    mass = float(w.sum())
    if mass <= 0.0:
        raise PreconditionError(f"cell {cell} has no weight in the transcript")
    fx = np.asarray(f(tr.contexts), dtype=float)
    if np.max(np.abs(fx)) > 1.0 + 1e-9:
        raise PreconditionError("witness construction needs |f(x)| <= 1 on the "
                                "transcript contexts")
    z = float(tr.grid.points[cell])
    y = tr.outcomes.astype(float)
    alpha = float(np.sum(w * fx * (y - z))) / mass
    if alpha <= 0.0:
        raise PreconditionError(f"cell correlation alpha={alpha:.3e} must be "
                                "positive; flip the sign of f if needed")
    mu = float(np.sum(w * fx * fx)) / mass
    eta = min(1.0, alpha / mu)
    fpx = z + eta * fx
    improvement = float(np.sum(w * ((z - y) ** 2 - (fpx - y) ** 2))) / mass
    if improvement < alpha * alpha - 1e-9:
        raise NumericFailure(
            f"witness improvement {improvement:.3e} fell below alpha^2 = "
            f"{alpha * alpha:.3e}", residual=alpha * alpha - improvement)
    return WitnessFn(f, z, eta), improvement
