"""Calibration, swap-regret, and omniprediction metrics over transcripts.

All metrics share the same skeleton: bucket rounds by grid cell, weight them
either by the realized predictions (indicator weights) or by the committed
conditional distributions (pseudo weights), and take per-cell suprema over a
comparator class. Every closed-form metric reads a transcript only through
per-cell sums (cell_sums): ball and affine suprema in closed form (support
functions, constrained least squares), finite and cover classes, which are
theta stacks, member by member. The omniprediction gap evaluates enumerated
members on the contexts, a fixed budget of member-point pairs at a time.
Every report discloses in its notes which evaluation set was actually used.

Conventions: ball suprema are exact over the stated theta radius, which for
the bounded-function families is the certified inner ball of the sandwich
containment; covers cap their enumeration at MEMBER_CAP members.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .core import (MEMBER_CAP, LossSpec, absolute_loss, affine_restricted,
                   cover_thetas, post_process, squared_loss, vshaped_loss)
from .errors import NumericFailure, PreconditionError, ResourceLimitError
from .linalg import ridge_to_sphere

#: member-point evaluations per chunk of the omniprediction table: bounds
#: its temporaries at a few (OMNI_CHUNK,) float arrays, whatever M x T is
OMNI_CHUNK = 2 ** 20

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
    if tr.horizon:
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


def _members(hc, d, cap=MEMBER_CAP):
    """Theta stack (M, d) of a finite or cover class in dimension d, plus a
    note."""
    if hc.kind == "cover":
        thetas = cover_thetas(hc.epsilon, hc.radius, d, cap=cap)
        return thetas, (f"enumerated over {len(thetas)} cover members "
                        f"(eps={hc.epsilon:g}, r={hc.radius:g})")
    if hc.thetas.shape[1] != d:
        raise ValueError(f"finite class thetas have dimension "
                         f"{hc.thetas.shape[1]}, the contexts have d = {d}")
    return hc.thetas, f"enumerated over {len(hc.thetas)} finite members"


def per_cell_sup_numerators(X, y, CW, zvals, hc, cap=MEMBER_CAP):
    """sup_f | sum_t CW[c,t] f(x_t) (y_t - z_c) | for every cell c.

    Returns (numerators, note): r ||R_c|| for the radius-r ball,
    (|S_c| + ||R_c||)/2 for the affine class, the largest |<theta, R_c>| over
    an enumerated class's members.
    """
    s = cell_sums(X, y, CW, zvals)
    if hc.enumerated:
        thetas, note = _members(hc, X.shape[1], cap)
        return np.max(np.abs(thetas @ s.R.T), axis=0), note
    norms = np.linalg.norm(s.R, axis=1)
    if hc.kind == "linear-ball":
        return hc.radius * norms, \
            f"support function, exact over ||theta|| <= {hc.radius:g}"
    return 0.5 * (np.abs(s.S) + norms), \
        "support function of (1 + <theta, x>)/2, exact over ||theta|| <= 1"


def constrained_lstsq(X, y, w, radius):
    """Weighted least squares over the theta ball:
    min sum_t w_t (<theta, x_t> - y_t)^2 subject to ||theta|| <= radius.

    From the normal equations A = X^T W X, b = X^T W y by
    linalg.ridge_to_sphere: the minimum-norm minimizer when it lies in the
    ball, else the point where the ridge path (A + lam I)^{-1} b meets the
    sphere. The dense reference for per_cell_min_squared.
    """
    Xw = X * w[:, None]
    return ridge_to_sphere(X.T @ Xw, X.T @ (w * y), radius)


def per_cell_min_squared(X, y, CW, hc, cap=MEMBER_CAP):
    """min_f sum_t CW[c,t] (f(x_t) - y_t)^2 for every cell. Empty cells get 0.

    On cell c, theta's loss is theta^T A_c theta - 2 theta^T R_c + SS_c, from
    the sums with z = 0: balls take its minimizer ridge_to_sphere(A_c, R_c, r),
    enumerated classes its least value over their members. The affine class
    is the unit ball problem on (x/2, y - 1/2): the sums of X/2 with z = 1/2.
    """
    K = len(CW)
    if hc.kind == "affine-restricted":
        s = cell_sums(0.5 * X, y, CW, np.full(K, 0.5))
        note = ("constrained least squares over the affine class "
                "(1 + <theta, x>)/2, ||theta|| <= 1")
    else:
        s = cell_sums(X, y, CW, np.zeros(K))
    if hc.enumerated:
        thetas, note = _members(hc, X.shape[1], cap)
    elif hc.kind == "linear-ball":
        note = f"constrained least squares over ||theta|| <= {hc.radius:g}"
    mins = np.zeros(K)
    for c in np.flatnonzero(s.mass > 0):
        th = thetas if hc.enumerated else \
            ridge_to_sphere(s.A[c], s.R[c], hc.radius)[None, :]
        loss = np.sum((th @ s.A[c]) * th, axis=1) - 2.0 * (th @ s.R[c])
        mins[c] = np.min(loss) + s.SS[c]
    return mins, note


def per_cell_omni_gap(X, y, CW, zvals, losses, hc, iters=500, restarts=0,
                      rng=None, cap=MEMBER_CAP):
    """Per cell: max over the loss menu of
    (post-processed learner loss) - (best-in-class loss), both CW-weighted.

    Returns (gaps (n_cells,), achieved comparator losses (n_cells, losses),
    note); empty cells get 0. Enumerated classes fill the comparator table
    by _least_member_losses. The affine-restricted inner minimization runs
    projected subgradient descent per (cell, loss) (step 1/sqrt(k),
    best-iterate tracking, optional random restarts) and stops at a zero
    subgradient, so a V-shaped loss, whose derivative is 0, stays at its
    start points.
    """
    nz = CW.sum(axis=1) > 0
    if hc.enumerated:
        thetas, note = _members(hc, X.shape[1], cap)
        achieved = _least_member_losses(thetas, X, y, CW, losses)
    elif hc.kind == "affine-restricted":
        note = (f"inner minimization by projected subgradient descent "
                f"({iters} iterations, step 1/sqrt(k), {restarts} restarts; "
                "stops at a zero subgradient, so V-shaped losses stay at "
                "their start points)")
        achieved = np.zeros((len(CW), len(losses)))
        for c in np.flatnonzero(nz):
            for j, loss in enumerate(losses):
                achieved[c, j] = _min_affine_res(loss, X, CW[c], y, iters=iters,
                                                 restarts=restarts, rng=rng)
    else:
        raise ValueError(
            f"omniprediction comparator must be affine-restricted or an "
            f"enumerable class, got {hc.kind}")
    achieved[~nz] = 0.0
    learner = np.empty_like(achieved)
    for j, loss in enumerate(losses):
        k = np.array([post_process(loss, float(z)) for z in zvals])
        learner[:, j] = np.sum(CW * loss(k[:, None], y), axis=1)
    gaps = np.where(nz, np.max(learner - achieved, axis=1), 0.0)
    return gaps, achieved, note


def _least_member_losses(thetas, X, y, CW, losses):
    """(n_cells, losses) table of min over members m of
    sum_t CW[c, t] loss(<theta_m, x_t>, y_t), one chunk of OMNI_CHUNK
    member-point evaluations at a time: never the (M, T) matrix."""
    best = np.full((len(CW), len(losses)), np.inf)
    step = max(1, OMNI_CHUNK // max(len(X), 1))
    for i in range(0, len(thetas), step):
        vals = thetas[i:i + step] @ X.T
        for j, loss in enumerate(losses):
            np.minimum(best[:, j], np.min(loss(vals, y[None, :]) @ CW.T, axis=0),
                       out=best[:, j])
    return best


def _min_affine_res(loss, X, w, y, iters=500, restarts=0, rng=None):
    """Projected subgradient minimization of the CW-weighted loss of
    f_theta(x) = (1 + <theta, x>)/2 over the unit theta ball. Returns the best
    objective value seen over all iterates and restarts; a start stops at an
    exactly zero subgradient, whose later iterates would all repeat it."""
    nz = w > 0
    Xc, wc, yc = X[nz], w[nz], y[nz]
    d = X.shape[1]
    if len(wc) == 0:
        return 0.0
    starts = [np.zeros(d)]
    for _ in range(restarts):
        v = rng.normal(size=d)
        nv = np.linalg.norm(v)
        if nv > 0:
            v = v / nv * rng.random() ** (1.0 / d)
        starts.append(v)
    best = np.inf
    for th in starts:
        for k in range(1, iters + 2):
            p = 0.5 * (1.0 + Xc @ th)
            best = min(best, float(np.sum(wc * loss(p, yc))))
            if k > iters:
                break
            g = 0.5 * (Xc.T @ (wc * loss.deriv(p, yc)))
            if not g.any():
                break
            th = th - g / np.sqrt(k)
            nrm = float(np.linalg.norm(th))
            if nrm > 1.0:
                th = th / nrm
    return best


# ---------------------------------------------------------------------------
# calibration metrics


def _check_q(q):
    if q not in (1, 2):
        raise ValueError(f"moment q must be 1 or 2, got {q!r}")


def sup_calibration(X, y, CW, z, hc, q):
    """Sum over cells of mass_c * sup_f |rho_{c,f}|^q, rho_{c,f} the
    CW-weighted mean of f(x)(y - z_c) on cell c; empty cells contribute 0.
    Returns (value, per-cell sups, per-cell masses, note)."""
    _check_q(q)
    mass = CW.sum(axis=1)
    num, note = per_cell_sup_numerators(X, y, CW, z, hc)
    nz = mass > 0
    sups = np.zeros_like(mass)
    sups[nz] = num[nz] / mass[nz]
    return float(np.sum(mass[nz] * sups[nz] ** q)), sups, mass, note


def _sup_report(name, tr, CW, hc, q):
    value, sups, mass, note = sup_calibration(
        tr.contexts, tr.outcomes.astype(float), CW, tr.grid.points, hc, q)
    return MetricReport(name, value, hc.descriptor(),
                        f"{note}; empty cells contribute 0",
                        extras={"per_cell_sup": sups, "per_cell_mass": mass})


def smcal(tr, hc, q=2):
    """Swap multicalibration error: sum over cells of
    count_p * sup_f |rho_{p,f}|^q with realized (indicator) weights."""
    return _sup_report(f"smcal{q}", tr, realized_weights(tr).T, hc, q)


def psmcal(tr, hc, q=2):
    """Pseudo swap multicalibration error: conditional-distribution weights
    in place of realized indicators."""
    return _sup_report(f"psmcal{q}", tr, tr.cond_dists.T.copy(), hc, q)


def mcal(tr, hc, q=2, eval_eps=None, cap=MEMBER_CAP):
    """Multicalibration error: a single f across all cells,
    max_f sum_p count_p |rho_{p,f}|^q.

    Ball classes are maximized over an evaluation cover of their theta ball
    (default eps = 1/sqrt(T), doubled until the enumeration fits the member
    cap); the realized eps is disclosed in the notes.
    """
    _check_q(q)
    X, y, z = tr.contexts, tr.outcomes.astype(float), tr.grid.points
    CW = realized_weights(tr).T
    s = cell_sums(X, y, CW, z)
    nz = s.mass > 0
    if not np.any(nz):
        return MetricReport(f"mcal{q}", 0.0, hc.descriptor(), "empty transcript")
    if hc.enumerated:
        thetas, note = _members(hc, tr.d, cap)
    else:
        eps = eval_eps if eval_eps is not None else 1.0 / np.sqrt(max(tr.horizon, 1))
        while True:
            try:
                thetas = cover_thetas(eps, hc.radius, tr.d, cap=cap)
                break
            except ResourceLimitError:
                eps *= 2.0
        note = (f"maximized over a theta cover of {len(thetas)} members "
                f"(realized eps={eps:g})")
    numer = thetas @ s.R.T
    if hc.kind == "affine-restricted":
        numer = 0.5 * (s.S + numer)
    m = s.mass[nz]
    per_member = np.sum(m * np.abs(numer[:, nz] / m) ** q, axis=1)
    return MetricReport(f"mcal{q}", float(np.max(per_member)), hc.descriptor(),
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


def swap_regret(X, y, CW, z, hc):
    """Contextual swap regret under squared loss: per cell, the CW-weighted
    loss of the cell value z_c (the sum SS_c) minus the best comparator's;
    empty cells contribute 0. Returns (value, per-cell gaps, per-cell
    masses, note)."""
    s = cell_sums(X, y, CW, z)
    mins, note = per_cell_min_squared(X, y, CW, hc)
    nz = s.mass > 0
    return (float(np.sum(s.SS[nz] - mins[nz])), s.SS - mins, s.mass,
            f"squared loss; {note}")


def _regret_report(name, tr, CW, hc):
    value, gaps, _, note = swap_regret(tr.contexts, tr.outcomes.astype(float),
                                       CW, tr.grid.points, hc)
    return MetricReport(name, value, hc.descriptor(),
                        f"{note}; empty cells contribute 0",
                        extras={"per_cell_gap": gaps})


def sreg(tr, hc):
    """Contextual swap regret under squared loss, realized weights: per cell,
    the learner's loss minus the best fixed comparator on that cell."""
    return _regret_report("sreg", tr, realized_weights(tr).T, hc)


def psreg(tr, hc):
    """Pseudo contextual swap regret: conditional-distribution weights."""
    return _regret_report("psreg", tr, tr.cond_dists.T.copy(), hc)


def bm_external_regrets(tr, hc):
    """Per-learner external regret of the reduction, from the recorded
    column matrices: learner i pays P_t(i) <q_{t,i}, squared-loss vector> and
    competes with the best fixed f on its own stationary weights.

    The sum over i upper-bounds the pseudo contextual swap regret.
    """
    if tr.q_stacks is None:
        raise ValueError("transcript was recorded without Q matrices; "
                         "rerun with keep_q=True")
    z = tr.grid.points
    y = tr.outcomes.astype(float)
    L = (z[None, :] - y[:, None]) ** 2
    qdot = np.einsum("tj,tji->ti", L, tr.q_stacks)
    P = tr.cond_dists
    learner = np.sum(P * qdot, axis=0)
    mins, _ = per_cell_min_squared(tr.contexts, y, P.T.copy(), hc)
    return learner - mins


# ---------------------------------------------------------------------------
# omniprediction


def somni(tr, losses=None, hc=None, iters=500, restarts=0, seed=0):
    """Swap omniprediction gap: per cell, the worst loss-menu entry's gap
    between the post-processed learner and the best comparator in the class.

    Non-convex custom losses are rejected; the V-shaped menu members are
    accepted as proper-loss basis elements. Their subgradient vanishes
    almost everywhere, so their inner minimization stays at its start
    points: theta = 0 and the random restarts, of which there are none by
    default.
    """
    losses = list(DEFAULT_LOSSES) if losses is None else list(losses)
    if not losses:
        raise ValueError("loss menu must be non-empty")
    for loss in losses:
        if not isinstance(loss, LossSpec):
            raise ValueError(f"loss menu entries must be LossSpec, got {loss!r}")
        if loss.kind == "custom-convex":
            loss.certify()
    hc = affine_restricted() if hc is None else hc
    rng = np.random.default_rng(seed)
    CW = realized_weights(tr).T
    gaps, achieved, note = per_cell_omni_gap(
        tr.contexts, tr.outcomes.astype(float), CW, tr.grid.points, losses, hc,
        iters=iters, restarts=restarts, rng=rng)
    value = float(np.sum(gaps))
    menu = ",".join(l.name for l in losses)
    return MetricReport(
        "somni", value, hc.descriptor(),
        f"loss menu [{menu}]; grid best responses; {note}; achieved per-cell "
        "objectives in extras; empty cells contribute 0",
        extras={"per_cell_gap": gaps, "achieved_comparator_loss": achieved})


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
    at least alpha^2.
    """
    if not (0 <= cell <= tr.grid.n):
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
