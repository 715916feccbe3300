"""Calibration, swap-regret, and omniprediction metrics over transcripts.

All metrics share the same skeleton: bucket rounds by grid cell, weight them
either by the realized predictions (indicator weights) or by the committed
conditional distributions (pseudo weights), and take per-cell suprema over a
comparator class. Suprema over the linear-ball and affine-restricted classes
are evaluated in closed form (support functions, constrained least squares);
finite and cover classes are enumerated. Every report discloses in its notes
which evaluation set was actually used.

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

#: default loss menu for omniprediction reports
DEFAULT_LOSSES = (squared_loss(), absolute_loss(),
                  vshaped_loss(0.25), vshaped_loss(0.5), vshaped_loss(0.75))


@dataclass(frozen=True)
class CellStatistics:
    """Per-grid-cell tallies of one transcript."""

    index: int
    value: float
    realized_count: int
    pseudo_mass: float
    residual_vector_realized: np.ndarray
    residual_vector_pseudo: np.ndarray


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


def cell_statistics(tr):
    """Counts, pseudo-masses, and context-weighted outcome residuals per cell."""
    z = tr.grid.points
    IND = realized_weights(tr)
    W = tr.cond_dists
    C = tr.outcomes[:, None] - z[None, :]
    R_real = (IND * C).T @ tr.contexts
    R_pseudo = (W * C).T @ tr.contexts
    counts = IND.sum(axis=0)
    masses = W.sum(axis=0)
    return [CellStatistics(index=i, value=float(z[i]),
                           realized_count=int(counts[i]),
                           pseudo_mass=float(masses[i]),
                           residual_vector_realized=R_real[i],
                           residual_vector_pseudo=R_pseudo[i])
            for i in range(tr.grid.size)]


# ---------------------------------------------------------------------------
# per-cell kernels shared with the batch estimators
#
# CW is a (n_cells, T) matrix of nonnegative weights: row c weights the
# rounds (or test points) attributed to cell c.


def _cover_members(hc, d, cap=MEMBER_CAP):
    """Theta vectors (M, d) of a cover class, plus a note."""
    thetas = cover_thetas(hc.epsilon, hc.radius, d, cap=cap)
    return thetas, (f"enumerated over {len(thetas)} cover members "
                    f"(eps={hc.epsilon:g}, r={hc.radius:g})")


def _finite_values(hc, X, cap=MEMBER_CAP):
    """(M, T) member evaluations for finite and cover classes, plus a note."""
    if hc.kind == "finite":
        vals = np.stack([np.asarray(f(X), dtype=float) for f in hc.members])
        return vals, f"enumerated over {len(hc.members)} finite members"
    thetas, note = _cover_members(hc, X.shape[1], cap)
    return thetas @ X.T, note


def per_cell_sup_numerators(X, y, CW, zvals, hc, cap=MEMBER_CAP):
    """sup_f | sum_t CW[c,t] f(x_t) (y_t - z_c) | for every cell c.

    Returns (numerators, note). Closed forms for the ball classes, member
    enumeration otherwise.
    """
    Cmat = y[None, :] - zvals[:, None]
    E = CW * Cmat
    if hc.kind == "linear-ball":
        R = E @ X
        return hc.radius * np.linalg.norm(R, axis=1), \
            f"support function, exact over ||theta|| <= {hc.radius:g}"
    if hc.kind == "affine-restricted":
        R = E @ X
        S = E.sum(axis=1)
        return 0.5 * (np.abs(S) + np.linalg.norm(R, axis=1)), \
            "support function of (1 + <theta, x>)/2, exact over ||theta|| <= 1"
    if hc.kind == "cover":
        thetas, note = _cover_members(hc, X.shape[1], cap)
        R = E @ X
        num = np.max(np.abs(thetas @ R.T), axis=0) if len(thetas) else np.zeros(len(E))
        return num, note
    vals, note = _finite_values(hc, X, cap)
    return np.max(np.abs(vals @ E.T), axis=0), note


def constrained_lstsq(X, y, w, radius):
    """Weighted least squares over the theta ball:
    min sum_t w_t (<theta, x_t> - y_t)^2 subject to ||theta|| <= radius.

    From the normal equations A = X^T W X, b = X^T W y by
    linalg.ridge_to_sphere: the minimum-norm minimizer when it lies in the
    ball, else the point where the ridge path (A + lam I)^{-1} b meets the
    sphere.
    """
    Xw = X * w[:, None]
    return ridge_to_sphere(X.T @ Xw, X.T @ (w * y), radius)


def per_cell_min_squared(X, y, CW, hc, cap=MEMBER_CAP):
    """min_f sum_t CW[c,t] (f(x_t) - y_t)^2 for every cell. Empty cells get 0."""
    n_cells = CW.shape[0]
    mins = np.zeros(n_cells)
    nz = np.flatnonzero(CW.sum(axis=1) > 0)
    if hc.kind == "linear-ball":
        for c in nz:
            th = constrained_lstsq(X, y, CW[c], hc.radius)
            r = X @ th - y
            mins[c] = float(np.sum(CW[c] * r * r))
        return mins, f"constrained least squares over ||theta|| <= {hc.radius:g}"
    if hc.kind == "affine-restricted":
        Xh, yh = 0.5 * X, y - 0.5
        for c in nz:
            th = constrained_lstsq(Xh, yh, CW[c], 1.0)
            r = Xh @ th - yh
            mins[c] = float(np.sum(CW[c] * r * r))
        return mins, ("constrained least squares over the affine class "
                      "(1 + <theta, x>)/2, ||theta|| <= 1")
    vals, note = _finite_values(hc, X, cap)
    D2 = (vals - y[None, :]) ** 2
    losses = D2 @ CW.T
    mins_all = np.min(losses, axis=0)
    mins[nz] = mins_all[nz]
    return mins, note


def per_cell_omni_gap(X, y, CW, zvals, losses, hc, iters=500, restarts=0,
                      rng=None, cap=MEMBER_CAP):
    """Per cell: max over the loss menu of
    (post-processed learner loss) - (best-in-class loss), both CW-weighted.

    The affine-restricted inner minimization runs projected subgradient
    descent (step 1/sqrt(k), best-iterate tracking, optional random
    restarts); finite and cover classes are enumerated.
    """
    n_cells = CW.shape[0]
    gaps = np.zeros(n_cells)
    achieved = np.zeros((n_cells, len(losses)))
    nz = np.flatnonzero(CW.sum(axis=1) > 0)
    vals = None
    if hc.kind in ("finite", "cover"):
        vals, note = _finite_values(hc, X, cap)
    elif hc.kind == "affine-restricted":
        note = (f"inner minimization by projected subgradient descent "
                f"({iters} iterations, step 1/sqrt(k), {restarts} restarts)")
    else:
        raise ValueError(
            f"omniprediction comparator must be affine-restricted or an "
            f"enumerable class, got {hc.kind}")
    for c in nz:
        w = CW[c]
        best = -np.inf
        for j, loss in enumerate(losses):
            k_resp = post_process(loss, float(zvals[c]))
            learner = float(np.sum(w * loss(k_resp, y)))
            if vals is not None:
                comp = float(np.min(np.sum(w[None, :] * loss(vals, y[None, :]),
                                           axis=1)))
            else:
                comp = _min_affine_res(loss, X, w, y, iters=iters,
                                       restarts=restarts, rng=rng)
            achieved[c, j] = comp
            best = max(best, learner - comp)
        gaps[c] = best
    return gaps, achieved, note


def _min_affine_res(loss, X, w, y, iters=500, restarts=0, rng=None):
    """Projected subgradient minimization of the CW-weighted loss of
    f_theta(x) = (1 + <theta, x>)/2 over the unit theta ball. Returns the best
    objective value seen over all iterates and restarts."""
    nz = w > 0
    Xc, wc, yc = X[nz], w[nz], y[nz]
    d = X.shape[1]
    if len(wc) == 0:
        return 0.0

    def objective(th):
        p = 0.5 * (1.0 + Xc @ th)
        return float(np.sum(wc * loss(p, yc)))

    starts = [np.zeros(d)]
    for _ in range(restarts):
        v = rng.normal(size=d)
        nv = np.linalg.norm(v)
        if nv > 0:
            v = v / nv * rng.random() ** (1.0 / d)
        starts.append(v)
    best = np.inf
    for th0 in starts:
        th = th0.copy()
        for k in range(1, iters + 1):
            p = 0.5 * (1.0 + Xc @ th)
            val = float(np.sum(wc * loss(p, yc)))
            if val < best:
                best = val
            g = 0.5 * (Xc.T @ (wc * loss.deriv(p, yc)))
            th = th - g / np.sqrt(k)
            nrm = float(np.linalg.norm(th))
            if nrm > 1.0:
                th = th / nrm
        val = objective(th)
        if val < best:
            best = val
    return best


# ---------------------------------------------------------------------------
# calibration metrics


def _check_q(q):
    if q not in (1, 2):
        raise ValueError(f"moment q must be 1 or 2, got {q!r}")


def _sup_calibration(tr, hc, q, CW, name):
    counts = CW.sum(axis=1)
    num, note = per_cell_sup_numerators(tr.contexts, tr.outcomes.astype(float),
                                        CW, tr.grid.points, hc)
    nz = counts > 0
    sups = np.zeros_like(counts)
    sups[nz] = num[nz] / counts[nz]
    value = float(np.sum(counts[nz] * sups[nz] ** q))
    return MetricReport(name, value, hc.descriptor(),
                        f"{note}; empty cells contribute 0",
                        extras={"per_cell_sup": sups, "per_cell_mass": counts})


def smcal(tr, hc, q=2):
    """Swap multicalibration error: sum over cells of
    count_p * sup_f |rho_{p,f}|^q with realized (indicator) weights."""
    _check_q(q)
    return _sup_calibration(tr, hc, q, realized_weights(tr).T, f"smcal{q}")


def psmcal(tr, hc, q=2):
    """Pseudo swap multicalibration error: conditional-distribution weights
    in place of realized indicators."""
    _check_q(q)
    return _sup_calibration(tr, hc, q, tr.cond_dists.T.copy(), f"psmcal{q}")


def mcal(tr, hc, q=2, eval_eps=None, cap=MEMBER_CAP):
    """Multicalibration error: a single f across all cells,
    max_f sum_p count_p |rho_{p,f}|^q.

    Ball classes are maximized over an evaluation cover of their theta ball
    (default eps = 1/sqrt(T), doubled until the enumeration fits the member
    cap); the realized eps is disclosed in the notes.
    """
    _check_q(q)
    X, y, z = tr.contexts, tr.outcomes.astype(float), tr.grid.points
    IND = realized_weights(tr)
    counts = IND.sum(axis=0)
    nz = counts > 0
    if not np.any(nz):
        return MetricReport(f"mcal{q}", 0.0, hc.descriptor(), "empty transcript")
    E = IND * (y[:, None] - z[None, :])
    if hc.kind == "finite":
        vals, note = _finite_values(hc, X, cap)
        numer = vals @ E
    else:
        if hc.kind == "cover":
            thetas, note = _cover_members(hc, tr.d, cap)
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
        # theta members enter only through <theta, R_c> with the per-cell
        # residuals R = E^T X (cells, d), never through a (members, T) matrix
        numer = thetas @ (E.T @ X).T
        if hc.kind == "affine-restricted":
            numer = 0.5 * (E.sum(axis=0) + numer)
    rho = numer[:, nz] / counts[None, nz]
    per_member = np.sum(counts[None, nz] * np.abs(rho) ** q, axis=1)
    return MetricReport(f"mcal{q}", float(np.max(per_member)), hc.descriptor(),
                        f"{note}; empty cells contribute 0")


def cal(tr, q=2):
    """Plain calibration error: the constant test function f = 1."""
    _check_q(q)
    z = tr.grid.points
    IND = realized_weights(tr)
    counts = IND.sum(axis=0)
    S = (IND * (tr.outcomes[:, None] - z[None, :])).sum(axis=0)
    nz = counts > 0
    value = float(np.sum(counts[nz] * np.abs(S[nz] / counts[nz]) ** q))
    return MetricReport(f"cal{q}", value, "constant-1",
                        "single constant test function; empty cells contribute 0")


# ---------------------------------------------------------------------------
# swap regret


def _swap_regret(tr, hc, CW, name):
    z = tr.grid.points
    y = tr.outcomes.astype(float)
    learner = np.sum(CW * (z[:, None] - y[None, :]) ** 2, axis=1)
    mins, note = per_cell_min_squared(tr.contexts, y, CW, hc)
    nz = CW.sum(axis=1) > 0
    value = float(np.sum(learner[nz] - mins[nz]))
    return MetricReport(name, value, hc.descriptor(),
                        f"squared loss; {note}; empty cells contribute 0",
                        extras={"per_cell_gap": learner - mins})


def sreg(tr, hc):
    """Contextual swap regret under squared loss, realized weights: per cell,
    the learner's loss minus the best fixed comparator on that cell."""
    return _swap_regret(tr, hc, realized_weights(tr).T, "sreg")


def psreg(tr, hc):
    """Pseudo contextual swap regret: conditional-distribution weights."""
    return _swap_regret(tr, hc, tr.cond_dists.T.copy(), "psreg")


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
    accepted as proper-loss basis elements (their inner minimization relies
    on restarts since their subgradient vanishes almost everywhere).
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
