"""Small dense linear-algebra kernels used by the forecaster.

Everything here is deterministic and takes one path per call: no fallback
chains, no randomized algorithms. Matrices are plain numpy arrays; the
curvature matrix maintained by the online learner is stored as its inverse
throughout.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericFailure

STATIONARY_TOL = 1e-8
RIDGE_TOL = 1e-9
RIDGE_MAX_ITER = 200


def check_column_stochastic(Q, tol=1e-9):
    """Validate a square column-stochastic matrix and return it as float."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1] or Q.shape[0] < 1:
        raise ValueError("matrix must be square and non-empty")
    if not np.isfinite(Q).all():
        raise ValueError("matrix has non-finite entries")
    if Q.min() < -1e-12:
        raise ValueError(f"matrix has negative entry {Q.min()}")
    colsums = Q.sum(axis=0)
    err = float(abs(colsums - 1.0).max())
    if err > tol:
        raise ValueError(f"columns must sum to 1 within {tol}, worst error {err}")
    return Q


def stationary_distribution(Q, tol=STATIONARY_TOL):
    """Stationary distribution p of a column-stochastic matrix: Q p = p.

    One path: the minimum-norm least-squares solution of the stacked system
    [(Q - I); 1^T] p = [0; 1], with roundoff negatives set to zero and the
    result renormalized. The system is always consistent, so the solution
    meets the residual check ||Q p - p||_inf <= tol up to roundoff.

    Tie-break: when the chain has several closed classes, with stationary
    distributions v_i, the solutions are the affine combinations of the v_i
    and the minimum-norm one is sum_i v_i / ||v_i||^2, normalized. The v_i
    have disjoint supports, so this is a convex combination: each closed
    class gets mass in proportion to 1 / ||v_i||^2 (Q = I gives the uniform
    distribution) and transient states get none.

    Raises NumericFailure, carrying the residual, if the check fails.
    """
    Q = check_column_stochastic(Q)
    n = Q.shape[0]
    A = np.ones((n + 1, n))
    A[:n] = Q - np.eye(n)
    b = np.zeros(n + 1)
    b[n] = 1.0
    p = np.maximum(np.linalg.lstsq(A, b, rcond=None)[0], 0.0)
    p /= p.sum()
    resid = float(abs(Q @ p - p).max())
    if not resid <= tol:
        raise NumericFailure(
            f"stationary distribution residual {resid:.3e} exceeds {tol}",
            residual=resid)
    return p


def sherman_morrison_update(M, g):
    """Rank-one inverse update: given M = A^{-1}, return (A + g g^T)^{-1}.

    Uses M - (M g)(M g)^T / (1 + g^T M g) and re-symmetrizes to fight drift.
    """
    M = np.asarray(M, dtype=float)
    g = np.asarray(g, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or g.shape != (M.shape[0],):
        raise ValueError("shape mismatch in rank-one update")
    Mg = M @ g
    denom = 1.0 + float(g @ Mg)
    if not np.isfinite(denom) or denom <= 0.0:
        raise NumericFailure(f"rank-one update denominator {denom} is not positive")
    out = M - np.outer(Mg, Mg) / denom
    out = 0.5 * (out + out.T)
    if not np.all(np.isfinite(out)):
        raise NumericFailure("rank-one update produced non-finite entries")
    return out


def ridge_to_sphere(A, b, radius):
    """The point u(lam) = (A + lam I)^{-1} b, lam >= 0, of the ridge path of
    a symmetric PSD A with ||u|| = radius, by bisection on lam until
    | ||u|| - radius | <= RIDGE_TOL. Raises NumericFailure, carrying the
    gap, if no iterate comes within 1e-6 in RIDGE_MAX_ITER halvings."""
    eye = np.eye(len(b))
    lo = 0.0
    hi = max(float(np.linalg.norm(b)) / radius, 1e-12)
    for _ in range(80):
        if np.linalg.norm(np.linalg.solve(A + hi * eye, b)) <= radius:
            break
        hi *= 2.0
    best_gap, best_u = np.inf, None
    for _ in range(RIDGE_MAX_ITER):
        mid = 0.5 * (lo + hi)
        u = np.linalg.solve(A + mid * eye, b)
        n_u = float(np.linalg.norm(u))
        gap = abs(n_u - radius)
        if gap <= RIDGE_TOL:
            return u
        if gap < best_gap:
            best_gap, best_u = gap, u
        if n_u > radius:
            lo = mid
        else:
            hi = mid
    if best_gap <= 1e-6:
        return best_u
    raise NumericFailure(
        f"ridge-path bisection stalled at ||u|| gap {best_gap:.3e}",
        residual=best_gap)


def project_ball_a_norm(theta, inv_curvature, radius):
    """Project theta onto the Euclidean ball of the given radius in the norm
    induced by A, where inv_curvature = A^{-1}.

    Minimizes (u - theta)^T A (u - theta) over ||u||_2 <= radius. If theta is
    already inside the ball it is returned unchanged. Otherwise the KKT system
    u(lam) = (A + lam I)^{-1} A theta is solved for the multiplier lam >= 0 by
    ridge_to_sphere; A is reconstructed from the stored inverse only on this
    (rare) path.
    """
    theta = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(theta)):
        raise ValueError("cannot project a non-finite vector")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if float(np.linalg.norm(theta)) <= radius:
        return theta
    try:
        A = np.linalg.inv(np.asarray(inv_curvature, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"curvature inverse is singular: {exc}") from exc
    A = 0.5 * (A + A.T)
    return ridge_to_sphere(A, A @ theta, radius)


def project_box(w, lo=0.0, hi=1.0):
    """Clamp to [lo, hi]. Scalars stay scalar; NaN raises ValueError."""
    if np.isscalar(w) or np.ndim(w) == 0:
        w = float(w)
        if w != w:
            raise ValueError("cannot clamp NaN")
        return lo if w < lo else hi if w > hi else w
    w = np.asarray(w, dtype=float)
    if np.any(np.isnan(w)):
        raise ValueError("cannot clamp NaN")
    return np.clip(w, lo, hi)
