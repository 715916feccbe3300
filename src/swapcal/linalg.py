"""Small dense linear-algebra kernels used by the forecaster.

Everything here is deterministic, with no randomized algorithms. Each
kernel takes one path per input, except stationary_distribution, which
chooses per chain between a square solve and a batched SVD by a structural
certificate that depends on the chain alone, never on the rest of the
stack. Matrices are plain numpy arrays; the curvature matrix maintained by
the online learner is stored as its inverse throughout.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import NumericFailure

STATIONARY_TOL = 1e-8
COLUMN_SUM_TOL = 1e-9
RIDGE_TOL = 1e-9
RIDGE_MAX_ITER = 200
_EPS = np.finfo(float).eps


def check_column_stochastic(Q):
    """Validate a square column-stochastic matrix, or a stack (..., K, K) of
    them, columns summing to 1 within COLUMN_SUM_TOL; return it as float."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim < 2 or Q.shape[-1] != Q.shape[-2] or Q.shape[-1] < 1:
        raise ValueError("matrix must be square and non-empty")
    # a non-finite entry makes its column sum non-finite: diagnose on failure
    err = float(abs(Q.sum(axis=-2) - 1.0).max(initial=0.0))
    if not (err <= COLUMN_SUM_TOL and Q.min(initial=0.0) >= -1e-12):
        if not np.isfinite(Q).all():
            raise ValueError("matrix has non-finite entries")
        if Q.min() < -1e-12:
            raise ValueError(f"matrix has negative entry {Q.min()}")
        raise ValueError(f"columns must sum to 1 within {COLUMN_SUM_TOL}, "
                         f"worst error {err}")
    return Q


@functools.lru_cache(maxsize=4)
def _identity(K):
    """np.eye(K), read-only, built once per K rather than every round."""
    eye = np.eye(K)
    eye.flags.writeable = False
    return eye


def single_closed_class(Q):
    """Whether each chain of a stack Q (..., K, K) of column-stochastic
    matrices has one closed class, certified by reachability: some state is
    reachable from every state. Entries at most K eps are read as 0; the
    reach matrix is ceil(log2(K - 1)) squarings (2^s >= K - 1 steps) of the
    0/1 matrix (Q > K eps) + I, capped at 1, in float: numpy's bool matmul
    skips BLAS and is slower from about K = 12, or 30 chains of K = 8."""
    K = Q.shape[-1]
    reach = (Q > K * _EPS) + _identity(K)
    for _ in range(max(K - 2, 0).bit_length()):
        reach = np.minimum(reach @ reach, 1.0)
    return reach.all(axis=-1).any(axis=-1)


def _square_solve(Q):
    """Stationary distributions of a stack Q (S, K, K) of certified chains:
    (Q - I) p = 0 with its last row replaced by 1^T p = 1, one batched
    solve (Stewart 1994). The right-hand side has shape (1, K, 1), which
    every numpy from 1.24 on reads as a stack of matrices."""
    K = Q.shape[-1]
    eye = _identity(K)
    A = Q - eye
    A[:, K - 1] = 1.0
    return np.linalg.solve(A, eye[None, :, K - 1:])[..., 0]


def _min_norm(Q):
    """Minimum-norm least-squares solutions of the systems
    [(Q - I); 1^T] p = e_{K+1} of a stack Q (S, K, K), from a batched SVD
    with the cutoff of lstsq(rcond=None): singular values at most
    (K+1) eps sigma_max are zero."""
    K = Q.shape[-1]
    A = np.empty((len(Q), K + 1, K))
    A[:, :K] = Q
    A[:, K] = 1.0
    # the diagonal of the (K+1, K) block is every (K+1)-th flat entry
    A.reshape(len(Q), (K + 1) * K)[:, :K * K:K + 1] -= 1.0
    U, s, Vh = np.linalg.svd(A, full_matrices=False)
    # min-norm solution: sum_i (u_i[K] / s_i) v_i over the kept s_i
    c = U[..., K, :] / np.where(s > (K + 1) * _EPS * s[..., :1], s, np.inf)
    return (c[..., None, :] @ Vh)[..., 0, :]


def _solve_chains(Q):
    """Unnormalized stationary solutions of a stack Q (S, K, K), the path
    chosen chain by chain: the certified chains by one _square_solve, or,
    if it raises LinAlgError, each by its own; every other chain by
    _min_norm."""
    square = single_closed_class(Q)
    p = np.empty(Q.shape[:-1])
    try:
        if square.all():  # the common case, without the fancy indexing
            return _square_solve(Q)
        p[square] = _square_solve(Q[square])
    except np.linalg.LinAlgError:
        for i in np.flatnonzero(square):
            try:
                p[i] = _square_solve(Q[i:i + 1])[0]
            except np.linalg.LinAlgError:
                square[i] = False
    p[~square] = _min_norm(Q[~square])
    return p


def stationary_distribution(Q):
    """Stationary distribution p of a column-stochastic matrix: Q p = p; a
    stack Q (..., K, K) gives one per matrix, shape (..., K).

    The path is chosen chain by chain, never by the size of the stack. A
    chain that single_closed_class certifies has a unique stationary
    distribution, the solution of the nonsingular square system
    (Q - I) p = 0 with its last row replaced by 1^T p = 1 (Stewart 1994);
    those chains share one batched solve. Every other chain, and a
    certified one whose solve raises LinAlgError, takes the minimum-norm
    least-squares solution of [(Q - I); 1^T] p = e_{K+1} from a batched SVD
    with the cutoff of lstsq(rcond=None). Entries at most K eps, negatives
    included, are roundoff and set to zero, and the result is renormalized.
    Both systems are consistent, so the solution meets the residual check
    ||Q p - p||_inf <= STATIONARY_TOL up to roundoff.

    Tie-break: when the chain has several closed classes, with stationary
    distributions v_i, the solutions are the affine combinations of the v_i
    and the minimum-norm one is sum_i v_i / ||v_i||^2, normalized. The v_i
    have disjoint supports, so this is a convex combination: each closed
    class gets mass in proportion to 1 / ||v_i||^2 (Q = I gives the uniform
    distribution) and transient states get none.

    Raises check_column_stochastic's ValueError on a bad Q, and
    NumericFailure, carrying the worst residual over the stack, if the
    residual check fails.
    """
    return stationary_solve(check_column_stochastic(Q))


def stationary_solve(Q):
    """stationary_distribution, unchecked, like ons_kernel: Q a float
    column-stochastic stack (..., K, K), such as the one commit_round builds.
    The residual check and its NumericFailure stay."""
    K = Q.shape[-1]
    p = _solve_chains(Q.reshape((-1, K, K))).reshape(Q.shape[:-1])
    p[p <= K * _EPS] = 0.0
    p /= p.sum(axis=-1, keepdims=True)
    resid = float(abs((Q @ p[..., None])[..., 0] - p).max(initial=0.0))
    if not resid <= STATIONARY_TOL:
        raise NumericFailure(f"stationary distribution residual {resid:.3e} "
                             f"exceeds {STATIONARY_TOL}", residual=resid)
    return p


def ridge_to_sphere(A, b, radius):
    """The point of the ridge path u(lam) = (A + lam I)^+ b, lam >= 0, of a
    symmetric PSD A with the least lam such that ||u|| <= radius: the
    minimum-norm solution of A u = b when it lies in the ball, else the
    point with ||u|| = radius, by bisection on lam until
    | ||u|| - radius | <= RIDGE_TOL. u is evaluated in A's eigenbasis, with
    eigenvalues at most d eps of the largest read as 0, so ||u(lam)|| falls
    continuously in lam even when A is singular to working precision, and
    ||u(lam)|| <= ||b|| / lam brackets the root. Raises NumericFailure,
    carrying the gap, if no iterate comes within 1e-6 in RIDGE_MAX_ITER
    halvings."""
    ev, V = np.linalg.eigh(A)
    live = ev > len(b) * _EPS * ev[-1]
    ev, V = ev[live], V[:, live]
    Vb = V.T @ b
    u = V @ (Vb / ev)
    if float(np.linalg.norm(u)) <= radius:
        return u
    lo, hi = 0.0, max(float(np.linalg.norm(b)) / radius, 1e-12)
    best_gap, best_u = np.inf, None
    for _ in range(RIDGE_MAX_ITER):
        mid = 0.5 * (lo + hi)
        u = V @ (Vb / (ev + mid))
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

