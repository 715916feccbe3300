"""Online Newton step over the radius-4 ball for scaled squared losses.

Each learner sees per-round losses phi(theta) = alpha * (<theta, x> - y)^2
with a scale weight alpha in [0, 1]. Over the radius-4 ball with contexts of
norm at most 1 these losses are 1/50-exp-concave and 10-Lipschitz, which
fixes the step parameter beta = 1/640 and the curvature floor
omega = 1/(4 beta^2) = 102400.

A learner is its parameter theta and inverse curvature matrix
(omega I + sum of gradient outer products)^{-1}, fresh at 0 and I / omega.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericFailure
from .linalg import project_ball_a_norm

BETA = 1.0 / 640.0
OMEGA = 102400.0  # 1 / (4 beta^2), written out exactly
RADIUS = 4.0


def ons_step(theta, inv_curvature, x, alpha, y):
    """Advance one learner one round on (x, y) with scale weight alpha and
    return the new (theta, inv_curvature); the inputs are never modified.
    Unchecked, like ons_kernel: x float (d,), alpha in [0, 1], y in {0, 1}.

    Folds g = 2 alpha (<theta, x> - y) x, the gradient of phi, into the
    inverse curvature M as M - (M g)(M g)^T / (1 + g^T M g), symmetrized
    (NumericFailure if the denominator is not positive and finite or the
    result not finite), takes the Newton step theta - (1/beta) A^{-1} g and
    projects back onto the radius-4 ball in the A-norm when the step leaves
    it. alpha = 0 returns the inputs unchanged.
    """
    if alpha == 0.0:
        return theta, inv_curvature
    g = (2.0 * alpha * (float(theta @ x) - y)) * x
    Mg = inv_curvature @ g
    denom = 1.0 + float(g @ Mg)
    if not 0.0 < denom < np.inf:  # also false for NaN
        raise NumericFailure(f"rank-one update denominator {denom} is not positive")
    inv_new = inv_curvature - Mg[:, None] * Mg / denom
    inv_new = 0.5 * (inv_new + inv_new.T)
    if not np.isfinite(inv_new).all():
        raise NumericFailure("rank-one update produced non-finite entries")
    theta_new = theta - (inv_new @ g) / BETA
    if math.sqrt(theta_new @ theta_new) > RADIUS:
        theta_new = project_ball_a_norm(theta_new, inv_new, RADIUS)
    return theta_new, inv_new


def _dots(a, b):
    """<a, b> over the last axis of two stacks, by a stacked (1, d) @ (d, 1)
    matmul: numpy's dot loop, as a 1-D a @ b runs it."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def ons_kernel(thetas, inv_curvatures, x, alpha, y):
    """ons_step on every row of the stacks thetas (S..., d), inv_curvatures
    (S..., d, d), with float x (..., d), alpha and y broadcast, into fresh
    stacks, bit for bit, and as unchecked. ons_step's order, _dots for the
    1-D dots, a stacked @ for the matrix products. alpha = 0 gives g = 0,
    leaving a row (its inverse is exactly symmetric) as it was, so only the
    projection is masked."""
    g = (2.0 * alpha * (_dots(thetas, x) - y))[..., None] * x
    Mg = (inv_curvatures @ g[..., None])[..., 0]
    denom = 1.0 + _dots(g, Mg)[..., None, None]
    if not ((denom > 0.0) & (denom < np.inf)).all():  # also false for NaN
        raise NumericFailure("rank-one update denominator is not positive")
    inv = inv_curvatures - Mg[..., :, None] * Mg[..., None, :] / denom
    inv = 0.5 * (inv + inv.swapaxes(-1, -2))
    if not np.isfinite(inv).all():
        raise NumericFailure("rank-one update produced non-finite entries")
    theta = thetas - (inv @ g[..., None])[..., 0] / BETA
    far = (alpha != 0.0) & (np.sqrt(_dots(theta, theta)) > RADIUS)
    if far.any():
        for i in zip(*np.nonzero(far)):
            theta[i] = project_ball_a_norm(theta[i], inv[i], RADIUS)
    return theta, inv
