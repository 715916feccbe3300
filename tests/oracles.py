"""Slow reference implementations that the tests compare fast kernels
against."""

from swapcal.linalg import ridge_to_sphere


def constrained_lstsq(X, y, w, radius):
    """Weighted least squares over the theta ball:
    min sum_t w_t (<theta, x_t> - y_t)^2 subject to ||theta|| <= radius.

    From the normal equations A = X^T W X, b = X^T W y by
    linalg.ridge_to_sphere: the minimum-norm minimizer when it lies in the
    ball, else the point where the ridge path (A + lam I)^{-1} b meets the
    sphere. The dense reference for metrics.per_cell_min_squared.
    """
    Xw = X * w[:, None]
    return ridge_to_sphere(X.T @ Xw, X.T @ (w * y), radius)
