"""Domain types for online calibrated forecasting over a finite grid.

Predictions live on the uniform grid {0, 1/n, ..., 1}. Contexts are vectors
whose first coordinate is pinned to 1/2 (so linear functions of the context
include constants) with Euclidean norm at most 1. Outcomes are bits.

A transcript records one forecasting run: per round, the context, the full
conditional distribution the forecaster committed to, the sampled grid index,
and the observed outcome.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import FormatError, ResourceLimitError

CONTEXT_NORM_TOL = 1e-9
COND_DIST_TOL = 1e-9

#: enumeration cap for cover classes and evaluation covers
MEMBER_CAP = 10 ** 6


class Grid:
    """Uniform prediction grid with n+1 points i/n, i = 0..n."""

    __slots__ = ("n", "points")

    def __init__(self, n):
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValueError(f"grid resolution must be a positive integer, got {n!r}")
        self.n = int(n)
        pts = np.arange(self.n + 1, dtype=float) / self.n
        pts.flags.writeable = False
        self.points = pts

    @property
    def size(self):
        return self.n + 1

    def __eq__(self, other):
        return isinstance(other, Grid) and other.n == self.n

    def __hash__(self):
        return hash(("Grid", self.n))

    def __repr__(self):
        return f"Grid(n={self.n})"


def make_grid(n):
    """Build the uniform grid {0, 1/n, ..., 1}. n must be a positive integer."""
    return Grid(n)


def validate_stream(stream, d=None):
    """Check a stream of rounds, one pair of arrays (X, y): contexts X float
    (T, d), each finite with first coordinate exactly 1/2 and Euclidean norm
    at most 1, and outcomes y, one 0/1 entry per row. d, if given, must match.

    Returns (X as float, y as int). Raises ValueError on anything else, a
    list of (x, y) pairs included.
    """
    if not isinstance(stream, tuple) or len(stream) != 2:
        raise ValueError("a stream is one pair of arrays (X, y)")
    X, y = np.asarray(stream[0], dtype=float), np.asarray(stream[1])
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"contexts must be a (T, d) array, d >= 1, got "
                         f"shape {X.shape}")
    if d is not None and X.shape[1] != d:
        raise ValueError(f"context has dimension {X.shape[1]}, expected {d}")
    if not np.isfinite(X).all():
        raise ValueError("context has non-finite entries")
    if (X[:, 0] != 0.5).any():
        raise ValueError("context first coordinate must be exactly 0.5")
    nrm = float(np.linalg.norm(X, axis=1).max(initial=0.0))
    if nrm > 1.0 + CONTEXT_NORM_TOL:
        raise ValueError(f"context norm {nrm} exceeds 1")
    if y.shape != (len(X),) or not ((y == 0) | (y == 1)).all():
        raise ValueError("outcomes must be one 0/1 entry per context row")
    return X, y.astype(int)


def validate_context(x, d=None):
    """Check one context vector by the rule of validate_stream. Returns it as
    a float array; raises ValueError on violation."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("context must be a 1-d vector")
    validate_stream((x[None, :], np.zeros(1)), d)
    return x


def validate_outcome(y):
    """Check a binary outcome, returning it as int 0 or 1."""
    if isinstance(y, bool):
        return int(y)
    if isinstance(y, (int, np.integer)) and y in (0, 1):
        return int(y)
    if isinstance(y, (float, np.floating)) and y in (0.0, 1.0):
        return int(y)
    raise ValueError(f"outcome must be 0 or 1, got {y!r}")


# ---------------------------------------------------------------------------
# losses


def _sign_pos(s):
    # sign with sign(0) := +1, the convention used throughout
    return np.where(np.asarray(s) >= 0, 1.0, -1.0)


class LossSpec:
    """A loss ell(p, y) on p in [0,1], y in {0,1}, with values in [-1, 1].

    Kinds
    -----
    squared        (p - y)^2
    absolute       |p - y|
    vshaped        (v - y) * sign(p - v), sign(0) = +1; a proper-loss basis
                   element, not convex in p
    custom-convex  caller-supplied fn(p, y), declared convex; certified by
                   sampled midpoint checks (certify()) rather than symbolically

    lipschitz_bound records the Lipschitz constant in p (2 for squared, 1 for
    absolute and vshaped, caller-declared for custom losses).
    """

    __slots__ = ("kind", "v", "fn", "lipschitz_bound", "name")

    def __init__(self, kind, v=None, fn=None, lipschitz_bound=None, name=None):
        if kind not in ("squared", "absolute", "vshaped", "custom-convex"):
            raise ValueError(f"unknown loss kind {kind!r}")
        if kind == "vshaped":
            if v is None or not (0.0 <= float(v) <= 1.0):
                raise ValueError("vshaped loss needs a level v in [0, 1]")
            v = float(v)
        if kind == "custom-convex":
            if fn is None:
                raise ValueError("custom-convex loss needs an eval function")
            if lipschitz_bound is None:
                raise ValueError("custom-convex loss needs a declared lipschitz_bound")
        self.kind = kind
        self.v = v
        self.fn = fn
        if lipschitz_bound is None:
            lipschitz_bound = 2.0 if kind == "squared" else 1.0
        self.lipschitz_bound = float(lipschitz_bound)
        if name is None:
            name = kind if kind != "vshaped" else f"vshaped({v:g})"
        self.name = name

    def __call__(self, p, y):
        """Evaluate the loss. p and y may be scalars or broadcastable arrays."""
        p = np.asarray(p, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "squared":
            out = (p - y) ** 2
        elif self.kind == "absolute":
            out = np.abs(p - y)
        elif self.kind == "vshaped":
            out = (self.v - y) * _sign_pos(p - self.v)
        else:
            out = np.asarray(self.fn(p, y), dtype=float)
        if out.ndim == 0:
            return float(out)
        return out

    def deriv(self, p, y):
        """A subgradient of the loss in p (0 where the loss is locally flat).

        Custom losses fall back to a central finite difference, one-sided at
        the boundary of [0, 1].
        """
        p = np.asarray(p, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.kind == "squared":
            out = 2.0 * (p - y)
        elif self.kind == "absolute":
            out = np.where(p == y, 0.0, _sign_pos(p - y))
        elif self.kind == "vshaped":
            out = np.zeros(np.broadcast(p, y).shape)
        else:
            h = 1e-5
            lo = np.clip(p - h, 0.0, 1.0)
            hi = np.clip(p + h, 0.0, 1.0)
            out = (self(hi, y) - self(lo, y)) / np.maximum(hi - lo, 1e-300)
        out = np.asarray(out, dtype=float)
        if out.ndim == 0:
            return float(out)
        return out

    @property
    def convex(self):
        return self.kind in ("squared", "absolute", "custom-convex")

    def certify(self, resolution=1e-3, tol=1e-9):
        """Check boundedness, the declared Lipschitz bound, and (for convex
        kinds) midpoint convexity on the given p-grid. Raises ValueError on
        the first violation; returns a dict of the checked quantities.
        """
        p = np.linspace(0.0, 1.0, int(round(1.0 / resolution)) + 1)
        report = {"resolution": resolution}
        max_abs = 0.0
        max_slope = 0.0
        for y in (0, 1):
            vals = np.asarray(self(p, y), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"loss {self.name} is non-finite at some p, y={y}")
            max_abs = max(max_abs, float(np.max(np.abs(vals))))
            slopes = np.abs(np.diff(vals)) / np.diff(p)
            max_slope = max(max_slope, float(np.max(slopes)))
            if self.convex:
                # midpoint convexity over all grid pairs at stride 2, so the
                # midpoint of each pair is itself a grid point
                mid = vals[1:-1:1]
                left = vals[:-2]
                right = vals[2:]
                gap = mid - 0.5 * (left + right)
                if float(np.max(gap)) > tol:
                    raise ValueError(
                        f"loss {self.name} fails midpoint convexity by {np.max(gap):.3e}"
                    )
        if max_abs > 1.0 + tol:
            raise ValueError(f"loss {self.name} leaves [-1, 1]: max |value| {max_abs}")
        if self.kind != "vshaped" and max_slope > self.lipschitz_bound + 1e-6:
            raise ValueError(
                f"loss {self.name} violates declared Lipschitz bound: "
                f"{max_slope} > {self.lipschitz_bound}"
            )
        report["max_abs"] = max_abs
        report["max_slope"] = max_slope
        return report

    def __repr__(self):
        return f"LossSpec({self.name})"


def squared_loss():
    return LossSpec("squared")


def absolute_loss():
    return LossSpec("absolute")


def vshaped_loss(v):
    return LossSpec("vshaped", v=v)


def custom_loss(fn, lipschitz_bound, name="custom"):
    """Wrap a caller-supplied convex loss. fn must vectorize over p and y."""
    return LossSpec("custom-convex", fn=fn, lipschitz_bound=lipschitz_bound, name=name)


def loss_eval(loss, p, y):
    """Evaluate a loss at a single (p, y) with domain checks."""
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"prediction {p} outside [0, 1]")
    y = validate_outcome(y)
    return float(loss(p, y))


_POST_GRID = np.linspace(0.0, 1.0, 10001)


def post_process(loss, q):
    """Best response to a Bernoulli(q) outcome under the given loss.

    Returns argmin_p q*ell(p,1) + (1-q)*ell(p,0). Squared loss gives q
    itself; absolute loss thresholds at 1/2 (returning 1 on the boundary);
    everything else is minimized over a grid of step 1e-4, ties broken toward
    the lowest p.
    """
    q = float(q)
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"q={q} outside [0, 1]")
    if loss.kind == "squared":
        return q
    if loss.kind == "absolute":
        return 1.0 if q >= 0.5 else 0.0
    vals = q * loss(_POST_GRID, 1) + (1.0 - q) * loss(_POST_GRID, 0)
    return float(_POST_GRID[int(np.argmin(vals))])


# ---------------------------------------------------------------------------
# hypothesis classes


class LinearFn:
    """f(x) = <theta, x>. Accepts a single context or a batch (T, d)."""

    __slots__ = ("theta",)

    def __init__(self, theta):
        theta = np.asarray(theta, dtype=float)
        theta.flags.writeable = False
        self.theta = theta

    def __call__(self, x):
        return np.asarray(x, dtype=float) @ self.theta

    def __repr__(self):
        return f"LinearFn({np.array2string(self.theta, precision=4)})"


class HypothesisClass:
    """A comparator class for the metrics.

    kind is one of

    linear-ball(r)     f(x) = <theta, x>, ||theta|| <= r; suprema in closed
                       form via the support function
    affine-restricted  f(x) = (1 + <theta, x>)/2, ||theta|| <= 1; maps into
                       [0, 1]
    finite             f(x) = <theta_m, x> for each row of an explicit theta
                       stack thetas (M, d)
    cover(eps, r)      the eps-grid of theta over the radius-r ball, enumerated

    Finite and cover classes are enumerated: the metrics read their theta
    stacks member by member.
    """

    __slots__ = ("kind", "radius", "epsilon", "thetas")

    def __init__(self, kind, radius=None, epsilon=None, thetas=None):
        if kind not in ("linear-ball", "affine-restricted", "finite", "cover"):
            raise ValueError(f"unknown hypothesis class kind {kind!r}")
        if kind in ("linear-ball", "cover"):
            if radius is None or not 0 < radius < np.inf:
                raise ValueError(f"{kind} class needs a positive finite radius")
            radius = float(radius)
        if kind == "affine-restricted":
            radius = 1.0
        if kind == "cover":
            if epsilon is None or not 0 < epsilon < np.inf:
                raise ValueError("cover class needs a positive finite epsilon")
            epsilon = float(epsilon)
        if kind == "finite":
            try:
                thetas = np.array(thetas, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"finite class thetas must be an (M, d) "
                                 f"array: {exc}") from exc
            if thetas.ndim != 2 or not thetas.size:
                raise ValueError(f"finite class thetas must be a non-empty "
                                 f"(M, d) array, got shape {thetas.shape}")
            if not np.isfinite(thetas).all():
                raise ValueError("finite class thetas have non-finite entries")
            thetas.flags.writeable = False
        self.kind = kind
        self.radius = radius
        self.epsilon = epsilon
        self.thetas = thetas

    @property
    def enumerated(self):
        return self.kind in ("finite", "cover")

    def descriptor(self):
        if self.kind == "linear-ball":
            return f"linear-ball(r={self.radius:g})"
        if self.kind == "affine-restricted":
            return "affine-restricted"
        if self.kind == "cover":
            return f"cover(eps={self.epsilon:g}, r={self.radius:g})"
        return f"finite(m={len(self.thetas)})"

    def __repr__(self):
        return f"HypothesisClass({self.descriptor()})"


def linear_ball(radius):
    return HypothesisClass("linear-ball", radius=radius)


def affine_restricted():
    return HypothesisClass("affine-restricted")


def finite_class(thetas):
    return HypothesisClass("finite", thetas=thetas)


def cover_class(epsilon, radius):
    return HypothesisClass("cover", epsilon=epsilon, radius=radius)


def cover_thetas(epsilon, radius, d, cap=MEMBER_CAP):
    """Theta vectors of the eps-cover of the radius-r ball in dimension d.

    Axis grid of step min(eps, 2*eps/sqrt(d)) over [-r, r]^d; grid points
    outside the ball are projected onto the sphere (non-expansive, so every
    theta in the ball stays within eps of some member). Raises
    ResourceLimitError if the enumeration would exceed cap points.
    """
    if d < 1:
        raise ValueError("dimension must be positive")
    step = min(epsilon, 2.0 * epsilon / np.sqrt(d))
    m = int(np.floor(2.0 * radius / step + 1e-9)) + 1
    if m ** d > cap:
        raise ResourceLimitError(
            f"cover enumeration needs {m}^{d} > {cap} members; "
            "raise epsilon or use a smaller class"
        )
    axis = -radius + step * np.arange(m)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    thetas = np.stack([g.ravel() for g in grids], axis=1)
    norms = np.linalg.norm(thetas, axis=1)
    outside = norms > radius
    if np.any(outside):
        thetas[outside] *= (radius / norms[outside])[:, None]
    return thetas


# ---------------------------------------------------------------------------
# transcripts


def _first_non_index(values, hi):
    """Position of the first entry of the float array values that is not an
    integer in [0, hi], or -1."""
    ok = (values >= 0) & (values <= hi) & (values == np.floor(values))
    return -1 if ok.all() else int(ok.argmin())


class Transcript:
    """A complete forecasting run, stored columnwise.

    contexts is (T, d), cond_dists is (T, n+1) with rows on the simplex,
    sampled_indices and outcomes are (T,). q_stacks (T, n+1, n+1) and w_mat
    (T, n+1) hold the per-round column-stochastic matrices and the raw
    per-cell predictions when the run kept them.
    """

    __slots__ = ("grid", "contexts", "cond_dists", "sampled_indices", "outcomes",
                 "seed", "q_stacks", "w_mat")

    def __init__(self, grid, contexts, cond_dists, sampled_indices, outcomes,
                 seed=None, q_stacks=None, w_mat=None):
        self.grid = grid
        self.contexts = np.asarray(contexts, dtype=float)
        self.cond_dists = np.asarray(cond_dists, dtype=float)
        # checked before the int cast, so a fractional entry is rejected
        pi, y = (np.asarray(a, dtype=float).reshape(-1)
                 for a in (sampled_indices, outcomes))
        for values, hi, what in ((pi, grid.n, "sampled index"),
                                 (y, 1, "outcome")):
            k = _first_non_index(values, hi)
            if k >= 0:
                raise ValueError(f"{what} {values[k]} at position {k} is "
                                 f"not an integer in [0, {hi}]")
        self.sampled_indices, self.outcomes = pi.astype(int), y.astype(int)
        self.seed = seed
        self.q_stacks = None if q_stacks is None else np.asarray(q_stacks, dtype=float)
        self.w_mat = None if w_mat is None else np.asarray(w_mat, dtype=float)
        T = self.horizon
        for arr, name in ((self.cond_dists, "cond_dists"),
                          (self.sampled_indices, "sampled_indices"),
                          (self.outcomes, "outcomes")):
            if len(arr) != T:
                raise ValueError(f"{name} has length {len(arr)}, expected {T}")
        if T == 0:
            return
        if self.cond_dists.shape != (T, self.grid.size):
            raise ValueError("cond_dists shape does not match (T, grid size)")
        sums = self.cond_dists.sum(axis=1)
        if np.max(np.abs(sums - 1.0)) > COND_DIST_TOL:
            raise ValueError("some conditional distribution does not sum to 1")
        if self.cond_dists.min() < -1e-12:
            raise ValueError("negative conditional probability")
        validate_stream((self.contexts, self.outcomes))

    @property
    def horizon(self):
        return len(self.contexts)

    @property
    def d(self):
        return self.contexts.shape[1]

    @property
    def predictions(self):
        """Realized grid values z_{pi_t}, shape (T,)."""
        return self.grid.points[self.sampled_indices]

    def __len__(self):
        return self.horizon

    def write_jsonl(self, path):
        """Persist as JSON lines: a header {"N","d","T","seed"} followed by one
        record {"t","x","P","pi","y"} per round (t is 1-based). Q matrices are
        not part of the format."""
        with open(path, "w", encoding="utf-8") as fh:
            header = {"N": self.grid.n, "d": self.d, "T": self.horizon,
                      "seed": self.seed}
            fh.write(json.dumps(header, separators=(",", ":")) + "\n")
            for t in range(self.horizon):
                rec = {"t": t + 1,
                       "x": [float(v) for v in self.contexts[t]],
                       "P": [float(v) for v in self.cond_dists[t]],
                       "pi": int(self.sampled_indices[t]),
                       "y": int(self.outcomes[t])}
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")

    @classmethod
    def read_jsonl(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in (s.strip() for s in fh) if ln]
        if not lines:
            raise FormatError(f"{path}: empty transcript file")
        try:
            header = json.loads(lines[0])
            n, d, T = int(header["N"]), int(header["d"]), int(header["T"])
            seed = header.get("seed")
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}: bad header line: {exc}") from exc
        if len(lines) - 1 != T:
            raise FormatError(f"{path}: header says T={T} but file has "
                              f"{len(lines) - 1} step records")
        grid = Grid(n) if n >= 1 else None
        if grid is None:
            raise FormatError(f"{path}: header N must be >= 1")
        X = np.zeros((T, d))
        P = np.zeros((T, n + 1))
        pi = np.zeros(T)
        y = np.zeros(T)
        for k, ln in enumerate(lines[1:]):
            try:
                rec = json.loads(ln)
                X[k] = rec["x"]
                P[k] = rec["P"]
                pi[k] = rec["pi"]
                y[k] = rec["y"]
            except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                    OverflowError) as exc:
                raise FormatError(f"{path}: bad step record on line {k + 2}: {exc}") \
                    from exc
        for key, values, hi in (("pi", pi, n), ("y", y, 1)):
            k = _first_non_index(values, hi)
            if k >= 0:
                raise FormatError(f"{path}: bad step record on line {k + 2}: "
                                  f"{key} {values[k]} is not an integer in "
                                  f"[0, {hi}]")
        return cls(grid, X, P, pi, y, seed=seed)
