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
from itertools import chain, islice

import numpy as np

from .errors import FormatError, ResourceLimitError

CONTEXT_NORM_TOL = 1e-9
COND_DIST_TOL = 1e-9

#: enumeration cap for cover classes and evaluation covers, for the entries
#: of the forecaster's per-round K x K rounding matrix, and for the points of
#: a Grid, which raises before it allocates them
MEMBER_CAP = 10 ** 6


def as_int(value, what, low):
    """A count, size, seed or index as an int: a Python or numpy integer,
    not a bool, at least low (None, 0 or 1); else ValueError naming what."""
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and (low is None or value >= low)):
        return int(value)
    kind = {None: "an", 0: "a non-negative", 1: "a positive"}[low]
    raise ValueError(f"{what} must be {kind} integer, got {value!r}")


class Grid:
    """Uniform prediction grid with n+1 points i/n, i = 0..n."""

    __slots__ = ("n", "points")

    def __init__(self, n):
        self.n = as_int(n, "grid resolution", 1)
        if self.n + 1 > MEMBER_CAP:
            raise ResourceLimitError(f"N = {n} needs over {MEMBER_CAP} grid "
                                     "points")
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
    check_contexts(X)
    if y.shape != (len(X),) or not ((y == 0) | (y == 1)).all():
        raise ValueError("outcomes must be one 0/1 entry per context row")
    return X, y.astype(int)


def check_contexts(X):
    """Raise ValueError unless each context in the float array X, (d,) or
    (T, d), is finite with first coordinate exactly 1/2 and norm at most 1
    (up to CONTEXT_NORM_TOL); a valid (d,) passes by one dot product."""
    if X.ndim == 1 and X[0] == 0.5 and X @ X <= (1 + CONTEXT_NORM_TOL) ** 2:
        return
    X = np.atleast_2d(X)
    if not np.isfinite(X).all():
        raise ValueError("context has non-finite entries")
    if (X[:, 0] != 0.5).any():
        raise ValueError("context first coordinate must be exactly 0.5")
    nrm = float(np.linalg.norm(X, axis=1).max(initial=0.0))
    if nrm > 1.0 + CONTEXT_NORM_TOL:
        raise ValueError(f"context norm {nrm} exceeds 1")


def validate_outcome(y):
    """Check a binary outcome: a Python or numpy integer or float (a bool
    too) equal to 0 or 1, returned as int 0 or 1."""
    if isinstance(y, (int, float, np.integer, np.floating)) and y in (0, 1):
        return int(y)
    raise ValueError(f"outcome must be 0 or 1, got {y!r}")


# ---------------------------------------------------------------------------
# losses


def _floats(fn, p, y):
    # fn on p and y as float arrays: a float if 0-d, else a float array
    p, y = np.asarray(p, dtype=float), np.asarray(y, dtype=float)
    out = np.asarray(fn(p, y), dtype=float)
    return float(out) if out.ndim == 0 else out


_POST_GRID = np.linspace(0.0, 1.0, 10001)


class LossSpec:
    """A loss ell(p, y) on p in [0,1], y in {0,1}, with values in [-1, 1].

    kind           value; subgradient in p; best response to Bernoulli(q)
    squared        (p - y)^2; 2 (p - y); q
    absolute       |p - y|; sign(p - y); 1 if q >= 1/2 else 0
    vshaped        (v - y) sign(p - v), sign(0) = +1, a proper-loss basis
                   element, not convex in p; 0; v if q > v else 0
    custom-convex  fn(p, y), declared convex, certified by sampled midpoint
                   checks (certify()); a central finite difference,
                   one-sided at 0 and 1; the least minimizer on a 1e-4 grid

    The constructor resolves the kind to these three functions, convex and
    the Lipschitz constant in p, lipschitz_bound (2 for squared, 1 for
    absolute and vshaped, caller-declared for custom losses).
    """

    __slots__ = ("kind", "v", "fn", "lipschitz_bound", "name", "convex",
                 "_value", "_deriv", "_best")

    def __init__(self, kind, v=None, fn=None, lipschitz_bound=None, name=None):
        if kind == "squared":
            funcs = self._squared, self._squared_deriv, float
        elif kind == "absolute":
            funcs = self._absolute, self._absolute_deriv, self._threshold
        elif kind == "vshaped":
            if v is None or not (0.0 <= float(v) <= 1.0):
                raise ValueError("vshaped loss needs a level v in [0, 1]")
            v = float(v)
            funcs = self._vshaped, self._flat, self._vshaped_best
            name = f"vshaped({v:g})" if name is None else name
        elif kind == "custom-convex":
            if fn is None:
                raise ValueError("custom-convex loss needs an eval function")
            if lipschitz_bound is None:
                raise ValueError("custom-convex loss needs a declared lipschitz_bound")
            funcs = fn, self._difference, self._grid_best
        else:
            raise ValueError(f"unknown loss kind {kind!r}")
        self._value, self._deriv, self._best = funcs
        self.kind, self.v, self.fn = kind, v, fn
        self.convex = kind != "vshaped"
        if lipschitz_bound is None:
            lipschitz_bound = 2.0 if kind == "squared" else 1.0
        self.lipschitz_bound = float(lipschitz_bound)
        self.name = kind if name is None else name

    def __call__(self, p, y):
        """Evaluate the loss. p and y may be scalars or broadcastable arrays."""
        return _floats(self._value, p, y)

    def deriv(self, p, y):
        """A subgradient of the loss in p, shaped as the loss value."""
        return _floats(self._deriv, p, y)

    def post_process(self, q):
        """Best response to a Bernoulli(q) outcome, q in [0, 1]: the least
        minimizer of q*ell(p,1) + (1-q)*ell(p,0), except that absolute loss
        returns 1 at q = 1/2."""
        q = float(q)
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"q={q} outside [0, 1]")
        return self._best(q)

    # the kinds' functions, on float arrays p and y or a float q in [0, 1]

    def _squared(self, p, y):
        return (p - y) ** 2

    def _squared_deriv(self, p, y):
        return 2.0 * (p - y)

    def _absolute(self, p, y):
        return np.abs(p - y)

    def _absolute_deriv(self, p, y):
        return np.sign(p - y)

    def _threshold(self, q):
        return 1.0 if q >= 0.5 else 0.0

    def _vshaped(self, p, y):
        return (self.v - y) * np.where(p - self.v >= 0, 1.0, -1.0)

    def _flat(self, p, y):
        return np.zeros(np.broadcast(p, y).shape)

    def _vshaped_best(self, q):
        return self.v if q > self.v else 0.0

    def _difference(self, p, y):
        h = 1e-5
        lo, hi = np.clip(p - h, 0.0, 1.0), np.clip(p + h, 0.0, 1.0)
        return (self(hi, y) - self(lo, y)) / np.maximum(hi - lo, 1e-300)

    def _grid_best(self, q):
        vals = q * self(_POST_GRID, 1) + (1.0 - q) * self(_POST_GRID, 0)
        return float(_POST_GRID[int(np.argmin(vals))])

    def certify(self):
        """Check boundedness, the declared Lipschitz bound, and (for convex
        kinds) midpoint convexity to 1e-9 on a p-grid of step 1e-3. Raises
        ValueError on the first violation; returns the checked quantities.
        """
        p = np.linspace(0.0, 1.0, 1001)
        max_abs = max_slope = 0.0
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
                gap = vals[1:-1] - 0.5 * (vals[:-2] + vals[2:])
                if float(np.max(gap)) > 1e-9:
                    raise ValueError(f"loss {self.name} fails midpoint "
                                     f"convexity by {np.max(gap):.3e}")
        if max_abs > 1.0 + 1e-9:
            raise ValueError(f"loss {self.name} leaves [-1, 1]: max |value| {max_abs}")
        if self.convex and max_slope > self.lipschitz_bound + 1e-6:
            raise ValueError(f"loss {self.name} violates declared Lipschitz "
                             f"bound: {max_slope} > {self.lipschitz_bound}")
        return {"resolution": 1e-3, "max_abs": max_abs, "max_slope": max_slope}

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

    Every f is offset + scale <theta, x> (1/2 and 1/2 for the affine class,
    else 0 and 1); a ball kind is that map over ||theta|| <= radius, named
    in notes by the phrase functions. Finite and cover classes are
    enumerated: the metrics read their theta stacks member by member.
    """

    __slots__ = ("kind", "radius", "epsilon", "thetas", "offset", "scale",
                 "functions", "_descriptor")

    def __init__(self, kind, radius=None, epsilon=None, thetas=None):
        if kind in ("linear-ball", "cover") and (
                radius is None or not 0 < radius < np.inf):
            raise ValueError(f"{kind} class needs a positive finite radius")
        self.offset, self.scale, self.functions = 0.0, 1.0, None
        if kind == "linear-ball":
            radius = float(radius)
            self.functions = f"||theta|| <= {radius:g}"
            self._descriptor = f"linear-ball(r={radius:g})"
        elif kind == "affine-restricted":
            radius, self.offset, self.scale = 1.0, 0.5, 0.5
            self.functions = ("the affine class (1 + <theta, x>)/2, "
                              "||theta|| <= 1")
            self._descriptor = kind
        elif kind == "cover":
            if epsilon is None or not 0 < epsilon < np.inf:
                raise ValueError("cover class needs a positive finite epsilon")
            radius, epsilon = float(radius), float(epsilon)
            self._descriptor = f"cover(eps={epsilon:g}, r={radius:g})"
        elif kind == "finite":
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
            self._descriptor = f"finite(m={len(thetas)})"
        else:
            raise ValueError(f"unknown hypothesis class kind {kind!r}")
        self.kind, self.radius = kind, radius
        self.epsilon, self.thetas = epsilon, thetas

    @property
    def enumerated(self):
        return self.kind in ("finite", "cover")

    def descriptor(self):
        return self._descriptor

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
    theta in the ball stays within eps of some member); d follows as_int.
    Raises ResourceLimitError if the enumeration would exceed cap points.
    """
    d = as_int(d, "dimension", 1)
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


#: records per block of Transcript.write_jsonl and read_jsonl
JSONL_BLOCK = 256
_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
_DECODE = json.JSONDecoder().raw_decode
# RecursionError: json's scanner on a deeply nested list
_BAD_RECORD = (KeyError, TypeError, ValueError, OverflowError, RecursionError)


def _decode_block(lines, d, n):
    """The float columns (X, P, pi, y) of a block of record lines, each one
    JSON object (json.loads' rule on a stripped line) whose x and P are
    lists of d and n + 1 JSON numbers within float range and whose pi and y
    are integers in [0, n] and [0, 1]; other keys are ignored. Else one of
    _BAD_RECORD is raised, and some line of the block fails alone too."""
    pairs = [_DECODE(ln) for ln in lines]
    for (_, end), ln in zip(pairs, lines):
        if end != len(ln):
            json.loads(ln)  # raises json's own "Extra data" error
    # true, false and null each hold a "u" or an "l", a written record
    # neither; numpy reads a bool among numbers as a number
    text = "".join(lines)
    check_each = "u" in text or "l" in text
    cols = []
    for key, shape, hi in (("x", (d,), None), ("P", (n + 1,), None),
                           ("pi", (), n), ("y", (), 1)):
        values = [rec[key] for rec, _ in pairs]
        col = np.array(values)
        if col.shape[1:] != shape:
            raise ValueError(f"{key} needs {shape[0]} entries" if shape
                             else f"{key} needs a number")
        # a string reads as dtype "<U", null or a huge integer as object
        if (check_each or col.dtype.kind not in "iuf") and not all(
                type(v) in (int, float)
                for v in (chain.from_iterable(values) if shape else values)):
            raise TypeError(f"{key} needs JSON numbers")
        col = col.astype(float, copy=False)  # OverflowError past float range
        if hi is not None and (k := _first_non_index(col, hi)) >= 0:
            raise ValueError(f"{key} {col[k]} is not an integer in [0, {hi}]")
        cols.append(col)
    return tuple(cols)


def _decode_lines(path, lines, first, d, n):
    """_decode_block(lines, d, n), or FormatError naming the first line that
    fails alone (lines[0] is line first), caused by that line's error."""
    try:
        return _decode_block(lines, d, n)
    except _BAD_RECORD:
        for k, ln in enumerate(lines, first):
            try:
                _decode_block([ln], d, n)
            except _BAD_RECORD as exc:
                raise FormatError(f"{path}: bad step record on line {k}: "
                                  f"{exc}") from exc


class Transcript:
    """A complete forecasting run, stored columnwise.

    contexts is (T, d), cond_dists is (T, n+1) with rows on the simplex,
    sampled_indices and outcomes are (T,): exactly the fields of the JSONL
    file, plus the grid its header's N names; seed is None or an int >= 0.
    """

    __slots__ = ("grid", "contexts", "cond_dists", "sampled_indices", "outcomes",
                 "seed")

    def __init__(self, grid, contexts, cond_dists, sampled_indices, outcomes,
                 seed=None):
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
        self.seed = None if seed is None else as_int(seed, "seed", 0)
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
        sums, mins = self.cond_dists.sum(axis=1), self.cond_dists.min(axis=1)
        for ok, what in ((np.abs(sums - 1.0) <= COND_DIST_TOL,
                          "conditional distribution does not sum to 1"),
                         (mins >= -1e-12, "negative conditional probability")):
            if not ok.all():  # NaN fails both checks
                raise ValueError(f"{what} at position {ok.argmin()}")
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
        record {"t","x","P","pi","y"} per round (t is 1-based), written
        JSONL_BLOCK records at a time. A header that cannot be written
        leaves no file behind."""
        header = _ENCODE({"N": self.grid.n, "d": self.d, "T": self.horizon,
                          "seed": self.seed})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for t0 in range(0, self.horizon, JSONL_BLOCK):
                cols = (a[t0:t0 + JSONL_BLOCK].tolist() for a in (
                    self.contexts, self.cond_dists, self.sampled_indices,
                    self.outcomes))
                fh.write("".join(
                    _ENCODE({"t": t, "x": x, "P": p, "pi": i, "y": y}) + "\n"
                    for t, (x, p, i, y) in enumerate(zip(*cols), t0 + 1)))

    @classmethod
    def read_jsonl(cls, path):
        """Read a write_jsonl file; header N, d, T and seed follow as_int.

        Records are decoded JSONL_BLOCK at a time (_decode_lines). Checks
        keep the order of a whole-file read: the record count, N and the grid
        cap come before the first bad record; line numbers count non-blank
        lines. A FormatError naming the file wraps a constructor ValueError."""
        with open(path, "r", encoding="utf-8") as fh:
            lines = filter(None, map(str.strip, fh))
            head = next(lines, None)
            if head is None:
                raise FormatError(f"{path}: empty transcript file")
            try:
                head = json.loads(head)
                n, d, T = (as_int(head[key], f"header {key}", low)
                           for key, low in (("N", None), ("d", 1), ("T", 0)))
                seed = head.get("seed")
                seed = seed if seed is None else as_int(seed, "header seed", 0)
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise FormatError(f"{path}: bad header line: {exc}") from exc
            blocks, count, error = [], 0, None
            while block := list(islice(lines, JSONL_BLOCK)):
                count += len(block)
                # past T records the count check fails: decode no further
                if error is None and count <= T:
                    first = count - len(block) + 2  # the header is line 1
                    try:
                        blocks.append(_decode_lines(path, block, first, d, n))
                    except FormatError as exc:
                        error = exc
        if count != T:
            raise FormatError(f"{path}: header says T={T} but file has "
                              f"{count} step records")
        if n < 1:
            raise FormatError(f"{path}: header N must be >= 1")
        grid = Grid(n)
        if error is not None:
            raise error
        empty = (np.zeros((0, d)), np.zeros((0, n + 1)), np.zeros(0),
                 np.zeros(0))
        X, P, pi, y = (np.concatenate(c) for c in zip(empty, *blocks))
        del blocks  # before Transcript's checks take their own copies
        try:
            return cls(grid, X, P, pi, y, seed=seed)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc
