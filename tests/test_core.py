import hashlib
import json

import numpy as np
import pytest

from swapcal import (FormatError, LinearFn, ResourceLimitError, Transcript,
                     absolute_loss, cover_class, cover_thetas,
                     custom_loss, finite_class, linear_ball, make_grid,
                     squared_loss, validate_outcome, validate_stream,
                     vshaped_loss)
from swapcal.core import (JSONL_BLOCK, MEMBER_CAP, HypothesisClass, LossSpec,
                          affine_restricted, as_int)
from swapcal.verify import post_process


def test_grid_points():
    g = make_grid(4)
    assert g.n == 4
    assert g.size == 5
    np.testing.assert_array_equal(g.points, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_points_are_immutable():
    g = make_grid(3)
    with pytest.raises(ValueError):
        g.points[0] = 0.7


def test_grid_rejects_bad_resolution():
    for bad in (0, -1, 2.5, True, "3", None):
        with pytest.raises(ValueError):
            make_grid(bad)


def test_grid_caps_its_points():
    """Grid holds at most MEMBER_CAP points and raises before it allocates
    them."""
    assert make_grid(MEMBER_CAP - 1).size == MEMBER_CAP
    with pytest.raises(ResourceLimitError, match="grid points"):
        make_grid(MEMBER_CAP)


def test_grid_equality_and_hash():
    assert make_grid(5) == make_grid(5)
    assert make_grid(5) != make_grid(6)
    assert hash(make_grid(5)) == hash(make_grid(5))
    assert make_grid(2) != "Grid(2)"


def test_validate_stream_accepts_arrays():
    X = np.array([[0.5, 0.5], [0.5, -0.2]])
    got_X, got_y = validate_stream((X, np.array([1.0, 0.0])), d=2)
    assert got_X is X
    assert got_y.dtype.kind == "i" and got_y.tolist() == [1, 0]
    X0, y0 = validate_stream((np.zeros((0, 3)), np.zeros(0, dtype=int)))
    assert X0.shape == (0, 3) and y0.shape == (0,)


@pytest.mark.parametrize("stream, d, match", [
    ([(np.array([0.5, 0.0]), 1)], None, "pair of arrays"),   # list of pairs
    ([np.array([[0.5, 0.0]]), np.array([1])], None, "pair of arrays"),
    ((np.array([[0.4, 0.0]]), np.array([1])), None, "0.5"),   # pin
    ((np.array([[0.5, 0.9]]), np.array([1])), None, "norm"),  # norm > 1
    ((np.array([[0.5, np.nan]]), np.array([1])), None, "non-finite"),
    ((np.array([[0.5, 0.0]]), np.array([2])), None, "0/1"),   # not a bit
    ((np.array([[0.5, 0.0]]), np.array([0.5])), None, "0/1"),
    ((np.array([[0.5, 0.0]] * 2), np.array([1])), None, "0/1"),  # lengths
    ((np.array([[0.5, 0.0]]), np.array([[1]])), None, "0/1"),
    ((np.array([[0.5, 0.0]]), np.array([1])), 3, "dimension"),  # wrong d
    ((np.array([0.5, 0.0]), np.array([1, 0])), None, r"\(T, d\)"),  # 1-d X
])
def test_validate_stream_rejections(stream, d, match):
    with pytest.raises(ValueError, match=match):
        validate_stream(stream, d)


def test_validate_outcome():
    assert validate_outcome(0) == 0
    assert validate_outcome(1) == 1
    assert validate_outcome(np.int64(1)) == 1
    assert validate_outcome(1.0) == 1
    assert validate_outcome(True) == 1
    for bad in (2, -1, 0.5, "1", None):
        with pytest.raises(ValueError):
            validate_outcome(bad)


# ---------------------------------------------------------------------------
# losses


def test_squared_and_absolute_values():
    sq, ab = squared_loss(), absolute_loss()
    assert sq(0.3, 1) == pytest.approx(0.49)
    assert sq(0.3, 0) == pytest.approx(0.09)
    assert ab(0.3, 1) == pytest.approx(0.7)
    assert ab(1.0, 1) == 0.0
    assert sq.lipschitz_bound == 2.0
    assert ab.lipschitz_bound == 1.0


def test_vshaped_values():
    """ell_v(p, y) = (v - y) sign(p - v), with sign(0) = +1."""
    lv = vshaped_loss(0.5)
    assert lv(0.7, 0) == 0.5
    assert lv(0.3, 0) == -0.5
    assert lv(0.5, 0) == 0.5      # boundary takes the + branch
    assert lv(0.5, 1) == -0.5
    assert vshaped_loss(0.25)(0.1, 1) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        vshaped_loss(1.5)


def test_loss_vectorizes():
    sq = squared_loss()
    p = np.array([0.0, 0.5, 1.0])
    out = sq(p, 1)
    np.testing.assert_allclose(out, [1.0, 0.25, 0.0])
    assert isinstance(sq(0.5, 1), float)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(0)
    smooth = custom_loss(lambda p, y: 0.5 * (p - y) ** 2, lipschitz_bound=1.0)
    for loss in (squared_loss(), smooth):
        for _ in range(50):
            p = float(rng.uniform(0.05, 0.95))
            y = int(rng.integers(0, 2))
            h = 1e-6
            num = (loss(p + h, y) - loss(p - h, y)) / (2 * h)
            assert loss.deriv(p, y) == pytest.approx(num, abs=1e-4)


def test_absolute_derivative_convention():
    ab = absolute_loss()
    assert ab.deriv(0.7, 1) == -1.0
    assert ab.deriv(0.7, 0) == 1.0
    assert ab.deriv(1.0, 1) == 0.0    # flat point reports 0
    # arrays: the two-branch rule, 0 at p == y (0 and 1 included) and
    # sign(p - y) elsewhere, with no negative zero
    p = np.array([0.0, 1.0, 0.0, 1.0, 0.3, 0.7, 0.5, -0.0, 1e-300])
    y = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.5, 0.0, 0.0])
    want = np.where(p == y, 0.0, np.where(p - y >= 0, 1.0, -1.0))
    got = ab.deriv(p, y)
    assert np.array_equal(got, want)
    assert not np.signbit(got[p == y]).any()
    assert isinstance(ab.deriv(0.5, 0.5), float)


def test_vshaped_derivative_is_zero():
    assert vshaped_loss(0.5).deriv(0.3, 1) == 0.0


def test_certify_accepts_builtin_losses():
    for loss in (squared_loss(), absolute_loss(), vshaped_loss(0.25)):
        rep = loss.certify()
        assert rep["max_abs"] <= 1.0 + 1e-9


def test_certify_rejects_nonconvex_custom():
    bumpy = custom_loss(lambda p, y: np.sin(6 * np.pi * p) * 0.5,
                        lipschitz_bound=10.0)
    with pytest.raises(ValueError):
        bumpy.certify()


def test_certify_rejects_unbounded_custom():
    big = custom_loss(lambda p, y: 3.0 * (p - y) ** 2, lipschitz_bound=6.0)
    with pytest.raises(ValueError):
        big.certify()


def test_certify_rejects_understated_lipschitz():
    lying = custom_loss(lambda p, y: (p - y) ** 2, lipschitz_bound=0.5)
    with pytest.raises(ValueError):
        lying.certify()


# ---------------------------------------------------------------------------
# best responses


def test_post_process_squared_is_identity():
    rng = np.random.default_rng(1)
    for q in rng.random(20):
        assert squared_loss().post_process(float(q)) == float(q)


def test_post_process_absolute_thresholds():
    ab = absolute_loss()
    assert ab.post_process(0.49) == 0.0
    assert ab.post_process(0.5) == 1.0
    assert ab.post_process(0.51) == 1.0


def test_post_process_matches_grid_minimum():
    ok, detail = post_process(
        np.random.default_rng(2),
        (vshaped_loss(0.25), vshaped_loss(0.75),
         custom_loss(lambda p, y: 0.5 * (p - y) ** 2, 1.0)), 10)
    assert ok, detail


def _grid_post_process(loss, q, grid=np.linspace(0.0, 1.0, 10001)):
    """The lowest minimizer of the expected loss over a 1e-4 grid."""
    return float(grid[int(np.argmin(q * loss(grid, 1) + (1 - q) * loss(grid, 0)))])


def test_post_process_vshaped_closed_form_matches_grid():
    qs = np.linspace(0.0, 1.0, 401)
    for v in (0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 0.33333, 0.123456):
        loss = vshaped_loss(v)
        for q in qs:
            k, want = loss.post_process(float(q)), _grid_post_process(loss, q)
            assert k == (v if q > v else 0.0)
            assert loss(k, 1) == loss(want, 1) and loss(k, 0) == loss(want, 0)
            if v * 10000 == round(v * 10000):   # v is a grid point
                assert k == want, (v, q)


def test_post_process_breaks_ties_low():
    flat = custom_loss(lambda p, y: np.zeros_like(np.asarray(p, dtype=float)),
                       lipschitz_bound=1.0)
    assert flat.post_process(0.3) == 0.0


def test_post_process_rejects_bad_q():
    with pytest.raises(ValueError):
        squared_loss().post_process(1.5)


def _half_squared(p, y):
    return 0.5 * (p - y) ** 2


def _reference_loss(kind, v, fn, p, y):
    """The value, the subgradient and the q -> best response map of one
    loss, each kind's formula written out on float arrays."""
    if kind == "squared":
        return (p - y) ** 2, 2.0 * (p - y), lambda q: q
    if kind == "absolute":
        return (np.abs(p - y), np.sign(p - y),
                lambda q: 1.0 if q >= 0.5 else 0.0)
    if kind == "vshaped":
        return ((v - y) * np.where(p - v >= 0, 1.0, -1.0),
                np.zeros(np.broadcast(p, y).shape),
                lambda q: v if q > v else 0.0)
    h = 1e-5
    lo, hi = np.clip(p - h, 0.0, 1.0), np.clip(p + h, 0.0, 1.0)
    grid = np.linspace(0.0, 1.0, 10001)
    return ((fn(p, y), (fn(hi, y) - fn(lo, y)) / np.maximum(hi - lo, 1e-300),
             lambda q: float(grid[int(np.argmin(q * fn(grid, 1.0)
                                                + (1.0 - q) * fn(grid, 0.0)))])))


@pytest.mark.parametrize("loss", [
    squared_loss(), absolute_loss(), vshaped_loss(0.0), vshaped_loss(0.3),
    vshaped_loss(1.0), custom_loss(_half_squared, lipschitz_bound=1.0)],
    ids=lambda loss: loss.name)
def test_loss_kinds_match_their_formulas_bit_for_bit(loss):
    """Value, subgradient and best response of every kind equal the
    formulas of the class docstring bit for bit, on arrays and on scalars
    (as floats), boundaries and kinks included."""
    rng = np.random.default_rng(8)
    p = np.concatenate([[0.0, 1e-6, 0.3, 0.5, 1.0 - 1e-6, 1.0],
                        rng.random(50)])
    for y in (0.0, 1.0):
        value, deriv, best = _reference_loss(loss.kind, loss.v, loss.fn, p, y)
        assert np.array_equal(loss(p, y), value)
        assert np.array_equal(loss.deriv(p, y), deriv)
        for k in (0, 2, 3, 5):
            # numpy may square a scalar otherwise than an array
            value, deriv, _ = _reference_loss(loss.kind, loss.v, loss.fn,
                                              np.asarray(p[k]), np.asarray(y))
            assert loss(p[k], int(y)) == value
            assert loss.deriv(p[k], int(y)) == deriv
            assert isinstance(loss.deriv(p[k], int(y)), float)
    for q in np.concatenate([[0.0, 0.3, 0.5, 1.0], rng.random(20)]):
        assert loss.post_process(q) == best(float(q))
        assert isinstance(loss.post_process(q), float)


def test_builtin_losses_pickle():
    import pickle

    p = np.linspace(0.0, 1.0, 101)
    for loss in (squared_loss(), absolute_loss(), vshaped_loss(0.25),
                 LossSpec("vshaped", v=0.5, name="v-half")):
        back = pickle.loads(pickle.dumps(loss))
        assert (back.kind, back.v, back.name, back.convex,
                back.lipschitz_bound) == (loss.kind, loss.v, loss.name,
                                          loss.convex, loss.lipschitz_bound)
        for y in (0, 1):
            assert np.array_equal(back(p, y), loss(p, y))
            assert np.array_equal(back.deriv(p, y), loss.deriv(p, y))
        assert [back.post_process(q) for q in p] == \
            [loss.post_process(q) for q in p]


# ---------------------------------------------------------------------------
# hypothesis classes


def test_linear_fn_batches():
    f = LinearFn([1.0, -2.0])
    assert f(np.array([0.5, 0.25])) == pytest.approx(0.0)
    out = f(np.array([[0.5, 0.0], [0.5, 0.5]]))
    np.testing.assert_allclose(out, [0.5, -0.5])


def test_class_descriptors():
    assert linear_ball(1.0).descriptor() == "linear-ball(r=1)"
    assert affine_restricted().descriptor() == "affine-restricted"
    assert cover_class(0.5, 2.0).descriptor() == "cover(eps=0.5, r=2)"
    assert finite_class([[1.0]]).descriptor() == "finite(m=1)"
    # each class maps f = offset + scale <theta, x>; a ball's phrase names it
    for hc, want in (
            (linear_ball(4.0), (0.0, 1.0, 4.0, "||theta|| <= 4")),
            (affine_restricted(), (0.5, 0.5, 1.0, "the affine class "
                                   "(1 + <theta, x>)/2, ||theta|| <= 1")),
            (cover_class(0.5, 2.0), (0.0, 1.0, 2.0, None)),
            (finite_class([[1.0]]), (0.0, 1.0, None, None))):
        assert (hc.offset, hc.scale, hc.radius, hc.functions) == want


def test_class_constructor_rejections():
    with pytest.raises(ValueError, match="unknown hypothesis class kind"):
        HypothesisClass("ball", radius=1.0)
    with pytest.raises(ValueError):
        linear_ball(0.0)
    with pytest.raises(ValueError):
        cover_class(-1.0, 1.0)
    for bad in ([], np.zeros((0, 2)), [1.0, 0.0], [[1.0, 0.0], [1.0]],
                [[0.5, "x"]], None):
        with pytest.raises(ValueError, match="finite class"):
            finite_class(bad)
    for bad in ([[float("nan"), 0.0]], [[0.0, float("inf")]]):
        with pytest.raises(ValueError, match="non-finite"):
            finite_class(bad)
    thetas = np.array([[1.0, 0.0]])
    hc = finite_class(thetas)
    thetas[0, 0] = 5.0
    assert hc.thetas[0, 0] == 1.0 and not hc.thetas.flags.writeable
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            linear_ball(bad)
        with pytest.raises(ValueError, match="finite"):
            cover_class(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            cover_class(0.5, bad)


def test_cover_thetas_one_dimensional():
    pts = cover_thetas(1.0, 1.0, 1)
    np.testing.assert_allclose(np.sort(pts.ravel()), [-1.0, 0.0, 1.0])


def test_cover_thetas_stay_in_ball_and_cover():
    rng = np.random.default_rng(3)
    for d in (1, 2, 3):
        eps, r = 0.3, 1.5
        pts = cover_thetas(eps, r, d)
        assert np.all(np.linalg.norm(pts, axis=1) <= r + 1e-12)
        # every point of the ball is within eps of some member
        for _ in range(50):
            g = rng.normal(size=d)
            theta = g / max(np.linalg.norm(g), 1e-12) * r * rng.random() ** (1 / d)
            dist = np.min(np.linalg.norm(pts - theta, axis=1))
            assert dist <= eps + 1e-9


def test_cover_thetas_resource_cap():
    with pytest.raises(ResourceLimitError):
        cover_thetas(1e-3, 4.0, 3)


# ---------------------------------------------------------------------------
# transcripts


def _tiny_transcript():
    g = make_grid(2)
    X = np.array([[0.5, 0.1], [0.5, -0.3], [0.5, 0.0]])
    P = np.array([[1.0, 0.0, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]])
    pi = np.array([0, 1, 2])
    y = np.array([1, 0, 1])
    return Transcript(g, X, P, pi, y, seed=42)


def test_transcript_accessors():
    tr = _tiny_transcript()
    assert tr.horizon == 3
    assert len(tr) == 3
    assert tr.d == 2
    np.testing.assert_allclose(tr.predictions, [0.0, 0.5, 1.0])


def test_transcript_validation():
    g = make_grid(2)
    X = np.array([[0.5, 0.0]])
    good_p = np.array([[0.5, 0.5, 0.0]])
    with pytest.raises(ValueError):
        Transcript(g, X, np.array([[0.6, 0.6, 0.0]]), [0], [1])   # not simplex
    with pytest.raises(ValueError):
        Transcript(g, X, good_p, [3], [1])                        # index range
    with pytest.raises(ValueError):
        Transcript(g, X, good_p, [0], [2])                        # outcome
    with pytest.raises(ValueError):
        Transcript(g, np.array([[0.4, 0.0]]), good_p, [0], [1])   # pin
    with pytest.raises(ValueError):
        Transcript(g, np.array([[0.5, 0.95]]), good_p, [0], [1])  # norm
    with pytest.raises(ValueError):
        Transcript(g, X, good_p, [0, 1], [1])                     # lengths
    with pytest.raises(ValueError, match="outcome 0.7"):
        Transcript(g, X, good_p, [0], [0.7])                      # fractional
    with pytest.raises(ValueError, match="sampled index 1.5"):
        Transcript(g, X, good_p, [1.5], [1])                      # fractional
    with pytest.raises(ValueError, match="sampled index -1"):
        Transcript(g, X, good_p, [-1], [1])                       # negative
    tr = Transcript(g, X, good_p, [1.0], [True])                  # integral
    assert tr.sampled_indices.tolist() == [1] and tr.outcomes.tolist() == [1]


def _read_n0(tmp_path):
    path = tmp_path / "n0.jsonl"
    path.write_text('{"N":0,"d":1,"T":1}\n'
                    '{"t":1,"x":[0.5],"P":[1.0],"pi":0,"y":1}\n')
    return Transcript.read_jsonl(path)


@pytest.mark.parametrize("build, error, match", [
    (lambda _: Transcript(make_grid(2), [[0.5, 0.0]], [[0.5, 0.5]], [0], [1]),
     ValueError, "cond_dists shape"),
    (lambda _: Transcript(make_grid(2), [[0.5, 0.0]], [[1.1, -0.1, 0.0]],
                          [0], [1]),
     ValueError, "negative conditional probability"),
    (lambda _: Transcript(make_grid(1), [[0.5, 0.0], [0.5, 0.1]],
                          [[np.nan, 1.0], [0.5, 0.5]], [1, 0], [1, 0]),
     ValueError, "does not sum to 1"),
    (_read_n0, FormatError, "header N must be >= 1"),
], ids=["cond-dists-shape", "negative-probability", "nan-probability",
        "header-n-zero"])
def test_transcript_rejection_branches(tmp_path, build, error, match):
    with pytest.raises(error, match=match):
        build(tmp_path)


def test_transcript_jsonl_roundtrip(tmp_path):
    tr = _tiny_transcript()
    path = tmp_path / "run.jsonl"
    tr.write_jsonl(path)
    back = Transcript.read_jsonl(path)
    assert back.grid == tr.grid
    assert back.seed == 42
    np.testing.assert_array_equal(back.contexts, tr.contexts)
    np.testing.assert_array_equal(back.cond_dists, tr.cond_dists)
    np.testing.assert_array_equal(back.sampled_indices, tr.sampled_indices)
    np.testing.assert_array_equal(back.outcomes, tr.outcomes)


def test_transcript_jsonl_layout(tmp_path):
    """One header line then one record per round, t starting at 1."""
    tr = _tiny_transcript()
    path = tmp_path / "run.jsonl"
    tr.write_jsonl(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    header = json.loads(lines[0])
    assert header == {"N": 2, "d": 2, "T": 3, "seed": 42}
    first = json.loads(lines[1])
    assert first["t"] == 1
    assert set(first) == {"t", "x", "P", "pi", "y"}


def test_transcript_read_caps_the_grid_before_it_allocates(tmp_path):
    """A header naming N = 10^7 raises ResourceLimitError from the grid
    before any array is built."""
    import tracemalloc

    path = tmp_path / "huge.jsonl"
    path.write_text('{"N":10000000,"d":2,"T":0}\n')
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="grid points"):
            Transcript.read_jsonl(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_transcript_read_checks_d_before_it_allocates(tmp_path):
    """A header naming d = 10^12 over a record whose x has 2 entries fails
    at line 2 before the (T, d) context array is built."""
    import tracemalloc

    path = tmp_path / "wide.jsonl"
    path.write_text('{"N":1,"d":1000000000000,"T":1,"seed":0}\n'
                    '{"t":1,"x":[0.5,0.0],"P":[1.0,0.0],"pi":0,"y":1}\n')
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="line 2: x needs "
                                              "1000000000000 entries"):
            Transcript.read_jsonl(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_transcript_read_errors(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(FormatError):
        Transcript.read_jsonl(empty)

    bad_header = tmp_path / "h.jsonl"
    bad_header.write_text('{"d":2,"T":0}\n')
    with pytest.raises(FormatError):
        Transcript.read_jsonl(bad_header)

    short = tmp_path / "s.jsonl"
    short.write_text('{"N":1,"d":1,"T":2,"seed":0}\n'
                     '{"t":1,"x":[0.5],"P":[1.0,0.0],"pi":0,"y":1}\n')
    with pytest.raises(FormatError, match="T=2"):
        Transcript.read_jsonl(short)

    bad_step = tmp_path / "b.jsonl"
    bad_step.write_text('{"N":1,"d":1,"T":1,"seed":0}\n'
                        '{"t":1,"x":[0.5],"pi":0,"y":1}\n')
    with pytest.raises(FormatError, match="line 2"):
        Transcript.read_jsonl(bad_step)

    header = '{"N":1,"d":1,"T":2,"seed":0}\n'
    good = '{"t":1,"x":[0.5],"P":[1.0,0.0],"pi":0,"y":1}\n'
    for field in ('"pi":1.5,"y":1', '"pi":0,"y":0.7', '"pi":2,"y":1',
                  '"pi":0,"y":-1', '"pi":1' + "0" * 400 + ',"y":1'):
        frac = tmp_path / "f.jsonl"
        frac.write_text(header + good + '{"t":2,"x":[0.5],"P":[1.0,0.0],'
                        + field + '}\n')
        with pytest.raises(FormatError, match="line 3"):
            Transcript.read_jsonl(frac)

    # a short x or P, or a scalar one, would broadcast to the full width
    for head, rec in (('{"N":1,"d":2,"T":1}', '"x":[0.5],"P":[1.0,0.0]'),
                      ('{"N":1,"d":2,"T":1}', '"x":0.5,"P":[1.0,0.0]'),
                      ('{"N":1,"d":2,"T":1}', '"x":[0.5,0.1,0.0],'
                                              '"P":[1.0,0.0]'),
                      ('{"N":1,"d":1,"T":1}', '"x":[0.5],"P":[0.5]'),
                      ('{"N":1,"d":1,"T":1}', '"x":[0.5],"P":0.5'),
                      ('{"N":2,"d":1,"T":1}', '"x":[0.5],"P":[0.5,0.5]')):
        short = tmp_path / "w.jsonl"
        short.write_text(head + '\n{"t":1,' + rec + ',"pi":0,"y":1}\n')
        with pytest.raises(FormatError, match="line 2"):
            Transcript.read_jsonl(short)


def test_transcript_read_deep_nesting_is_a_format_error(tmp_path):
    """100,000 nested lists exhaust json's recursion limit: in the header
    or in a record, that is a malformed line, not a crash."""
    deep = "[" * 100_000 + "]" * 100_000
    header = '{"N":1,"d":1,"T":1,"seed":0}\n'
    record = '{"t":1,"x":[0.5],"P":[1.0,0.0],"pi":0,"y":1}\n'
    for text, match in ((header.replace("0}", deep + "}") + record,
                         "bad header line"),
                        (header + record.replace("[0.5]", deep),
                         "line 2")):
        path = tmp_path / "deep.jsonl"
        path.write_text(text)
        with pytest.raises(FormatError, match=match):
            Transcript.read_jsonl(path)


def _fixed_transcript(T, d=2, n=6, seed=5):
    """A transcript of correctly rounded quotients of small integers (no
    libm call), so its bytes are the same on every platform."""
    t = np.arange(T)[:, None]
    X = np.empty((T, d))
    X[:, :1] = 0.5
    X[:, 1:] = ((t * 37 + np.arange(1, d) * 11) % 101 - 50) / 101 / d
    W = (t * 7 + np.arange(n + 1) * 3) % 11 + 1.0
    return Transcript(make_grid(n), X, W / W.sum(axis=1, keepdims=True),
                      (t[:, 0] * 5) % (n + 1), (t[:, 0] * 3 // 2) % 2,
                      seed=seed)


def _read_whole_file(path):
    """Reference reader: every stripped non-blank line through json.loads,
    the record count and N checked before anything is allocated, then one
    record at a time, field by field in the order x, P, pi, y: its shape,
    then each value's type (an int or a float, not a bool), then its float
    value and, for pi and y, its range."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in (s.strip() for s in fh) if ln]
    if not lines:
        raise FormatError(f"{path}: empty transcript file")
    try:
        head = json.loads(lines[0])
        n, d, T = (as_int(head[key], f"header {key}", low)
                   for key, low in (("N", None), ("d", 1), ("T", 0)))
        seed = head.get("seed")
        seed = seed if seed is None else as_int(seed, "header seed", 0)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad header line: {exc}") from exc
    if len(lines) - 1 != T:
        raise FormatError(f"{path}: header says T={T} but file has "
                          f"{len(lines) - 1} step records")
    if n < 1:
        raise FormatError(f"{path}: header N must be >= 1")
    grid = make_grid(n)
    X, P, pi, y = np.zeros((T, d)), np.zeros((T, n + 1)), np.zeros(T), \
        np.zeros(T)
    fields = (("x", X, (d,), None), ("P", P, (n + 1,), None),
              ("pi", pi, (), n), ("y", y, (), 1))
    for k, ln in enumerate(lines[1:]):
        try:
            rec = json.loads(ln)
            for key, col, shape, hi in fields:
                value = rec[key]
                if np.shape(value) != shape:
                    raise ValueError(f"{key} needs {shape[0]} entries"
                                     if shape else f"{key} needs a number")
                for v in value if shape else [value]:
                    if type(v) is not int and type(v) is not float:
                        raise TypeError(f"{key} needs JSON numbers")
                col[k] = value
                if hi is not None and not (0 <= col[k] <= hi
                                           and col[k] == int(col[k])):
                    raise ValueError(f"{key} {col[k]} is not an integer in "
                                     f"[0, {hi}]")
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"{path}: bad step record on line {k + 2}: "
                              f"{exc}") from exc
    return Transcript(grid, X, P, pi, y, seed=seed)


_DROP = object()


def _edit_record(text, **fields):
    """A record line with fields replaced (_DROP drops the key)."""
    rec = json.loads(text)
    for key, value in fields.items():
        if value is _DROP:
            del rec[key]
        else:
            rec[key] = value
    return json.dumps(rec, separators=(",", ":"))


_MISSING = {key: lambda ln, key=key: [_edit_record(ln, **{key: _DROP})]
            for key in ("x", "P", "pi", "y")}
_BAD_RECORDS = {
    **{f"missing-{key}": edit for key, edit in _MISSING.items()},
    "short-x": lambda ln: [_edit_record(ln, x=[0.5])],
    "long-x": lambda ln: [_edit_record(ln, x=[0.5, 0.0, 0.0])],
    "scalar-x": lambda ln: [_edit_record(ln, x=0.5)],
    "short-P": lambda ln: [_edit_record(ln, P=[1.0] + [0.0] * 5)],
    "long-P": lambda ln: [_edit_record(ln, P=[1.0] + [0.0] * 7)],
    "scalar-P": lambda ln: [_edit_record(ln, P=1.0)],
    "non-numeric": lambda ln: [_edit_record(ln, x=[0.5, "a"])],
    "nested": lambda ln: [_edit_record(ln, x=[[0.5], [0.0]])],
    "pi-list": lambda ln: [_edit_record(ln, pi=[1])],
    "extra-data": lambda ln: [ln + " 7"],
    "two-on-a-line": lambda ln: [ln + ln],
    "split": lambda ln: [ln[:40], ln[40:]],
}


def _edge_positions(T):
    """Record positions at block edges: the first and last record of the
    first two blocks and the file's last record."""
    B = JSONL_BLOCK
    return sorted(k for k in {0, B - 1, B, 2 * B - 1, T - 1} if k < T)


@pytest.mark.parametrize("case", sorted(_BAD_RECORDS))
def test_transcript_read_bad_record_at_block_edges(tmp_path, case):
    """A bad record as the first or last line of a block, or the file's last
    line, raises the whole-file reader's FormatError: the same message and
    line (a split record changes the record count, so the count is named)."""
    T = 2 * JSONL_BLOCK + 5
    path = tmp_path / "run.jsonl"
    _fixed_transcript(T).write_jsonl(path)
    head, *records = path.read_text().splitlines()
    for pos in _edge_positions(T):
        bad = records[:pos] + _BAD_RECORDS[case](records[pos]) \
            + records[pos + 1:]
        path.write_text("\n".join([head, *bad]) + "\n")
        with pytest.raises(FormatError) as want:
            _read_whole_file(path)
        with pytest.raises(FormatError) as got:
            Transcript.read_jsonl(path)
        assert str(got.value) == str(want.value)
        assert type(got.value.__cause__) is type(want.value.__cause__)
        named = f"on line {pos + 2}:" if case != "split" else \
            f"header says T={T} but file has {T + 1} step records"
        assert named in str(got.value)


def _outcome(read, path):
    """What read(path) gives: its error's type, message and cause type, or
    the transcript's arrays as bytes."""
    try:
        tr = read(path)
    except ValueError as exc:
        return type(exc), str(exc), type(exc.__cause__)
    return tuple(a.tobytes() for a in (tr.contexts, tr.cond_dists,
                                        tr.sampled_indices, tr.outcomes))


# a string, a bool or null in each field, a number past float range, and
# an index that does not fit 64 bits
_NOT_NUMBERS = [
    {"x": ["0.5", "0.1"]}, {"x": [True, 0.0]}, {"x": [0.5, False]},
    {"x": [None, 0.0]}, {"x": [10 ** 400, 0.0]},
    {"P": ["1"] + [0.0] * 6}, {"P": [True] + [0.0] * 6},
    {"P": [False] + [1.0] + [0.0] * 5}, {"P": [None] + [1.0] + [0.0] * 5},
    {"P": [10 ** 400] + [0.0] * 6},
    {"pi": "3"}, {"pi": True}, {"pi": False}, {"pi": None},
    {"pi": 10 ** 400}, {"pi": 2 ** 64},
    {"y": "1"}, {"y": True}, {"y": False}, {"y": None}, {"y": 10 ** 400},
    {"y": 2 ** 64},
]
# other spellings of a written value, and keys the reader ignores
_SAME_VALUES = [
    {"x": [0.5, 0]}, {"P": [1] + [0] * 6}, {"pi": 3.0}, {"t": "anything"},
    {"extra": "true"}, {"extra": None},
]
_COLUMNS = {"x": "contexts", "P": "cond_dists", "pi": "sampled_indices",
            "y": "outcomes"}


@pytest.mark.parametrize(
    "fields, reads",
    [(f, False) for f in _NOT_NUMBERS] + [(f, True) for f in _SAME_VALUES],
    ids=[json.dumps(f)[:24] for f in _NOT_NUMBERS + _SAME_VALUES])
def test_transcript_read_odd_values_as_the_whole_file_reader(tmp_path,
                                                             fields, reads):
    """x, P, pi and y hold JSON numbers only: a string, a bool or null in
    any of them, or a value past float range, raises FormatError naming
    its line at every block edge, as the whole-file reader does. An integer
    where the writer writes a float, a float where it writes an integer,
    and any value under another key read as the written file does."""
    T = JSONL_BLOCK + 5
    tr = _fixed_transcript(T)
    path = tmp_path / "run.jsonl"
    tr.write_jsonl(path)
    head, *records = path.read_text().splitlines()
    for pos in _edge_positions(T):
        odd = list(records)
        odd[pos] = _edit_record(odd[pos], **fields)
        path.write_text("\n".join([head, *odd]) + "\n")
        got = _outcome(Transcript.read_jsonl, path)
        assert got == _outcome(_read_whole_file, path)
        if not reads:
            assert got[0] is FormatError and f"on line {pos + 2}:" in got[1]
            continue
        want = {name: getattr(tr, name).copy() for name in _COLUMNS.values()}
        for key, value in fields.items():
            if key in _COLUMNS:
                want[_COLUMNS[key]][pos] = value
        assert got == tuple(want[name].tobytes()
                            for name in _COLUMNS.values())


def test_transcript_read_one_record_split_and_one_line_holding_two(
        tmp_path):
    """A split record next to a line that holds two records keeps the
    record count right; the per-line rule still names the first bad line."""
    T = 2 * JSONL_BLOCK + 5
    path = tmp_path / "run.jsonl"
    _fixed_transcript(T).write_jsonl(path)
    head, *records = path.read_text().splitlines()
    pos = JSONL_BLOCK - 1
    bad = records[:pos] + [records[pos][:40], records[pos][40:]
                           + records[pos + 1]] + records[pos + 2:]
    path.write_text("\n".join([head, *bad]) + "\n")
    with pytest.raises(FormatError, match=f"on line {pos + 2}:") as got:
        Transcript.read_jsonl(path)
    with pytest.raises(FormatError) as want:
        _read_whole_file(path)
    assert str(got.value) == str(want.value)


def test_transcript_read_skips_blank_lines(tmp_path):
    """Blank and whitespace-only lines are skipped and not counted: a bad
    record after them is named by its non-blank line, as before."""
    T = 2 * JSONL_BLOCK + 5
    tr = _fixed_transcript(T)
    path = tmp_path / "run.jsonl"
    tr.write_jsonl(path)
    head, *records = path.read_text().splitlines()
    spaced = [head, ""] + [ln if k % JSONL_BLOCK else "  \t\n" + ln
                           for k, ln in enumerate(records)] + ["", " "]
    path.write_text("\n".join(spaced) + "\n")
    back = Transcript.read_jsonl(path)
    for name in ("contexts", "cond_dists", "sampled_indices", "outcomes"):
        assert np.array_equal(getattr(back, name), getattr(tr, name))
    spaced[-3] = _edit_record(spaced[-3], pi=1.5)
    path.write_text("\n".join(spaced) + "\n")
    with pytest.raises(FormatError, match=f"on line {T + 1}: pi 1.5"):
        Transcript.read_jsonl(path)


@pytest.mark.parametrize("T", [0, 1, JSONL_BLOCK - 1, JSONL_BLOCK,
                               JSONL_BLOCK + 1, 4096])
def test_transcript_jsonl_roundtrip_across_blocks(tmp_path, T):
    tr = _fixed_transcript(T)
    path = tmp_path / "run.jsonl"
    tr.write_jsonl(path)
    back = Transcript.read_jsonl(path)
    assert back.grid == tr.grid and back.seed == tr.seed
    for name in ("contexts", "cond_dists", "sampled_indices", "outcomes"):
        a, b = getattr(back, name), getattr(tr, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert _outcome(Transcript.read_jsonl, path) == \
        _outcome(_read_whole_file, path)


def test_transcript_write_bytes_are_frozen(tmp_path):
    """The bytes write_jsonl produces for one fixed transcript of 515
    records, frozen from the record-at-a-time json.dumps writer."""
    path = tmp_path / "run.jsonl"
    _fixed_transcript(515).write_jsonl(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "6423eda926b2b78ede1b62619c5b5084cc72a6e8c38e7d79c506926c07b1ca72"


def test_transcript_jsonl_memory_is_bounded(tmp_path):
    """On a T = 4096, d = 2 transcript (772 kB on disk) the reader holds
    one block of decoded records, not every line: the whole-file reader
    peaked at 1.59 MB in tracemalloc. The writer holds one block of
    encoded records."""
    import tracemalloc

    tr = _fixed_transcript(4096)
    path = tmp_path / "run.jsonl"
    tracemalloc.start()
    try:
        tr.write_jsonl(path)
        write_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        Transcript.read_jsonl(path)
        read_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert write_peak <= 250_000
    assert read_peak <= 1_250_000


def test_package_exports_resolve_once():
    """Every name in swapcal.__all__ is an attribute of the package and is
    listed once."""
    import swapcal

    names = swapcal.__all__
    assert [n for n in names if not hasattr(swapcal, n)] == []
    assert len(set(names)) == len(names)
