import json

import numpy as np
import pytest

from swapcal import (FormatError, LinearFn, ResourceLimitError, Transcript,
                     absolute_loss, cover_class, cover_thetas,
                     custom_loss, finite_class, linear_ball, loss_eval,
                     make_grid, post_process, squared_loss, validate_context,
                     validate_outcome, validate_stream, vshaped_loss)
from swapcal.core import affine_restricted


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


def test_grid_equality_and_hash():
    assert make_grid(5) == make_grid(5)
    assert make_grid(5) != make_grid(6)
    assert hash(make_grid(5)) == hash(make_grid(5))
    assert make_grid(2) != "Grid(2)"


def test_validate_context_accepts_pinned_unit_vector():
    x = validate_context([0.5, 0.5], d=2)
    np.testing.assert_array_equal(x, [0.5, 0.5])


def test_validate_context_rejections():
    with pytest.raises(ValueError):
        validate_context([0.4, 0.5])          # first coordinate not 1/2
    with pytest.raises(ValueError):
        validate_context([0.5, 0.9])          # norm > 1
    with pytest.raises(ValueError):
        validate_context([0.5, 0.5], d=3)     # dimension mismatch
    with pytest.raises(ValueError):
        validate_context([[0.5], [0.5]])      # not a vector
    with pytest.raises(ValueError):
        validate_context([0.5, np.nan])


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


def test_loss_eval_domain_checks():
    with pytest.raises(ValueError):
        loss_eval(squared_loss(), 1.2, 1)
    with pytest.raises(ValueError):
        loss_eval(squared_loss(), 0.5, 2)
    assert loss_eval(squared_loss(), 0.5, 1) == 0.25


# ---------------------------------------------------------------------------
# best responses


def test_post_process_squared_is_identity():
    rng = np.random.default_rng(1)
    for q in rng.random(20):
        assert post_process(squared_loss(), float(q)) == float(q)


def test_post_process_absolute_thresholds():
    ab = absolute_loss()
    assert post_process(ab, 0.49) == 0.0
    assert post_process(ab, 0.5) == 1.0
    assert post_process(ab, 0.51) == 1.0


def test_post_process_matches_grid_minimum():
    # independent dense scan of the expected loss in p
    rng = np.random.default_rng(2)
    grid = np.linspace(0.0, 1.0, 10001)
    for loss in (vshaped_loss(0.25), vshaped_loss(0.75),
                 custom_loss(lambda p, y: 0.5 * (p - y) ** 2, 1.0)):
        for q in rng.random(10):
            k = post_process(loss, float(q))
            obj = lambda p: q * loss(np.asarray(p), 1) + (1 - q) * loss(np.asarray(p), 0)
            best = float(np.min(obj(grid)))
            assert float(obj(np.array([k]))[0]) <= best + 1e-12


def test_post_process_breaks_ties_low():
    flat = custom_loss(lambda p, y: np.zeros_like(np.asarray(p, dtype=float)),
                       lipschitz_bound=1.0)
    assert post_process(flat, 0.3) == 0.0


def test_post_process_rejects_bad_q():
    with pytest.raises(ValueError):
        post_process(squared_loss(), 1.5)


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


def test_class_constructor_rejections():
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
