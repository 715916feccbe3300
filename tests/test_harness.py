import json
import math

import numpy as np
import pytest

from swapcal import (AdversarySpec, FormatError, RateFit, SweepConfig,
                     evaluate_metric, fit_rate, generate_stream, ingest_csv,
                     linear_ball, parse_class_spec, parse_losses,
                     read_results, resolve_n, run_sweep, simulate_run,
                     validate_context, validate_stream)
from swapcal.harness import _sweep_row


def test_adversary_spec_validation():
    AdversarySpec(kind="iid-logistic", noise=0.2)
    with pytest.raises(ValueError):
        AdversarySpec(kind="martian")
    with pytest.raises(ValueError):
        AdversarySpec(kind="iid-logistic", noise=1.5)
    with pytest.raises(ValueError):
        AdversarySpec(kind="csv")


def test_logistic_stream_contexts_are_valid():
    spec = AdversarySpec(kind="iid-logistic")
    X, y = generate_stream(spec, 200, 3, seed=0)
    assert X.shape == (200, 3) and y.shape == (200,)
    assert y.dtype.kind == "i"
    validate_stream((X, y), 3)
    for x in X:
        validate_context(x, 3)
    # tails live strictly inside the ball: norms bounded by sqrt(3)/2
    tail_norms = np.linalg.norm(X[:, 1:], axis=1)
    assert max(tail_norms) <= math.sqrt(3.0) / 2.0 + 1e-12


def test_stream_reproducibility():
    spec = AdversarySpec(kind="iid-logistic")
    a = generate_stream(spec, 50, 2, seed=3)
    b = generate_stream(spec, 50, 2, seed=3)
    c = generate_stream(spec, 50, 2, seed=4)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not (np.array_equal(a[0], c[0]) and np.array_equal(a[1], c[1]))


def test_explicit_parameter_does_not_shift_stream_draws():
    # the same contexts appear whether theta* is drawn or supplied, because
    # parameter draws use a separate child stream
    drawn = generate_stream(AdversarySpec(kind="iid-logistic"), 30, 2, seed=6)
    fixed = generate_stream(AdversarySpec(kind="iid-logistic",
                                          theta_star=(0.6, 0.8)), 30, 2, seed=6)
    np.testing.assert_array_equal(drawn[0], fixed[0])


def test_logistic_label_frequency_matches_mean_probability():
    # E[y] = 1/2 + theta1/4 for theta* = e1 (the tail integrates to zero)
    spec = AdversarySpec(kind="iid-logistic", theta_star=(1.0, 0.0))
    _, y = generate_stream(spec, 40_000, 2, seed=1)
    freq = np.mean(y)
    assert abs(freq - 0.75) < 4.0 * math.sqrt(0.25 / 40_000)


def test_noise_one_flips_every_label():
    base = generate_stream(AdversarySpec(kind="iid-logistic"), 40, 2, seed=2)
    flip = generate_stream(AdversarySpec(kind="iid-logistic", noise=1.0),
                           40, 2, seed=2)
    np.testing.assert_array_equal(base[1], 1 - flip[1])


def test_bernoulli_stream():
    spec = AdversarySpec(kind="iid-bernoulli", bias=0.9)
    X, y = generate_stream(spec, 5000, 3, seed=0)
    np.testing.assert_array_equal(X[0], [0.5, 0.0, 0.0])
    assert (X == X[0]).all()
    assert abs(np.mean(y) - 0.9) < 0.02


def test_anti_calibration_alternates():
    X, y = generate_stream(AdversarySpec(kind="anti-calibration"), 6, 2,
                           seed=0)
    assert y.tolist() == [0, 1, 0, 1, 0, 1]
    assert (X == [0.5, 0.0]).all()


def test_ingest_csv_scaling(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("1.0,2.0,1\n0.5,0.5,0\n")
    X, y, factor = ingest_csv(p)
    assert factor == pytest.approx((math.sqrt(3) / 2) / math.sqrt(5))
    assert len(X) == len(y) == 2
    np.testing.assert_allclose(X[0], [0.5, 1.0 * factor, 2.0 * factor])
    assert y.tolist() == [1, 0]
    validate_stream((X, y))


def test_ingest_csv_small_features_untouched(tmp_path):
    p = tmp_path / "small.csv"
    p.write_text("0.1,0.1,0\n-0.2,0.0,1\n")
    X, _, factor = ingest_csv(p)
    assert factor == 1.0
    np.testing.assert_allclose(X[1], [0.5, -0.2, 0.0])


def test_ingest_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1.0,abc,1\n")
    with pytest.raises(FormatError, match="row 1"):
        ingest_csv(p)
    p.write_text("1.0,0.5,1\n1.0,0\n")
    with pytest.raises(FormatError, match="row 2"):
        ingest_csv(p)
    p.write_text("1.0,0.5,0.7\n")
    with pytest.raises(FormatError, match="label"):
        ingest_csv(p)
    p.write_text("\n")
    with pytest.raises(FormatError, match="no data rows"):
        ingest_csv(p)


def test_csv_adversary_replays_file(tmp_path):
    p = tmp_path / "stream.csv"
    rows = "\n".join(f"{v:.3f},{v % 2:.0f}" for v in np.linspace(0, 0.8, 30))
    p.write_text(rows + "\n")
    spec = AdversarySpec(kind="csv", path=str(p))
    X, y = generate_stream(spec, 10, 2, seed=0)
    assert X.shape == (10, 2) and y.shape == (10,)
    with pytest.raises(ValueError, match="fewer"):
        generate_stream(spec, 100, 2, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        generate_stream(spec, 10, 4, seed=0)


def test_resolve_n():
    assert resolve_n("auto-smcal", 1000, 2) == 4
    assert resolve_n("auto-sreg", 1000, 2) == 2
    assert resolve_n("7", 1000, 2) == 7
    assert resolve_n(5, 1000, 2) == 5
    with pytest.raises(ValueError):
        resolve_n("auto-magic", 1000, 2)


def test_parse_class_spec(tmp_path):
    assert parse_class_spec("ball1").radius == 1.0
    assert parse_class_spec("ball4").radius == 4.0
    assert parse_class_spec("affine-res").kind == "affine-restricted"
    cov = parse_class_spec("cover:0.5")
    assert cov.kind == "cover" and cov.epsilon == 0.5
    f = tmp_path / "fs.json"
    f.write_text(json.dumps({"thetas": [[1.0, 0.0], [0.0, 1.0]]}))
    fin = parse_class_spec(f"finite:{f}")
    assert fin.kind == "finite"
    np.testing.assert_array_equal(fin.thetas, [[1.0, 0.0], [0.0, 1.0]])
    f.write_text('{"wrong": 1}')
    with pytest.raises(FormatError):
        parse_class_spec(f"finite:{f}")
    with pytest.raises(ValueError):
        parse_class_spec("hyperbolic")
    assert parse_class_spec(None) is None


def test_parse_losses():
    menu = parse_losses("squared,absolute,vshaped:0.25")
    assert [l.name for l in menu] == ["squared", "absolute", "vshaped(0.25)"]
    assert parse_losses(None) is None
    with pytest.raises(ValueError):
        parse_losses("cubed")


def test_evaluate_metric_dispatch_and_inline_class():
    tr = simulate_run(AdversarySpec(kind="iid-logistic"), 60, 2, 3, seed=1)
    inline = evaluate_metric(tr, "smcal2:ball1")
    explicit = evaluate_metric(tr, "smcal2", hc=linear_ball(1.0))
    assert inline.value == pytest.approx(explicit.value)
    for name in ("smcal1", "psmcal1", "psmcal2", "mcal2", "cal2", "sreg",
                 "psreg"):
        rep = evaluate_metric(tr, name)
        assert rep.value >= 0.0 or name in ("sreg", "psreg")
    with pytest.raises(ValueError):
        evaluate_metric(tr, "calibrationest")


def test_simulate_run_deterministic():
    spec = AdversarySpec(kind="iid-logistic", noise=0.1)
    a = simulate_run(spec, 40, 2, 2, seed=9)
    b = simulate_run(spec, 40, 2, 2, seed=9)
    np.testing.assert_array_equal(a.cond_dists, b.cond_dists)
    np.testing.assert_array_equal(a.sampled_indices, b.sampled_indices)
    np.testing.assert_array_equal(a.outcomes, b.outcomes)


# ---------------------------------------------------------------------------
# sweeps


def _tiny_config(tmp_path, **over):
    base = dict(T_list=[8, 16, 32], d=2, reps=2, metric="cal2",
                n_rule="2", adversary="iid-logistic", seed_base=0,
                out=str(tmp_path / "rows.csv"))
    base.update(over)
    return SweepConfig(**base)


def test_sweep_config_from_json(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"T_list": [4, 8], "d": 2, "reps": 1,
                                   "metric": "cal2"}))
    cfg = SweepConfig.from_json(cfgfile)
    assert cfg.T_list == [4, 8]
    cfgfile.write_text(json.dumps({"T_list": [4], "d": 2, "reps": 1,
                                   "metric": "cal2", "mystery_knob": True}))
    with pytest.raises(FormatError, match="mystery_knob"):
        SweepConfig.from_json(cfgfile)
    cfgfile.write_text("{oops")
    with pytest.raises(FormatError):
        SweepConfig.from_json(cfgfile)


def test_sweep_writes_expected_rows(tmp_path):
    cfg = _tiny_config(tmp_path)
    rows = run_sweep(cfg)
    assert len(rows) == 6
    table = read_results(cfg.out)
    assert len(table) == 6
    assert set(table[0]) == {"T", "N", "d", "rep", "seed", "metric", "value",
                             "wall_ms", "error"}
    assert {(int(r["T"]), int(r["rep"])) for r in table} == \
        {(T, rep) for T in (8, 16, 32) for rep in (0, 1)}
    assert all(r["error"] == "" for r in table)
    assert all(float(r["value"]) >= 0 for r in table)
    # row seed is seed_base + rep
    assert all(int(r["seed"]) == int(r["rep"]) for r in table)


def test_sweep_resumes_without_duplicates(tmp_path):
    cfg = _tiny_config(tmp_path)
    run_sweep(cfg)
    first = read_results(cfg.out)
    rows = run_sweep(cfg)          # everything already present
    again = read_results(cfg.out)
    assert len(again) == len(first) == len(rows)
    assert [r["value"] for r in again] == [r["value"] for r in first]


def test_sweep_resumes_partial_table(tmp_path):
    cfg = _tiny_config(tmp_path)
    run_sweep(cfg)
    full = read_results(cfg.out)
    # drop the last three rows and resume
    with open(cfg.out) as fh:
        lines = fh.read().splitlines()
    with open(cfg.out, "w") as fh:
        fh.write("\n".join(lines[:-3]) + "\n")
    run_sweep(cfg)
    resumed = read_results(cfg.out)
    assert len(resumed) == len(full)
    assert {(r["T"], r["rep"]) for r in resumed} == \
        {(r["T"], r["rep"]) for r in full}
    # the rerun rows carry the same values (same seeds)
    by_key = {(r["T"], r["rep"]): r["value"] for r in full}
    assert all(by_key[(r["T"], r["rep"])] == r["value"] for r in resumed)


def test_sweep_records_errors_and_continues(tmp_path):
    data = tmp_path / "short.csv"
    data.write_text("\n".join("0.1,1" for _ in range(10)) + "\n")
    cfg = _tiny_config(tmp_path, adversary="csv", csv_path=str(data),
                       T_list=[8, 64], reps=1)
    rows = run_sweep(cfg)
    table = read_results(cfg.out)
    ok = [r for r in table if not r["error"]]
    bad = [r for r in table if r["error"]]
    assert len(ok) == 1 and int(ok[0]["T"]) == 8
    assert len(bad) == 1 and int(bad[0]["T"]) == 64
    assert "fewer" in bad[0]["error"]
    assert bad[0]["value"] == ""


def test_sweep_row_isolated():
    cfg = SweepConfig(T_list=[16], d=2, reps=1, metric="cal2", n_rule="2",
                      out="unused.csv")
    row = _sweep_row(cfg, 16, 0)
    assert row["error"] == ""
    assert float(row["value"]) >= 0.0
    assert float(row["wall_ms"]) > 0.0


# ---------------------------------------------------------------------------
# rate fitting


def _rows(values_by_t, metric="m"):
    rows = []
    for T, vals in values_by_t.items():
        for rep, v in enumerate(vals):
            rows.append({"T": str(T), "rep": str(rep), "metric": metric,
                         "value": repr(v), "error": ""})
    return rows


def test_fit_rate_exact_power_law():
    ts = [2 ** k for k in range(4, 12)]
    rows = _rows({T: [T ** (1.0 / 3.0)] for T in ts})
    fit = fit_rate(rows, "m")
    assert fit.slope == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert fit.stderr == pytest.approx(0.0, abs=1e-12)
    assert fit.n_points == len(ts)
    assert fit.t_values == tuple(ts)


def test_fit_rate_constant_has_zero_slope():
    rows = _rows({T: [7.5] for T in (10, 100, 1000, 10000)})
    assert fit_rate(rows, "m").slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_noisy_linear_growth():
    rng = np.random.default_rng(0)
    ts = [2 ** k for k in range(5, 13)]
    for _ in range(100):
        rows = _rows({T: [T * (1.0 + 0.01 * rng.standard_normal())
                          for _ in range(5)] for T in ts})
        slope = fit_rate(rows, "m").slope
        assert 0.97 <= slope <= 1.03


def test_fit_rate_uses_medians():
    # one wild outlier per horizon must not move the median fit
    ts = (100, 1000, 10000)
    rows = _rows({T: [T ** 0.5, T ** 0.5, T ** 0.5 * 50] for T in ts})
    assert fit_rate(rows, "m").slope == pytest.approx(0.5, abs=1e-12)


def test_fit_rate_drops_nonpositive_and_errors():
    rows = _rows({10: [1.0, -2.0], 100: [2.0, 0.0], 1000: [3.0]})
    rows.append({"T": "9", "rep": "0", "metric": "m", "value": "",
                 "error": "ValueError: boom"})
    fit = fit_rate(rows, "m")
    assert fit.dropped_nonpositive == 2
    assert fit.n_points == 3
    with pytest.raises(ValueError, match="3 horizons"):
        fit_rate(_rows({10: [1.0], 100: [2.0]}), "m")


def test_fit_rate_filters_by_metric_name():
    rows = _rows({T: [T] for T in (10, 100, 1000)}, metric="a")
    rows += _rows({T: [5.0] for T in (10, 100, 1000)}, metric="b")
    assert fit_rate(rows, "b").slope == pytest.approx(0.0, abs=1e-12)


def test_rate_fit_as_dict():
    rows = _rows({T: [float(T)] for T in (8, 64, 512)})
    d = fit_rate(rows, "m").as_dict()
    assert set(d) == {"slope", "intercept", "stderr", "n_points",
                      "dropped_nonpositive", "t_values", "medians"}
    assert isinstance(fit_rate(rows, "m"), RateFit)
