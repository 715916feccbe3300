import json
import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "swapcal.cli"]


def run_cli(*args, expect=0):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def test_simulate_then_metrics(tmp_path):
    out = tmp_path / "tr.jsonl"
    proc = run_cli("simulate", "--adversary", "iid-logistic", "--T", "80",
                   "--d", "2", "--N", "auto-smcal", "--seed", "4",
                   "--out", str(out))
    header = json.loads(proc.stdout)
    assert header["T"] == 80 and header["d"] == 2
    assert header["N"] >= 1
    assert out.exists()

    proc = run_cli("metrics", "--transcript", str(out), "--report", "smcal2",
                   "--class", "ball1")
    rep = json.loads(proc.stdout)
    assert set(rep) == {"name", "value", "class", "notes"}
    assert rep["name"] == "smcal2"
    assert rep["value"] >= 0.0
    assert rep["class"] == "linear-ball(r=1)"


def test_simulate_explicit_n_and_slim(tmp_path):
    out = tmp_path / "tr.jsonl"
    proc = run_cli("simulate", "--adversary", "iid-bernoulli", "--T", "20",
                   "--d", "3", "--N", "5", "--seed", "0", "--bias", "0.3",
                   "--out", str(out), "--slim")
    assert json.loads(proc.stdout)["N"] == 5
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 21


def test_simulate_slim_writes_the_same_bytes(tmp_path):
    """--slim is accepted and changes nothing: with or without it the file
    is byte for byte the one simulate_run's transcript writes."""
    from swapcal import AdversarySpec, choose_n, simulate_run
    argv = ["simulate", "--adversary", "iid-logistic", "--T", "120", "--d",
            "3", "--seed", "7", "--noise", "0.1"]
    run_cli(*argv, "--out", str(tmp_path / "full.jsonl"))
    run_cli(*argv, "--out", str(tmp_path / "slim.jsonl"), "--slim")
    want = tmp_path / "want.jsonl"
    simulate_run(AdversarySpec("iid-logistic", noise=0.1), 120, 3,
                 choose_n(120, 3, "smcal"), seed=7).write_jsonl(want)
    assert (tmp_path / "full.jsonl").read_bytes() == want.read_bytes()
    assert (tmp_path / "slim.jsonl").read_bytes() == want.read_bytes()


def test_simulate_grid_too_large_fails_fast(tmp_path):
    out = tmp_path / "tr.jsonl"
    proc = run_cli("simulate", "--adversary", "iid-logistic", "--T", "10",
                   "--d", "2", "--N", "10000000", "--out", str(out), expect=3)
    assert proc.stderr.startswith("error: ResourceLimitError: ")
    assert not out.exists()


def test_simulate_anti_calibration_reads_back(tmp_path):
    from swapcal import AdversarySpec, Transcript, simulate_run
    out = tmp_path / "tr.jsonl"
    proc = run_cli("simulate", "--adversary", "anti-calibration", "--T", "30",
                   "--d", "2", "--N", "3", "--seed", "5", "--out", str(out))
    assert json.loads(proc.stdout)["N"] == 3
    tr = Transcript.read_jsonl(out)
    np.testing.assert_array_equal(tr.outcomes, np.arange(30) % 2)
    want = simulate_run(AdversarySpec(kind="anti-calibration"), 30, 2, 3,
                        seed=5)
    np.testing.assert_array_equal(tr.contexts, want.contexts)
    np.testing.assert_array_equal(tr.cond_dists, want.cond_dists)
    np.testing.assert_array_equal(tr.sampled_indices, want.sampled_indices)


def test_simulate_csv_records_scale(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("\n".join("2.0,1" if i % 2 else "1.0,0"
                              for i in range(25)) + "\n")
    out = tmp_path / "tr.jsonl"
    proc = run_cli("simulate", "--adversary", "csv", "--csv-path", str(data),
                   "--T", "25", "--d", "2", "--N", "2", "--out", str(out))
    header = json.loads(proc.stdout)
    assert header["csv_scale"] == pytest.approx(np.sqrt(3) / 2 / 2.0)


def test_metrics_all_reports(tmp_path):
    out = tmp_path / "tr.jsonl"
    run_cli("simulate", "--adversary", "iid-logistic", "--T", "50", "--d", "2",
            "--N", "3", "--seed", "1", "--out", str(out))
    for report in ("smcal1", "smcal2", "psmcal1", "psmcal2", "mcal2", "cal2",
                   "sreg", "psreg"):
        rep = json.loads(run_cli("metrics", "--transcript", str(out),
                                 "--report", report).stdout)
        assert rep["name"] == report
    rep = json.loads(run_cli("metrics", "--transcript", str(out), "--report",
                             "somni", "--losses", "squared,absolute").stdout)
    assert "absolute" in rep["notes"]


def test_metrics_error_paths(tmp_path, capsys):
    out = tmp_path / "tr.jsonl"
    run_cli("simulate", "--adversary", "iid-logistic", "--T", "10", "--d", "2",
            "--N", "2", "--seed", "0", "--out", str(out))
    proc = subprocess.run(CLI + ["metrics", "--transcript", str(out),
                                 "--report", "zcal"], capture_output=True,
                          text=True)
    assert proc.returncode == 2
    proc = subprocess.run(CLI + ["metrics", "--transcript",
                                 str(tmp_path / "nope.jsonl"),
                                 "--report", "cal2"],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    for spec in ("cover:inf", "cover:nan"):
        proc = subprocess.run(CLI + ["metrics", "--transcript", str(out),
                                     "--report", "smcal2", "--class", spec],
                              capture_output=True, text=True)
        assert proc.returncode == 2, spec
        assert "positive finite epsilon" in proc.stderr
        assert proc.stdout == ""
    import swapcal.cli as cli

    bad = {"nan": ('{"thetas": [[NaN, 0]]}', "non-finite"),
           "wide": ('{"thetas": [[1, 0, 0]]}', "dimension 3, the contexts "
                                                "have d = 2"),
           "ragged": ('{"thetas": [[1, 0], [1]]}', "(M, d) array"),
           "flat": ('{"thetas": [1, 0]}', "(M, d) array"),
           "empty": ('{"thetas": []}', "(M, d) array")}
    for label, (doc, message) in bad.items():
        path = tmp_path / f"{label}.json"
        path.write_text(doc)
        for report in ("smcal2", "sreg", "mcal2", "somni"):
            code = cli.main(["metrics", "--transcript", str(out), "--report",
                             report, "--class", f"finite:{path}"])
            captured = capsys.readouterr()
            assert code == 2, (label, report)
            assert message in captured.err, (label, report, captured.err)
            assert captured.out == ""


def test_metrics_deeply_nested_record_exits_2(tmp_path):
    path = tmp_path / "deep.jsonl"
    path.write_text('{"N":1,"d":1,"T":1,"seed":0}\n{"t":1,"x":'
                    + "[" * 100_000 + "]" * 100_000
                    + ',"P":[1.0,0.0],"pi":0,"y":1}\n')
    proc = run_cli("metrics", "--transcript", str(path), "--report", "cal2",
                   expect=2)
    assert "bad step record on line 2" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_metrics_rejects_what_is_not_a_json_number(tmp_path):
    """Numeric strings, a bool and null in a record's fields exit 2 and name
    the first bad line; they used to read as numbers."""
    path = tmp_path / "odd.jsonl"
    path.write_text('{"N":1,"d":2,"T":2,"seed":0}\n'
                    '{"t":1,"x":["0.5","0.1"],"P":[1.0,0.0],"pi":"0",'
                    '"y":true}\n'
                    '{"t":2,"x":[0.5,0.1],"P":[1.0,0.0],"pi":0,"y":null}\n')
    proc = run_cli("metrics", "--transcript", str(path), "--report", "cal2",
                   expect=2)
    assert proc.stderr == (f"error: {path}: bad step record on line 2: "
                           "x needs JSON numbers\n")


def test_metrics_rejects_nan_in_p(tmp_path):
    """A NaN probability exits 2, naming the file and the record's 0-based
    position; it used to read as a distribution and report 0.0. A negative
    entry and a row sum off 1 name them the same way."""
    for p, error in (
            ("[NaN,1.0]", "conditional distribution does not sum to 1"),
            ("[1.5,-0.5]", "negative conditional probability"),
            ("[0.5,0.4]", "conditional distribution does not sum to 1")):
        path = tmp_path / "bad_p.jsonl"
        path.write_text('{"N":1,"d":2,"T":3,"seed":0}\n'
                        '{"t":1,"x":[0.5,0.1],"P":[0.5,0.5],"pi":1,"y":1}\n'
                        f'{{"t":2,"x":[0.5,0.1],"P":{p},"pi":0,"y":0}}\n'
                        f'{{"t":3,"x":[0.5,0.1],"P":{p},"pi":1,"y":0}}\n')
        proc = run_cli("metrics", "--transcript", str(path), "--report",
                       "smcal2", expect=2)
        assert proc.stderr == f"error: {path}: {error} at position 1\n"
        assert proc.stdout == ""


def test_sweep_and_fit_rate(tmp_path):
    cfg = tmp_path / "cfg.json"
    rows = tmp_path / "rows.csv"
    cfg.write_text(json.dumps({
        "T_list": [16, 32, 64, 128], "d": 2, "reps": 2, "metric": "smcal2",
        "n_rule": "2", "adversary": "iid-logistic", "seed_base": 0,
        "out": str(rows)}))
    proc = run_cli("sweep", "--config", str(cfg))
    info = json.loads(proc.stdout)
    assert info["rows"] == 8 and info["errors"] == 0
    proc = run_cli("fit-rate", "--in", str(rows), "--metric", "smcal2")
    fit = json.loads(proc.stdout)
    assert fit["n_points"] == 4
    assert np.isfinite(fit["slope"])


_GOOD_SWEEP = {"T_list": [8], "d": 2, "reps": 1, "metric": "cal2",
               "n_rule": "2"}


@pytest.mark.parametrize("doc, message", [
    ({**_GOOD_SWEEP, "reps": "2"},
     "reps must be a non-negative integer, got '2'"),
    ({**_GOOD_SWEEP, "reps": 1.5},
     "reps must be a non-negative integer, got 1.5"),
    ({**_GOOD_SWEEP, "reps": -1},
     "reps must be a non-negative integer, got -1"),
    ({**_GOOD_SWEEP, "T_list": 32},
     "T_list must be a list of integers, got 32"),
    ({**_GOOD_SWEEP, "T_list": [8, True]},
     "T_list must be a list of integers, got [8, True]"),
    ({**_GOOD_SWEEP, "seed_base": "x"},
     "seed_base must be an integer, got 'x'"),
    ([1, 2], "a sweep config is one JSON object"),
    ({**_GOOD_SWEEP, "metric": "nope"}, "unknown metric 'nope'; known: "),
    ({**_GOOD_SWEEP, "metric": 5}, "'int' object has no attribute"),
    ({**_GOOD_SWEEP, "metric": "smcal2:ball9"},
     "unknown class spec 'ball9'"),
    ({**_GOOD_SWEEP, "metric": "smcal2:finite:absent.json"},
     "No such file or directory: 'absent.json'"),
    ({**_GOOD_SWEEP, "metric": "somni:ball1"},
     "omniprediction comparator must be affine-restricted"),
    ({**_GOOD_SWEEP, "losses": "squared,bad"}, "unknown loss token 'bad'"),
    ({**_GOOD_SWEEP, "bias": 1.5}, "bias must be in [0, 1]"),
    ({**_GOOD_SWEEP, "adversary": "weird"},
     "unknown adversary kind 'weird'"),
    ({**_GOOD_SWEEP, "n_rule": "bogus"}, "grid rule must be auto-smcal, "
                                         "auto-sreg, or an integer, got "
                                         "'bogus'"),
    ({**_GOOD_SWEEP, "n_rule": 2.9}, "grid rule must be auto-smcal, "
                                     "auto-sreg, or an integer, got 2.9"),
    ({**_GOOD_SWEEP, "d": 0}, "d must be a positive integer, got 0"),
    ({**_GOOD_SWEEP, "adversary": "csv", "csv_path": 3},
     "csv adversary needs a path, got 3"),
    (_GOOD_SWEEP, "not a results table, its header lacks ['T', 'N'"),
], ids=["reps-str", "reps-float", "reps-negative", "T_list-int",
        "T_list-bool", "seed_base-str", "not-an-object", "metric",
        "metric-int", "class", "class-file", "somni-ball", "losses", "bias",
        "adversary", "n_rule-str", "n_rule-float", "d-zero", "csv_path-int",
        "foreign-table"])
def test_sweep_rejects_malformed_input(tmp_path, doc, message):
    """A malformed config, any fault of it that does not depend on the
    horizon included, or a --out that is not a results table (the good
    config's case), exits 2 with one error line: no traceback, no table
    written, and the foreign CSV left as it was."""
    out = tmp_path / "rows.csv"
    if doc is _GOOD_SWEEP:
        out.write_bytes(b"name,score\r\nalice,3\n")
    before = out.read_bytes() if out.exists() else None
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    proc = run_cli("sweep", "--config", str(cfg), "--out", str(out), expect=2)
    assert message in proc.stderr and len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    if before is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == before


def test_sweep_rerun_after_a_config_fault_writes_every_row(tmp_path):
    """A config with bias 1.5 leaves --out untouched, so the corrected
    config run on the same --out writes every row, none of them an error
    (rows the faulty run wrote used to be skipped as done)."""
    cfg, out = tmp_path / "cfg.json", tmp_path / "rows.csv"
    doc = {**_GOOD_SWEEP, "T_list": [8, 16], "reps": 2,
           "adversary": "iid-bernoulli"}
    cfg.write_text(json.dumps({**doc, "bias": 1.5}))
    run_cli("sweep", "--config", str(cfg), "--out", str(out), expect=2)
    assert not out.exists()
    cfg.write_text(json.dumps({**doc, "bias": 0.3}))
    proc = run_cli("sweep", "--config", str(cfg), "--out", str(out))
    assert json.loads(proc.stdout) == {"rows": 4, "errors": 0,
                                       "out": str(out)}


def test_fit_rate_too_few_points(tmp_path):
    rows = tmp_path / "rows.csv"
    rows.write_text("T,N,d,rep,seed,metric,value,wall_ms,error\n"
                    "10,2,2,0,0,m,1.0,1.0,\n100,2,2,0,0,m,2.0,1.0,\n")
    proc = subprocess.run(CLI + ["fit-rate", "--in", str(rows),
                                 "--metric", "m"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_fit_rate_rejects_a_table_without_the_result_columns(tmp_path):
    rows = tmp_path / "rows.csv"
    rows.write_text("metric,value\nsmcal2,1.0\n")
    proc = run_cli("fit-rate", "--in", str(rows), "--metric", "smcal2",
                   expect=2)
    assert proc.stderr == (f"error: {rows}: not a results table, its header "
                           "lacks ['T', 'N', 'd', 'rep', 'seed', 'wall_ms', "
                           "'error']\n")


@pytest.mark.parametrize("text, message", [
    (None, "No such file or directory"),
    ("0.1,x,1\n", "non-numeric cell in row 1"),
    ("0.1,0.2,1\n" * 40, "csv contexts have dimension 3, expected 2"),
], ids=["missing", "unparsable", "wrong-d"])
def test_sweep_csv_faults_exit_2_before_the_table(tmp_path, text, message):
    """A csv adversary's file that is missing, cannot be parsed or has
    another dimension fails the config whatever the horizon: exit 2, one
    error line, no table written."""
    data, cfg, out = (tmp_path / name for name in ("d.csv", "cfg.json",
                                                   "rows.csv"))
    if text is not None:
        data.write_text(text)
    cfg.write_text(json.dumps({**_GOOD_SWEEP, "adversary": "csv",
                               "csv_path": str(data)}))
    proc = run_cli("sweep", "--config", str(cfg), "--out", str(out), expect=2)
    assert message in proc.stderr and len(proc.stderr.splitlines()) == 1
    assert not out.exists()


def test_batch_reports(tmp_path):
    for report in ("saerr", "dsmcal2"):
        proc = run_cli("batch", "--train", "iid-logistic", "--test",
                       "iid-logistic", "--T", "60", "--seed", "3",
                       "--report", report, "--test-T", "40", "--stride", "4")
        rep = json.loads(proc.stdout)
        assert rep["name"] == report
        assert np.isfinite(rep["value"])


def test_batch_draws_are_a_total():
    """--draws counts Monte-Carlo draws over all test points, as its help
    says: 40 draws on 8 test points report 40, not 320."""
    proc = run_cli("batch", "--train", "iid-logistic", "--test",
                   "iid-logistic", "--T", "60", "--seed", "3", "--report",
                   "dsmcal2", "--test-T", "8", "--draws", "40")
    assert "plug-in Monte-Carlo, 40 draws" in json.loads(proc.stdout)["notes"]
    usage = run_cli("batch", "--help").stdout
    assert "draws in total" in " ".join(usage.split())


def test_batch_csv_paths(tmp_path):
    data = tmp_path / "d.csv"
    rng = np.random.default_rng(0)
    lines = [f"{rng.uniform(-0.5, 0.5):.4f},{int(rng.integers(0, 2))}"
             for _ in range(120)]
    data.write_text("\n".join(lines) + "\n")
    proc = run_cli("batch", "--train", str(data), "--test", str(data),
                   "--T", "60", "--seed", "0", "--report", "saerr",
                   "--test-T", "50", "--stride", "3")
    assert json.loads(proc.stdout)["value"] is not None


def test_batch_synthetic_training_takes_d_from_test_csv(tmp_path):
    """A synthetic training stream takes its dimension from a csv test file
    (two features: d = 3), so the mixture and the test stream agree."""
    data = tmp_path / "two_features.csv"
    rng = np.random.default_rng(2)
    data.write_text("\n".join(f"{rng.uniform(-0.5, 0.5):.4f},"
                              f"{rng.uniform(-0.5, 0.5):.4f},"
                              f"{int(rng.integers(0, 2))}"
                              for _ in range(40)) + "\n")
    proc = run_cli("batch", "--train", "iid-logistic", "--test", str(data),
                   "--T", "30", "--test-T", "20", "--stride", "5",
                   "--report", "dsmcal2")
    assert np.isfinite(json.loads(proc.stdout)["value"])


def test_csv_read_once_per_command(tmp_path, monkeypatch, capsys):
    """simulate, batch and sweep parse a csv file once, even when batch
    trains and tests on the same file."""
    from swapcal import cli, harness

    calls = []
    real = harness.ingest_csv

    def counting(path):
        calls.append(str(path))
        return real(path)

    monkeypatch.setattr(harness, "ingest_csv", counting)
    data = tmp_path / "d.csv"
    rng = np.random.default_rng(1)
    data.write_text("\n".join(f"{rng.uniform(-0.5, 0.5):.4f},"
                              f"{int(rng.integers(0, 2))}"
                              for _ in range(40)) + "\n")
    out = tmp_path / "tr.jsonl"
    assert cli.main(["simulate", "--adversary", "csv", "--csv-path",
                     str(data), "--T", "30", "--d", "2", "--N", "2",
                     "--out", str(out)]) == 0
    assert "csv_scale" in json.loads(capsys.readouterr().out)
    assert calls == [str(data)]
    calls.clear()
    assert cli.main(["batch", "--train", str(data), "--test", str(data),
                     "--T", "20", "--test-T", "10", "--stride", "4",
                     "--report", "saerr"]) == 0
    assert np.isfinite(json.loads(capsys.readouterr().out)["value"])
    assert calls == [str(data)]
    calls.clear()
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({
        "T_list": [10, 20], "d": 2, "reps": 2, "metric": "smcal2",
        "n_rule": "2", "adversary": "csv", "csv_path": str(data),
        "out": str(tmp_path / "rows.csv")}))
    assert cli.main(["sweep", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["errors"] == 0
    assert calls == [str(data)]


def test_batch_one_csv_file_trains_and_tests_on_disjoint_rows(
        tmp_path, monkeypatch, capsys):
    """--train F --test F trains on the first --T rows of F and scores the
    --test-T rows after them, so no scored row is a training row; a file
    too short for both exits 2 before any training."""
    from swapcal import cli, harness

    seen = {}
    real_train, real_saerr = cli.train_mixture, cli.estimate_saerr

    def train(stream, *args, **kwargs):
        seen["train"] = stream
        return real_train(stream, *args, **kwargs)

    def saerr(mix, stream, **kwargs):
        seen["test"] = stream
        return real_saerr(mix, stream, **kwargs)

    monkeypatch.setattr(cli, "train_mixture", train)
    monkeypatch.setattr(cli, "estimate_saerr", saerr)
    data = tmp_path / "d.csv"
    data.write_text("".join(f"{t / 100:.2f},{t % 2}\n" for t in range(50)))
    args = ["batch", "--train", str(data), "--test", str(data), "--T", "30",
            "--stride", "5", "--report", "saerr"]
    assert cli.main(args + ["--test-T", "15"]) == 0
    (X_train, y_train), (X_test, y_test) = seen["train"], seen["test"]
    assert len(X_train) == 30 and len(X_test) == 15
    assert not set(map(tuple, X_train.tolist())) & set(map(tuple,
                                                          X_test.tolist()))
    spec = harness.AdversarySpec("csv", path=str(data))
    X, y = harness.generate_stream(spec, 45, 2)
    np.testing.assert_array_equal(np.vstack([X_train, X_test]), X)
    np.testing.assert_array_equal(np.concatenate([y_train, y_test]), y)
    capsys.readouterr()

    seen.clear()
    assert cli.main(args + ["--test-T", "25"]) == 2
    assert not seen
    assert "has 50 rows, fewer than the requested horizon 55" in \
        capsys.readouterr().err


@pytest.mark.parametrize("test_arg", ["./d.csv", "absolute"])
def test_batch_one_csv_file_named_two_ways(tmp_path, monkeypatch, capsys,
                                           test_arg):
    """--train d.csv with --test ./d.csv or the file's absolute path names
    one file: it is parsed once and split into disjoint training and test
    rows, as when both arguments are the same string."""
    from swapcal import cli, harness

    calls, seen = [], {}
    real_ingest, real_train = harness.ingest_csv, cli.train_mixture
    real_saerr = cli.estimate_saerr
    monkeypatch.setattr(harness, "ingest_csv",
                        lambda path: calls.append(path) or real_ingest(path))
    monkeypatch.setattr(cli, "train_mixture", lambda stream, *a, **k: (
        seen.setdefault("train", stream), real_train(stream, *a, **k))[1])
    monkeypatch.setattr(cli, "estimate_saerr", lambda mix, stream, **k: (
        seen.setdefault("test", stream), real_saerr(mix, stream, **k))[1])
    (tmp_path / "d.csv").write_text(
        "".join(f"{t / 100:.2f},{t % 2}\n" for t in range(50)))
    monkeypatch.chdir(tmp_path)
    if test_arg == "absolute":
        test_arg = str(tmp_path / "d.csv")
    assert cli.main(["batch", "--train", "d.csv", "--test", test_arg,
                     "--T", "30", "--test-T", "15", "--stride", "5",
                     "--report", "saerr"]) == 0
    assert np.isfinite(json.loads(capsys.readouterr().out)["value"])
    assert len(calls) == 1
    (X_train, _), (X_test, _) = seen["train"], seen["test"]
    assert len(X_train) == 30 and len(X_test) == 15
    assert not set(X_train[:, 1].tolist()) & set(X_test[:, 1].tolist())


def test_batch_csv_files_of_two_widths_exit_2(tmp_path, monkeypatch, capsys):
    """A test csv with another width than the training csv exits 2 with the
    dimension message before any training; each file is parsed once."""
    from swapcal import cli, harness

    real, calls = harness.ingest_csv, []
    monkeypatch.setattr(harness, "ingest_csv",
                        lambda path: calls.append(path) or real(path))
    monkeypatch.setattr(cli, "train_mixture",
                        lambda *a, **k: calls.append("trained"))
    train, test = tmp_path / "a.csv", tmp_path / "b.csv"
    train.write_text("0.1,1\n0.2,0\n" * 10)
    test.write_text("0.1,0.3,1\n0.2,-0.1,0\n" * 10)
    assert cli.main(["batch", "--train", str(train), "--test", str(test),
                     "--T", "20", "--report", "saerr"]) == 2
    assert capsys.readouterr().err == ("error: csv contexts have dimension "
                                       "3, expected 2\n")
    assert calls == [str(train), str(test)]


def test_batch_empty_training_csv(tmp_path):
    data = tmp_path / "empty.csv"
    data.write_text("")
    proc = subprocess.run(CLI + ["batch", "--train", str(data), "--test",
                                 "iid-logistic", "--T", "8", "--report",
                                 "saerr"], capture_output=True, text=True)
    assert proc.returncode == 2
    assert "empty.csv" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_command():
    proc = run_cli("verify")
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("[")]
    assert len(lines) == 11
    assert all(ln.startswith("[PASS]") for ln in lines)


def test_transcript_files_bit_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    args = ["simulate", "--adversary", "iid-logistic", "--T", "60", "--d", "2",
            "--N", "3", "--seed", "11"]
    run_cli(*args, "--out", str(a))
    run_cli(*args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.jsonl"
    run_cli("simulate", "--adversary", "iid-logistic", "--T", "60", "--d", "2",
            "--N", "3", "--seed", "12", "--out", str(c))
    assert a.read_bytes() != c.read_bytes()


def test_usage_requires_subcommand():
    proc = subprocess.run(CLI, capture_output=True, text=True)
    assert proc.returncode == 2


def test_adversary_kinds_come_from_one_table(tmp_path, capsys):
    """simulate --adversary offers exactly harness.ADVERSARIES; batch maps
    every other kind to its default AdversarySpec and anything else to a
    csv path; AdversarySpec alone refuses a csv kind without a path, on
    both commands."""
    from swapcal import cli, harness

    with pytest.raises(SystemExit):
        cli.main(["simulate", "--help"])
    assert "{" + ",".join(harness.ADVERSARIES) + "}" in capsys.readouterr().out
    for kind in set(harness.ADVERSARIES) - {"csv"}:
        assert cli._adversary_from_arg(kind) == harness.AdversarySpec(kind)
    assert cli._adversary_from_arg("d.csv") == harness.AdversarySpec(
        "csv", path="d.csv")
    with pytest.raises(ValueError, match="csv adversary needs a path"):
        cli._adversary_from_arg("csv")
    assert cli.main(["simulate", "--adversary", "csv", "--T", "4", "--d", "2",
                     "--out", str(tmp_path / "tr.jsonl")]) == 2
    assert "csv adversary needs a path" in capsys.readouterr().err
