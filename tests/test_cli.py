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


def test_fit_rate_too_few_points(tmp_path):
    rows = tmp_path / "rows.csv"
    rows.write_text("T,N,d,rep,seed,metric,value,wall_ms,error\n"
                    "10,2,2,0,0,m,1.0,1.0,\n100,2,2,0,0,m,2.0,1.0,\n")
    proc = subprocess.run(CLI + ["fit-rate", "--in", str(rows),
                                 "--metric", "m"],
                          capture_output=True, text=True)
    assert proc.returncode == 2


def test_batch_reports(tmp_path):
    for report in ("saerr", "dsmcal2"):
        proc = run_cli("batch", "--train", "iid-logistic", "--test",
                       "iid-logistic", "--T", "60", "--seed", "3",
                       "--report", report, "--test-T", "40", "--stride", "4")
        rep = json.loads(proc.stdout)
        assert rep["name"] == report
        assert np.isfinite(rep["value"])


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
    """simulate and batch parse a csv file once, even when batch trains and
    tests on the same file."""
    import swapcal.cli as cli

    calls = []
    real = cli.ingest_csv

    def counting(path):
        calls.append(str(path))
        return real(path)

    monkeypatch.setattr(cli, "ingest_csv", counting)
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
