"""End-to-end command line checks: schemas, determinism, config handling,
and exit codes.  Everything runs in-process through main() except one
subprocess check of the module entry point.
"""

import csv
import math
import subprocess
import sys

import pytest

from igawave.cli import main


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    return reader.fieldnames, rows


def test_spectrum_schema_and_values(tmp_path):
    out = tmp_path / "spec.csv"
    rc = main(["spectrum", "--degrees", "3", "--elements", "5,10", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["p", "N", "lambda", "lambda_tilde", "tau_c", "tau_c_tilde", "ratio"]
    assert [(r["p"], r["N"]) for r in rows] == [("3", "5"), ("3", "10")]
    first = rows[0]
    assert float(first["lambda"]) == pytest.approx(402.8, rel=1e-2)
    for r in rows:
        assert float(r["tau_c_tilde"]) > float(r["tau_c"])
        assert float(r["ratio"]) == pytest.approx(
            float(r["tau_c_tilde"]) / float(r["tau_c"]), rel=1e-12
        )


def test_spectrum_penalty_column_subsets(tmp_path):
    out_off = tmp_path / "off.csv"
    out_on = tmp_path / "on.csv"
    base = ["spectrum", "--degrees", "3", "--elements", "5", "--workers", "1"]
    assert main(base + ["--penalty", "off", "--out", str(out_off)]) == 0
    assert main(base + ["--penalty", "on", "--out", str(out_on)]) == 0
    assert read_csv(out_off)[0] == ["p", "N", "lambda", "tau_c"]
    assert read_csv(out_on)[0] == ["p", "N", "lambda_tilde", "tau_c_tilde"]


def test_reruns_are_byte_identical(tmp_path):
    args = ["spectrum", "--degrees", "4", "--elements", "5,10", "--rho", "0.5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gnuplot_script_references_csv(tmp_path):
    out = tmp_path / "spec.csv"
    plot = tmp_path / "spec.gp"
    rc = main(["spectrum", "--degrees", "3", "--elements", "5",
               "--out", str(out), "--gnuplot", str(plot)])
    assert rc == 0
    text = plot.read_text()
    assert str(out) in text
    assert "logscale" in text


def test_convergence_space_schema(tmp_path):
    out = tmp_path / "conv.csv"
    rc = main([
        "convergence", "--mode", "space", "--degrees", "3", "--elements", "5,10",
        "--steps", "50", "--final-time", "0.05", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["p", "N", "h", "l2", "h1", "l2_rate", "h1_rate"]
    assert len(rows) == 2
    assert rows[0]["l2_rate"] == ""
    assert 2.0 < float(rows[1]["l2_rate"]) < 6.0
    assert float(rows[1]["l2"]) < float(rows[0]["l2"])
    assert float(rows[0]["h"]) == pytest.approx(0.2)


def test_convergence_time_schema(tmp_path):
    out = tmp_path / "time.csv"
    rc = main([
        "convergence", "--mode", "time", "--degrees", "3", "--elements", "10",
        "--steps", "40,80", "--final-time", "0.5", "--out", str(out),
    ])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["p", "N", "steps", "tau", "l2", "rate"]
    assert [r["steps"] for r in rows] == ["40", "80"]
    assert float(rows[0]["tau"]) == pytest.approx(0.5 / 40)
    assert rows[0]["rate"] == ""
    float(rows[1]["rate"])  # present and parseable; slope checked elsewhere


def test_stability_region_schema(tmp_path):
    out = tmp_path / "stab.csv"
    rc = main(["stability-region", "--degrees", "3", "--elements", "10", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["rho", "tau_c", "tau_c_tilde"]
    assert len(rows) == 21
    assert float(rows[0]["rho"]) == 0.0
    assert float(rows[-1]["rho"]) == 1.0
    taus = [float(r["tau_c"]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(taus, taus[1:]))
    for r in rows:
        assert float(r["tau_c_tilde"]) >= float(r["tau_c"])


def test_solve_trace(tmp_path):
    out = tmp_path / "trace.csv"
    rc = main(["solve", "--degrees", "3", "--elements", "8", "--steps", "40",
               "--final-time", "0.004", "--out", str(out)])
    assert rc == 0
    header, rows = read_csv(out)
    assert header == ["step", "t", "l2_error"]
    assert [int(r["step"]) for r in rows] == list(range(41))
    assert float(rows[-1]["t"]) == pytest.approx(0.004)
    assert all(float(r["l2_error"]) < 1e-2 for r in rows)


def test_solve_blow_up_exit_code(tmp_path):
    out = tmp_path / "blow.csv"
    rc = main(["solve", "--degrees", "3", "--elements", "8", "--steps", "10",
               "--final-time", "10", "--out", str(out)])
    assert rc == 4
    header, rows = read_csv(out)
    assert header == ["step", "t", "l2_error"]
    assert rows, "partial trace should still be written"
    last = float(rows[-1]["l2_error"])
    assert math.isnan(last) or last > 1.0


def test_invalid_rho_exits_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--rho", "1.5", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_penalty_both_rejected_for_convergence(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--penalty", "both", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_multiple_degrees_rejected_where_single_expected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--degrees", "3,4", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_exp_coefficient_is_1d_only(tmp_path):
    rc = main(["spectrum", "--dim", "2", "--kappa", "exp", "--degrees", "3",
               "--elements", "5", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[spectrum]\ndegrees = 3\nelements = 5,10\nrho = 0.5\n")
    out1 = tmp_path / "c1.csv"
    rc = main(["spectrum", "--config", str(cfg), "--out", str(out1)])
    assert rc == 0
    _, rows = read_csv(out1)
    assert [(r["p"], r["N"]) for r in rows] == [("3", "5"), ("3", "10")]
    # explicit flags win over config values
    out2 = tmp_path / "c2.csv"
    rc = main(["spectrum", "--config", str(cfg), "--elements", "5", "--out", str(out2)])
    assert rc == 0
    _, rows = read_csv(out2)
    assert [(r["p"], r["N"]) for r in rows] == [("3", "5")]


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[spectrum]\nshade = 7\n")
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "spec.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "igawave.cli", "spectrum", "--degrees", "3",
         "--elements", "5", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "--degrees", "5", "--elements", "10", "--steps", "20", "--final-time", "0.02"],
    ["stability-region", "--degrees", "5", "--elements", "10"],
    ["convergence", "--mode", "space", "--degrees", "5", "--elements", "5,10",
     "--steps", "20", "--final-time", "0.02"],
    ["convergence", "--mode", "time", "--degrees", "5", "--elements", "10",
     "--steps", "20,40", "--final-time", "0.02"],
])
def test_penalty_weights_take_effect(tmp_path, argv):
    default, unweighted = tmp_path / "default.csv", tmp_path / "eta0.csv"
    assert main(argv + ["--out", str(default)]) == 0
    assert main(argv + ["--eta-a", "0", "--eta-b", "0", "--out", str(unweighted)]) == 0
    assert default.read_bytes() != unweighted.read_bytes()


def test_invalid_penalty_weight_exits_2(tmp_path, capsys):
    rc = main(["spectrum", "--degrees", "3", "--elements", "5", "--eta-b=-1e9",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "penalty weight eta_b must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["mode = time", "stride = 3", "init = greville",
                                  "final-time = 2"])
def test_config_key_of_another_subcommand_rejected(tmp_path, line):
    cfg = tmp_path / "other.ini"
    cfg.write_text(f"[spectrum]\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("line", ["degrees = ,", "kappa = two", "dim = 4", "rho = 1.5",
                                  "workers = 0"])
def test_config_value_checked_like_its_flag(tmp_path, line):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[spectrum]\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_space_mode_needs_two_element_counts(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convergence", "--degrees", "5", "--elements", "10",
              "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "space-refinement mode needs at least two element counts" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["convergence", "--degrees", "3", "--elements", "10,10", "--steps", "200"], "elements"),
    (["convergence", "--degrees", "3,3", "--elements", "5,10", "--steps", "200"], "degrees"),
    (["convergence", "--mode", "time", "--elements", "20", "--steps", "1000,1000"], "steps_list"),
])
def test_repeated_list_entry_exits_2(tmp_path, capsys, argv, name):
    # a repeated entry would give a 0/0 rate
    rc = main(argv + ["--workers", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert f"{name} must not repeat an entry" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv", [
    ["stability-region", "--rho", "0.5"],
    ["stability-region", "--penalty", "on"],
    ["stability-region", "--final-time", "2"],
    ["stability-region", "--steps", "100"],
    ["spectrum", "--final-time", "2"],
    ["spectrum", "--steps", "100"],
    ["solve", "--workers", "2"],
    ["spectrum", "--workers", "0"],
    ["convergence", "--workers", "-3"],
    ["stability-region", "--workers", "2"],
    ["stability-region", "--dim", "1"],
])
def test_option_the_subcommand_does_not_read_exits_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert not (tmp_path / "x.csv").exists()


def test_config_list_for_a_single_value_option_exits_2(tmp_path, capsys):
    cfg = tmp_path / "solve.ini"
    cfg.write_text("[solve]\ndegrees = 3,4\n")
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "bad config value for 'degrees'" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_spectrum_beyond_the_dense_limit(tmp_path):
    out = tmp_path / "big.csv"
    N = 2500  # 2502 unknowns per operator at p=5
    rc = main(["spectrum", "--degrees", "5", "--elements", str(N), "--workers", "1",
               "--out", str(out)])
    assert rc == 0
    _, rows = read_csv(out)
    assert float(rows[0]["lambda_tilde"]) / (N * math.pi) ** 2 == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("argv, option", [
    pytest.param(["solve", "--steps", "0"], "--steps", id="solve-steps-0"),
    pytest.param(["convergence", "--mode", "time", "--steps", "0,10"], "--steps",
                 id="time-mode-steps-0,10"),
    pytest.param(["solve", "--stride", "0"], "--stride", id="stride-0"),
    pytest.param(["solve", "--stride", "-2"], "--stride", id="stride-minus-2"),
    pytest.param(["solve", "--final-time", "-1"], "--final-time", id="final-time-minus-1"),
    pytest.param(["solve", "--final-time", "nan"], "--final-time", id="final-time-nan"),
    pytest.param(["convergence", "--dim", "3"], "--dim", id="convergence-dim-3"),
    pytest.param(["solve", "--dim", "3"], "--dim", id="solve-dim-3"),
])
def test_out_of_range_count_or_time_exits_2_naming_the_option(tmp_path, capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert f"argument {option}:" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_eigensolver_failure_exits_3(tmp_path, capsys, monkeypatch, workers):
    import igawave.eigen

    monkeypatch.setattr(igawave.eigen, "SWEEPS", 1)  # no two sweeps to compare
    out = tmp_path / "spec.csv"
    argv = ["spectrum", "--degrees", "3", "--elements", "5,10", "--workers", workers]
    assert main(argv + ["--out", str(out)]) == 3
    assert "numerical failure: top eigenvalue did not settle" in capsys.readouterr().err
    assert not out.exists()
