"""End-to-end command line checks: schemas, determinism, config handling,
and exit codes.  Everything runs in-process through main() except one
subprocess check of the module entry point.
"""

import argparse
import csv
import errno
import math
import subprocess
import sys

import pytest

import igawave.experiments as ex
from igawave.cli import build_parser, main


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


def test_spectrum_penalty_off_and_on_are_columns_of_both(tmp_path):
    paths = {pen: tmp_path / f"{pen}.csv" for pen in ("off", "on", "both")}
    for pen, path in paths.items():
        assert main(["spectrum", "--degrees", "3,4,5,6", "--penalty", pen,
                     "--out", str(path)]) == 0
    both = [line.split(",") for line in paths["both"].read_text().splitlines()]
    for pen, cols in (("off", [0, 1, 2, 4]), ("on", [0, 1, 3, 5])):
        want = "".join(",".join(cells[i] for i in cols) + "\n" for cells in both)
        assert paths[pen].read_text() == want


def test_spectrum_penalty_off_solves_only_the_standard_pair(tmp_path, monkeypatch):
    import igawave.experiments as ex

    built, solved = [], []
    build_1d, top_eigenvalue = ex.build_1d, ex.top_eigenvalue
    monkeypatch.setattr(ex, "build_1d", lambda *a: built.append(build_1d(*a)) or built[-1])
    monkeypatch.setattr(ex, "top_eigenvalue",
                        lambda K, M: solved.append((K, M)) or top_eigenvalue(K, M))
    assert main(["spectrum", "--degrees", "3,4", "--elements", "5,10", "--penalty", "off",
                 "--workers", "1", "--out", str(tmp_path / "off.csv")]) == 0
    assert len(built) == 4
    assert solved == [(d.K, d.M) for d in built]


def test_spectrum_penalty_off_where_the_penalized_pair_does_not_settle(tmp_path):
    # The penalized p=9, N=80 pair does not settle (tests/test_symbol.py).
    # --penalty off does not solve it, so only --penalty both exits 3.
    out = tmp_path / "off.csv"
    args = ["spectrum", "--degrees", "9", "--elements", "80", "--workers", "1"]
    assert main(args + ["--penalty", "off", "--out", str(out)]) == 0
    assert read_csv(out)[0] == ["p", "N", "lambda", "tau_c"]
    assert main(args + ["--out", str(tmp_path / "both.csv")]) == 3


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


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    for line in ("shade = 7", "variant = boundary-point"):
        cfg.write_text(f"[spectrum]\n{line}\n")
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert "unknown config key" in capsys.readouterr().err


def test_config_out_key_writes_the_csv(tmp_path):
    from_config, from_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[spectrum]\ndegrees = 3\nelements = 5\nout = {from_config}\n")
    assert main(["spectrum", "--config", str(cfg)]) == 0
    assert from_config.exists()
    # an explicit --out still wins
    from_config.unlink()
    assert main(["spectrum", "--config", str(cfg), "--out", str(from_flag)]) == 0
    assert from_flag.exists() and not from_config.exists()


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
                                  "workers = 0", "variant = integral"])
def test_config_value_checked_like_its_flag(tmp_path, line):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[spectrum]\n{line}\n")
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


# Small meshes, so that a parser that still accepted the value would finish fast.
@pytest.mark.parametrize("argv", [
    ["spectrum", "--degrees", "3", "--elements", "5"],
    ["convergence", "--degrees", "3", "--elements", "4,8", "--steps", "10"],
    ["stability-region", "--degrees", "3", "--elements", "5"],
    ["solve", "--degrees", "3", "--elements", "5", "--steps", "10"],
], ids=lambda argv: argv[0])
def test_integral_variant_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--variant", "integral", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --variant integral" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# Tiny sizes: every option a subcommand registers must be read by its run
# function, so that none is accepted only to be ignored.
@pytest.mark.parametrize("argv", [
    ["spectrum", "--degrees", "3", "--elements", "5", "--workers", "1"],
    ["convergence", "--degrees", "3", "--elements", "4,8", "--steps", "10", "--workers", "1"],
    ["stability-region", "--degrees", "3", "--elements", "5"],
    ["solve", "--degrees", "3", "--elements", "5", "--steps", "10"],
], ids=lambda argv: argv[0])
def test_every_registered_option_is_read(tmp_path, argv):
    parser, subs = build_parser()
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = parser.parse_args(argv + ["--out", str(tmp_path / "x.csv")], namespace=Recording())
    reads.clear()  # parsing itself reads every attribute
    assert args.run(parser, args) == 0
    registered = {action.dest for action in subs.choices[argv[0]]._actions}
    assert registered - {"help", "config"} - reads == set()  # config is read in main


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
    (["spectrum", "--degrees", "3", "--elements", "10,10"], "elements"),
    (["spectrum", "--degrees", "3,3", "--elements", "10"], "degrees"),
])
def test_repeated_list_entry_exits_2(tmp_path, capsys, argv, name):
    # a repeated entry would give a 0/0 rate, or a repeated spectrum row
    rc = main(argv + ["--workers", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert f"{name} must not repeat an entry" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


# Assembly takes p + 1 Gauss points (p + 3 with a variable coefficient), and
# the manufactured runs p + 3; the table holds rules of 1 to 16 points.
@pytest.mark.parametrize("argv, degree, top", [
    (["spectrum", "--degrees", "40"], 40, 15),
    (["spectrum", "--degrees", "3,16"], 16, 15),
    (["spectrum", "--degrees", "14", "--kappa", "exp"], 14, 13),
    (["stability-region", "--degrees", "16"], 16, 15),
    (["solve", "--degrees", "14"], 14, 13),
    (["convergence", "--degrees", "14", "--elements", "4,8"], 14, 13),
])
def test_degree_beyond_the_quadrature_table_exits_2(tmp_path, capsys, argv, degree, top):
    rc = main(argv + ["--out", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"degrees must lie in 1..{top} in this run, got {degree}" in err
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
    ["spectrum", "--variant", "boundary-point"],
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


def test_indefinite_mass_exits_3(tmp_path, capsys):
    # At p=13 the penalized mass is numerically indefinite; the banded
    # Cholesky fails on the order-5 leading minor.
    out = tmp_path / "x.csv"
    assert main(["solve", "--degrees", "13", "--steps", "10", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure: banded Cholesky failed: leading minor of order 5" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, bad", [("--out", "nodir/x.csv"), ("--gnuplot", "nodir/x.gp"),
                                       ("--out", "."), ("--gnuplot", "x.csv/x.gp")])
def test_unwritable_output_exits_5_before_any_cell_runs(tmp_path, capsys, monkeypatch, flag, bad):
    calls = []
    monkeypatch.setattr(ex, "stability_region", lambda **kwargs: calls.append(kwargs))
    (tmp_path / "x.csv").write_text("kept\n")  # a file where x.csv/x.gp needs a directory
    paths = {"--out": tmp_path / "out.csv", "--gnuplot": tmp_path / "out.gp", flag: tmp_path / bad}
    argv = ["stability-region", "--degrees", "3", "--elements", "5"]
    assert main(argv + [str(a) for item in paths.items() for a in item]) == 5
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: [Errno ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]


def test_write_failure_exits_5_with_one_line(tmp_path, capsys, monkeypatch):
    def full_disk(path, header, rows):
        raise OSError(errno.ENOSPC, "No space left on device", path)

    monkeypatch.setattr(ex, "write_csv", full_disk)
    argv = ["stability-region", "--degrees", "3", "--elements", "5"]
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 5
    err = capsys.readouterr().err
    assert err == f"cannot write output: [Errno 28] No space left on device: '{tmp_path / 'x.csv'}'\n"
