import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest

from lrmc import experiments
from lrmc.cli import main, parse_args
from lrmc.experiments import ExperimentSpec

SMALL = ["--d1", "30", "--d2", "24", "--r", "2", "--p", "0.6",
         "--max-iters", "600", "--trials", "1", "--tol", "1e-10"]


def test_defaults():
    ns = parse_args(["converge"])
    assert (ns.d1, ns.d2, ns.r) == (160, 100, 5)
    assert ns.p == 0.2 and ns.step == 0.5
    assert ns.lambdas == (1e-6, 1e-10)
    assert ns.trials == 50 and ns.tol == 1e-14


@pytest.mark.parametrize("command", ["converge", "phase", "timing", "theory"])
def test_defaults_are_experiment_spec_defaults(command):
    # Every field with a default in ExperimentSpec is a CLI setting too;
    # the namespace names two of them by their flags.
    ns = parse_args([command])
    shared = [f for f in dataclasses.fields(ExperimentSpec)
              if f.default is not dataclasses.MISSING]
    assert len(shared) == 12
    dest = {"master_seed": "seed", "algorithms": "algs"}
    for f in shared:
        assert getattr(ns, dest.get(f.name, f.name)) == f.default, f.name


def test_flag_overrides():
    ns = parse_args(["converge", "--d1", "12", "--s", "0.3",
                     "--lambda", "1e-4,1e-9", "--algs", "VGD,BGD"])
    assert ns.d1 == 12 and ns.step == 0.3
    assert ns.lambdas == (1e-4, 1e-9)
    assert ns.algs == ("VGD", "BGD")


def test_usage_errors():
    with pytest.raises(SystemExit) as exc:
        parse_args([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        parse_args(["converge", "--p", "1.5"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        parse_args(["converge", "--d1", "-4"])
    assert exc.value.code == 2


def test_config_file_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nd1 = 50\nd2 = 40\ns = 0.25\n")
    ns = parse_args(["converge", "--config", str(cfg)])
    assert ns.d1 == 50 and ns.d2 == 40 and ns.step == 0.25
    ns = parse_args(["converge", "--config", str(cfg), "--d1", "64"])
    assert ns.d1 == 64 and ns.d2 == 40  # flag wins, config fills the rest


def test_config_file_bad_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense = 1\n")
    with pytest.raises(SystemExit) as exc:
        parse_args(["converge", "--config", str(cfg)])
    assert exc.value.code == 2


@pytest.mark.parametrize("line", ["p=1.5", "d1=-5", "s=0", "tol=-1",
                                  "trials=0", "jobs=-2"])
def test_config_file_values_get_flag_checks(tmp_path, capsys, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    with pytest.raises(SystemExit) as exc:
        parse_args(["converge", "--config", str(cfg)])
    assert exc.value.code == 2
    key = line.partition("=")[0]
    assert f"bad.cfg:1: {key}: must be" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["converge", "--lambda=1e-4,-1e-4"],
    ["phase", "--p-grid", "0.2,1.5"],
    ["phase", "--r-grid", "0,2"],
])
def test_grid_values_get_flag_checks(argv):
    with pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2


def test_seed_env_fallback(monkeypatch):
    monkeypatch.setenv("LRMC_SEED", "77")
    assert parse_args(["converge"]).seed == 77
    assert parse_args(["converge", "--seed", "5"]).seed == 5


def test_converge_end_to_end(tmp_path):
    code = main(["converge", *SMALL, "--algs", "VGD",
                 "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "convergence.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows, "no convergence rows written"
    rel = [float(r["rel_err"]) for r in rows]
    assert rel[-1] < rel[0]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["aggregates"]["diverged_algorithms"] == []


def test_converge_huge_step_records_divergence(tmp_path):
    code = main(["converge", "--d1", "30", "--d2", "20", "--r", "2",
                 "--p", "0.5", "--trials", "1", "--algs", "VGD",
                 "--s", "1e200", "--out", str(tmp_path)])
    assert code == 1
    with open(tmp_path / "convergence.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["k"] for r in rows] == ["0", "1"]
    assert not float(rows[-1]["rel_err"]) <= 1e6
    assert rows[-1]["dist"] == "nan"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["aggregates"]["diverged_algorithms"] == ["VGD"]


def test_converge_divergence_raises_no_runtime_warning(tmp_path):
    argv = ["converge", "--d1", "30", "--d2", "20", "--r", "2", "--p", "0.5",
            "--trials", "1", "--algs", "VGD", "--s", "1e200", "--out"]

    def rows(out):
        with open(out / "convergence.csv") as fh:
            return [{k: v for k, v in r.items() if k != "seconds"}
                    for r in csv.DictReader(fh)]

    assert main([*argv, str(tmp_path / "plain")]) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main([*argv, str(tmp_path / "strict")]) == 1
    assert rows(tmp_path / "strict") == rows(tmp_path / "plain")


def test_converge_takes_divergence_from_the_run_status(tmp_path, capsys):
    # RGD's huge penalty makes it diverge beside a converging VGD.
    code = main(["converge", *SMALL, "--algs", "VGD,RGD", "--lambda",
                 "1e200", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "lrmc: diverged: RGD\n"
    with open(tmp_path / "convergence.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {(r["algorithm"], r["status"]) for r in rows} == {
        ("VGD", "converged"), ("RGD", "diverged")}
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["aggregates"]["diverged_algorithms"] == ["RGD"]


def test_svd_failure_is_reported_as_error(monkeypatch, capsys, tmp_path):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    assert main(["converge", *SMALL, "--out", str(tmp_path)]) == 1
    assert "lrmc: error: SVD did not converge" in capsys.readouterr().err


def test_converge_flags_nan_rows_as_diverged(tmp_path, monkeypatch):
    def nan_rows(spec, csv_path=None):
        return [{"algorithm": "VGD", "rel_err": "0.5", "status": "diverged"},
                {"algorithm": "VGD", "rel_err": "nan", "status": "diverged"},
                {"algorithm": "BGD", "rel_err": "1e-15",
                 "status": "converged"}]

    monkeypatch.setattr(experiments, "run_convergence", nan_rows)
    code = main(["converge", *SMALL, "--out", str(tmp_path)])
    assert code == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["aggregates"]["diverged_algorithms"] == ["VGD"]


def test_phase_end_to_end(tmp_path):
    code = main(["phase", "--d1", "20", "--d2", "16", "--kappa", "1",
                 "--trials", "2", "--max-iters", "500", "--algs", "VGD",
                 "--p-grid", "0.3,1.0", "--r-grid", "2,4",
                 "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "phase.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4


@pytest.mark.parametrize("command", ["phase", "timing"])
def test_trials_that_raise_fail_the_command(command, tmp_path, monkeypatch,
                                            capsys):
    def fails(gt, mask, r):
        raise np.linalg.LinAlgError("SVD did not converge")
    monkeypatch.setattr(experiments, "spectral_init", fails)
    args = [command, *SMALL, "--algs", "VGD", "--out", str(tmp_path)]
    if command == "phase":
        args += ["--p-grid", "0.6", "--r-grid", "2"]
    with pytest.warns(UserWarning, match="1 of 1 trials raised"):
        assert main(args) == 1
    assert "lrmc: 1 trials raised" in capsys.readouterr().err
    assert (tmp_path / f"{command}.csv").exists()


@pytest.mark.parametrize("command, name", [
    ("converge", "convergence.csv"), ("phase", "phase.csv"),
    ("timing", "timing.csv"), ("theory", "hypothesis.csv")])
def test_verbose_prints_what_was_written(command, name, tmp_path, capsys):
    args = [command, *SMALL, "--algs", "VGD", "-v", "--out", str(tmp_path)]
    if command == "phase":
        args += ["--p-grid", "0.6", "--r-grid", "2"]
    assert main(args) == 0
    expected = f"wrote {tmp_path / name}"
    if command == "converge":
        with open(tmp_path / name) as fh:
            expected += f" ({len(list(csv.DictReader(fh)))} rows)"
    assert capsys.readouterr().out == expected + "\n"
    main([a for a in args if a != "-v"])
    assert capsys.readouterr().out == ""


def test_timing_end_to_end(tmp_path):
    code = main(["timing", *SMALL, "--algs", "VGD,BGD",
                 "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "timing.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["algorithm"] for r in rows} == {"VGD", "BGD"}


def test_theory_end_to_end(tmp_path):
    code = main(["theory", *SMALL, "--selectors", "1,31",
                 "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "hypothesis.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["clause"] for r in rows} == {"a", "b", "c", "d", "e"}
    summary = json.loads((tmp_path / "summary.json").read_text())
    agg = summary["aggregates"]
    assert {"fraction_satisfied", "contraction_ok",
            "balancing_initial_ok"} <= set(agg)


def test_theory_without_selectors(tmp_path):
    code = main(["theory", *SMALL, "--selectors", "0",
                 "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "hypothesis.csv") as fh:
        clauses = {r["clause"] for r in csv.DictReader(fh)}
    assert clauses == {"a", "d", "e"}


@pytest.mark.parametrize("text", ["-3", "0,3", "999", "1,51"])
def test_theory_selectors_are_checked_before_any_solve(text, tmp_path,
                                                       capsys):
    # At 30x20 a selector is in 1..50, or 0 stands alone. Anything else,
    # from a flag or a config file, is a usage error before the output
    # directory is made.
    out = tmp_path / "out"
    argv = ["theory", "--d1", "30", "--d2", "20", "--out", str(out)]
    cfg = tmp_path / "sel.cfg"
    cfg.write_text(f"selectors={text}\n")
    for extra in ([f"--selectors={text}"], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        assert ("--selectors: must be integers in 1..50, or 0 alone, got "
                f"{text}") in capsys.readouterr().err
        assert not out.exists()
    assert parse_args(argv + ["--selectors", "1,50"]).selectors == (1, 50)


def test_theory_divergence_exits_1_without_runtime_warning(tmp_path,
                                                          capsys):
    argv = ["theory", "--d1", "30", "--d2", "20", "--r", "2", "--p", "0.5",
            "--s", "1e200", "--max-iters", "50", "--out", str(tmp_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 1
    assert "lrmc: diverged: main" in capsys.readouterr().err
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["aggregates"]["status"] == "diverged"
    with open(tmp_path / "hypothesis.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["clause"] for r in rows} == {"a", "b", "c", "d", "e"}
    assert all(r["satisfied"] == "0" for r in rows
               if not np.isfinite(float(r["lhs"])))


def test_plot_lines_and_heatmap(tmp_path):
    out = tmp_path / "exp"
    assert main(["converge", *SMALL, "--algs", "VGD",
                 "--out", str(out)]) == 0
    assert main(["plot", "--csv", str(out / "convergence.csv"),
                 "--kind", "lines", "--out", str(tmp_path)]) == 0
    svg = (tmp_path / "convergence.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg

    assert main(["phase", "--d1", "20", "--d2", "16", "--trials", "2",
                 "--max-iters", "400", "--algs", "VGD",
                 "--p-grid", "0.3,1.0", "--r-grid", "2,4",
                 "--out", str(out)]) == 0
    assert main(["plot", "--csv", str(out / "phase.csv"),
                 "--kind", "heatmap", "--contour", str(out / "contour.csv"),
                 "--out", str(tmp_path)]) == 0
    assert (tmp_path / "phase.svg").read_text().startswith("<svg")


def test_plot_lines_ends_a_diverged_series_at_its_last_finite_point(
        tmp_path):
    # A finite series beside a diverged one keeps the finite log scale.
    path = tmp_path / "convergence.csv"
    path.write_text("algorithm,lambda,k,rel_err\n"
                    "VGD,,0,1.0\nVGD,,1,0.01\nVGD,,2,0.0001\n"
                    "BGD,,0,1.0\nBGD,,1,inf\n")
    assert main(["plot", "--csv", str(path), "--kind", "lines",
                 "--out", str(tmp_path)]) == 0
    svg = (tmp_path / "convergence.svg").read_text()
    assert 'points="60.00,40.00"' in svg  # BGD
    assert 'points="60.00,40.00 340.00,210.00 620.00,380.00"' in svg  # VGD

    # Both runs diverge at k = 1 (rel_err inf).
    out = tmp_path / "div"
    assert main(["converge", "--d1", "30", "--d2", "20", "--r", "2",
                 "--p", "0.5", "--s", "1e200", "--trials", "1",
                 "--algs", "VGD,BGD", "--out", str(out)]) == 1
    assert main(["plot", "--csv", str(out / "convergence.csv"),
                 "--kind", "lines", "--out", str(out)]) == 0
    assert "nan" not in (out / "convergence.svg").read_text()

    path.write_text("algorithm,lambda,k,rel_err\nVGD,,0,nan\n")
    assert main(["plot", "--csv", str(path), "--kind", "lines",
                 "--out", str(tmp_path)]) == 1


def test_plot_lines_draws_each_run_as_its_own_polyline(tmp_path):
    # The CSV has no trial column, so a run starts wherever k does not
    # increase; joined, the line ran from one run's end back to k = 0.
    path = tmp_path / "convergence.csv"
    path.write_text("algorithm,lambda,k,rel_err\n"
                    "VGD,,0,1.0\nVGD,,2,0.0001\n"
                    "VGD,,0,1.0\nVGD,,1,0.01\nVGD,,2,0.0001\n")
    assert main(["plot", "--csv", str(path), "--kind", "lines",
                 "--out", str(tmp_path)]) == 0
    svg = (tmp_path / "convergence.svg").read_text()
    assert svg.count("<polyline") == 2
    assert 'points="60.00,40.00 620.00,380.00"' in svg
    assert 'points="60.00,40.00 340.00,210.00 620.00,380.00"' in svg

    out = tmp_path / "two"
    assert main(["converge", "--d1", "30", "--d2", "20", "--r", "2",
                 "--p", "0.5", "--trials", "2", "--algs", "VGD",
                 "--out", str(out)]) == 0
    assert main(["plot", "--csv", str(out / "convergence.csv"),
                 "--kind", "lines", "--out", str(out)]) == 0
    svg = (out / "convergence.svg").read_text()
    assert svg.count("<polyline") == 2
    for line in svg.splitlines():
        if line.startswith("<polyline"):
            xs = [float(pt.split(",")[0])
                  for pt in line.split('"')[1].split()]
            assert xs == sorted(xs)


def test_plot_schema_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("foo,bar\n1,2\n")
    code = main(["plot", "--csv", str(bad), "--kind", "lines",
                 "--out", str(tmp_path)])
    assert code == 1
    assert not (tmp_path / "bad.svg").exists()
