import csv
import dataclasses
import json
import multiprocessing
import warnings

import numpy as np
import pytest

from lrmc import experiments
from lrmc.experiments import (ExperimentSpec, PhaseGrid, derive_seed,
                              extract_contour, gen_ground_truth,
                              run_convergence, run_phase, run_timing,
                              write_summary)
from lrmc.spectral import spectral_init
from lrmc.svgplot import plot_csv


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(d1=10, d2=8, r=2, p_grid=(0.3, 0.2))
    with pytest.raises(ValueError):
        ExperimentSpec(d1=10, d2=8, r=2, trials=0)
    with pytest.raises(ValueError):
        ExperimentSpec(d1=10, d2=8, r=2, algorithms=("VGD", "XGD"))
    for bad in (dict(d1=0), dict(d2=-3), dict(r=0), dict(p=0.0),
                dict(p=1.5), dict(p=float("nan")), dict(p_grid=(0.5, 1.2)),
                dict(p_grid=(0.0, 0.5)), dict(r_grid=(0, 2))):
        with pytest.raises(ValueError):
            ExperimentSpec(**{"d1": 10, "d2": 8, "r": 2, **bad})
    # phase ignores spec.r, so r is not checked against the dimensions
    ExperimentSpec(d1=1, d2=1, r=5, p=1.0, p_grid=(0.1, 1.0), r_grid=(1,))


def test_derive_seed_deterministic_and_spread():
    assert derive_seed(0, (1, 2), "VGD", 3) == derive_seed(0, (1, 2), "VGD", 3)
    seen = {derive_seed(ms, (c,), alg, t)
            for ms in range(3) for c in range(4)
            for alg in ("VGD", "RGD", "BGD") for t in range(5)}
    assert len(seen) == 3 * 4 * 3 * 5


def test_gen_ground_truth_well_conditioned():
    gt = gen_ground_truth(20, 15, 4, 1.0, seed=0)
    assert np.allclose(gt.sigma_star, 1.0)
    assert gt.kappa == pytest.approx(1.0)
    assert gt.mu >= 1.0
    assert np.linalg.matrix_rank(gt.m_star) == 4


def test_gen_ground_truth_spectrum_matches_svd_oracle():
    gt = gen_ground_truth(25, 18, 5, 3.0, seed=1)
    sv = np.linalg.svd(gt.m_star, compute_uv=False)[:5]
    assert np.allclose(np.sort(sv)[::-1], np.linspace(1.0, 1 / 3.0, 5),
                       atol=1e-10)
    assert gt.kappa == pytest.approx(3.0)


def test_gen_ground_truth_rank_one():
    gt = gen_ground_truth(10, 10, 1, 1.0, seed=2)
    assert gt.m_star.shape == (10, 10)
    assert np.linalg.matrix_rank(gt.m_star) == 1


def test_gen_ground_truth_square_frames(monkeypatch):
    # At d = r the +-1 draws are often singular: with 4 draws, (3, 3, 3)
    # raised for 105 of these seeds, (2, 5, 2) for 10 and (4, 4, 4) for
    # 120. The extra draws come after the first four, so a seed that 4
    # draws served keeps its target bit for bit.
    shapes = ((3, 3, 3), (2, 5, 2), (4, 4, 4))
    targets = {(shape, seed): gen_ground_truth(*shape, 2.0, seed).m_star
               for shape in shapes for seed in range(200)}
    for m_star in targets.values():
        assert np.all(np.isfinite(m_star))
    monkeypatch.setattr(experiments, "GROUND_TRUTH_ATTEMPTS", 4)
    served = 0
    for (shape, seed), m_star in targets.items():
        try:
            old = gen_ground_truth(*shape, 2.0, seed).m_star
        except RuntimeError:
            continue
        served += 1
        assert old.tobytes() == m_star.tobytes()
    assert 0 < served < len(targets)


def test_gen_ground_truth_validation():
    with pytest.raises(ValueError):
        gen_ground_truth(10, 10, 2, 0.5, seed=0)
    with pytest.raises(ValueError):
        gen_ground_truth(4, 3, 5, 1.0, seed=0)


SMALL = dict(d1=40, d2=30, r=3, kappa=1.0, p=0.5, step=0.5,
             lambdas=(1e-8,), trials=1, master_seed=0, max_iters=400,
             tol=1e-10)


def test_run_convergence_rows_and_csv(tmp_path):
    spec = ExperimentSpec(algorithms=("VGD", "RGD", "BGD"), **SMALL)
    path = tmp_path / "conv.csv"
    rows = run_convergence(spec, csv_path=path, compute_dist=False)
    algs = {r["algorithm"] for r in rows}
    assert algs == {"VGD", "RGD", "BGD"}
    # all algorithms start from the same spectral initialization
    starts = {r["rel_err"] for r in rows if r["k"] == 0}
    assert len(starts) == 1
    with open(path) as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == ["algorithm", "lambda", "k", "rel_err",
                                     "dist", "balancing", "seconds", "status"]
        file_rows = list(reader)
    assert len(file_rows) == len(rows)


def test_run_convergence_csv_with_numpy_lambdas_plots(tmp_path):
    # The spec keeps each lambda as the float its check returns, so the
    # lambda column holds numbers the lines plot reads.
    spec = ExperimentSpec(**{**SMALL, "algorithms": ("RGD",),
                             "lambdas": (np.float64(1e-6),)})
    path = tmp_path / "conv.csv"
    run_convergence(spec, csv_path=path, compute_dist=False)
    plot_csv(path, "lines", tmp_path / "conv.svg")
    assert "RGD (lam=1e-06)" in (tmp_path / "conv.svg").read_text()


def test_run_convergence_writes_each_runs_status_on_its_rows(tmp_path):
    # RGD's huge penalty throws its first step out to overflow.
    spec = ExperimentSpec(**{**SMALL, "algorithms": ("RGD", "VGD"),
                             "lambdas": (1e200,)})
    path = tmp_path / "conv.csv"
    rows = run_convergence(spec, csv_path=path, compute_dist=False)
    status = {alg: [r["status"] for r in rows if r["algorithm"] == alg]
              for alg in ("RGD", "VGD")}
    assert status["RGD"] == ["diverged"] * 2
    assert len(status["VGD"]) > 2
    assert set(status["VGD"]) == {"converged"}
    with open(path) as fh:
        assert [r["status"] for r in csv.DictReader(fh)] == [
            r["status"] for r in rows]


def test_run_convergence_deterministic_modulo_timing():
    spec = ExperimentSpec(algorithms=("VGD",), **SMALL)
    a = run_convergence(spec, compute_dist=False)
    b = run_convergence(spec, compute_dist=False)
    strip = lambda rows: [{k: v for k, v in r.items() if k != "seconds"}
                          for r in rows]
    assert strip(a) == strip(b)


def test_extract_contour_cases():
    grid = PhaseGrid(p_values=(0.1, 0.2, 0.3, 0.4), r_values=(2, 4, 6),
                     trials=10,
                     successes=np.array([[10, 10, 10, 10],
                                         [0, 2, 8, 10],
                                         [0, 0, 0, 0]]))
    rows = extract_contour(grid)
    assert rows[0] == (2, 0.1, True)
    r, cross, clipped = rows[1]
    # 0.2 -> 0.8 crossing between p=0.2 and p=0.3: 0.2 + 0.5*(0.1)
    assert (r, clipped) == (4, False)
    assert cross == pytest.approx(0.25)
    assert rows[2] == (6, None, False)


def test_run_phase_small_grid(tmp_path):
    spec = ExperimentSpec(d1=20, d2=16, r=2, kappa=1.0, step=0.5,
                          trials=2, master_seed=0, max_iters=600,
                          p_grid=(0.2, 1.0), r_grid=(2, 6),
                          algorithms=("VGD",))
    grid = run_phase(spec, csv_path=tmp_path / "phase.csv",
                     contour_csv_path=tmp_path / "contour.csv")
    assert grid.successes.shape == (2, 2)
    assert (grid.successes >= 0).all() and (grid.successes <= 2).all()
    # full observation, easy rank: always recovered
    assert grid.rates[0, 1] == 1.0
    with open(tmp_path / "phase.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    with open(tmp_path / "contour.csv") as fh:
        crows = list(csv.DictReader(fh))
    assert [r["r"] for r in crows] == ["2", "6"]


def test_run_phase_success_grid_pinned():
    # A 2 x 3 grid with counts that differ from cell to cell, so that the
    # trials are summed in (r, p, trial) order.
    spec = ExperimentSpec(d1=20, d2=16, r=2, kappa=1.0, step=0.5,
                          trials=3, master_seed=5, max_iters=400,
                          p_grid=(0.25, 0.4, 0.7), r_grid=(2, 4),
                          algorithms=("VGD",))
    assert run_phase(spec).successes.tolist() == [[0, 1, 2], [0, 0, 2]]


def test_run_phase_same_result_across_jobs(tmp_path):
    spec = ExperimentSpec(d1=20, d2=16, r=2, kappa=1.0, step=0.5,
                          trials=2, master_seed=3, max_iters=600,
                          p_grid=(0.2, 0.5, 1.0), r_grid=(2, 6),
                          algorithms=("VGD",))
    out = {}
    for jobs in (1, 2):
        paths = (tmp_path / f"phase{jobs}.csv",
                 tmp_path / f"contour{jobs}.csv")
        grid = run_phase(dataclasses.replace(spec, jobs=jobs),
                         csv_path=paths[0], contour_csv_path=paths[1])
        out[jobs] = (grid.successes, [p.read_bytes() for p in paths])
    assert (out[1][0] == out[2][0]).all()
    assert out[1][1] == out[2][1]


def test_run_phase_ignores_only_underdetermined_warnings(monkeypatch):
    # One underdetermined cell (|cells| < r(d1+d2)): run warns about that,
    # which a phase grid expects; any other warning must reach the caller.
    real_run = experiments.run

    def noisy_run(*args, **kwargs):
        warnings.warn("from the solver", RuntimeWarning)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(experiments, "run", noisy_run)
    spec = ExperimentSpec(d1=20, d2=16, r=2, kappa=1.0, step=0.5, trials=2,
                          max_iters=5, p_grid=(0.2,), r_grid=(6,),
                          algorithms=("VGD",))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_phase(spec)
    messages = [str(w.message) for w in caught]
    assert messages == ["from the solver"] * 2


def test_run_phase_requires_grids():
    spec = ExperimentSpec(d1=10, d2=8, r=2)
    with pytest.raises(ValueError):
        run_phase(spec)


def _fails_at_rank_4(gt, mask, r):
    if r == 4:
        raise np.linalg.LinAlgError("SVD did not converge")
    return spectral_init(gt, mask, r)


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_phase_goes_on_past_a_raising_trial(jobs, monkeypatch):
    if jobs > 1 and multiprocessing.get_start_method() != "fork":
        pytest.skip("the patch reaches worker processes only through fork")
    monkeypatch.setattr(experiments, "spectral_init", _fails_at_rank_4)
    spec = ExperimentSpec(d1=20, d2=16, r=2, kappa=1.0, step=0.5, trials=2,
                          master_seed=3, max_iters=600, p_grid=(0.5, 1.0),
                          r_grid=(2, 4), algorithms=("VGD",), jobs=jobs)
    with pytest.warns(UserWarning, match="^4 of 8 trials raised, counted as "
                      "failed; the first: LinAlgError: SVD did not converge"):
        grid = run_phase(spec)
    assert grid.errors == 4
    assert grid.successes[1].tolist() == [0, 0]
    assert grid.successes[0].tolist() == run_phase(
        dataclasses.replace(spec, r_grid=(2,))).successes[0].tolist()


def test_error_trial_has_no_success_and_no_time(monkeypatch):
    monkeypatch.setattr(experiments, "spectral_init", _fails_at_rank_4)
    spec = ExperimentSpec(d1=20, d2=16, r=4, p=0.5, step=0.5, trials=2,
                          max_iters=50, algorithms=("VGD", "BGD"))
    cfg = experiments._solver_config(spec, "VGD", None)
    t = experiments._trial(spec, cfg, "VGD", None, 4, 0.5, 7, 8, 1)
    assert (t.status, t.iterations, t.seconds_to_target, t.message) == (
        "error", 0, None, "LinAlgError: SVD did not converge")
    assert np.isnan(t.terminal_rel_err)
    with pytest.warns(UserWarning, match="^4 of 4 trials raised"):
        rows = run_timing(spec)
    assert [(r["n_ok"], r["n_fail"], r["mean_s"], r["n_error"])
            for r in rows] == [(0, 2, "", 2)] * 2


def test_bad_settings_still_raise():
    # Only a trial's numeric failures become error trials.
    phase = dict(d1=10, d2=8, r=2, trials=1, max_iters=5, p_grid=(0.5,),
                 r_grid=(2,), algorithms=("VGD",))
    for bad in (dict(kappa=0.5), dict(r_grid=(2, 9)), dict(step=0.0)):
        with pytest.raises(ValueError):
            run_phase(ExperimentSpec(**{**phase, **bad}))
    with pytest.raises(ValueError, match="exceeds min"):
        run_timing(ExperimentSpec(d1=10, d2=8, r=9, trials=1))


def _warns(*args):
    warnings.warn("overflow encountered in matmul", RuntimeWarning)


def _type_error(*args):
    raise TypeError("a bug in the solve")


@pytest.mark.parametrize("fake_run, error", [(_warns, RuntimeWarning),
                                             (_type_error, TypeError)])
def test_run_phase_raises_what_a_trial_does_not_count(fake_run, error,
                                                      monkeypatch):
    monkeypatch.setattr(experiments, "run", fake_run)
    spec = ExperimentSpec(d1=20, d2=16, r=2, trials=1, max_iters=5,
                          p_grid=(0.5,), r_grid=(2,), algorithms=("VGD",))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            run_phase(spec)


def test_run_timing_rows(tmp_path):
    spec = ExperimentSpec(d1=30, d2=24, r=2, p=0.6, step=0.5,
                          lambdas=(1e-10,), trials=2, master_seed=0,
                          max_iters=2000, algorithms=("VGD", "BGD"))
    rows = run_timing(spec, csv_path=tmp_path / "timing.csv")
    assert [r["algorithm"] for r in rows] == ["VGD", "BGD"]
    for r in rows:
        assert r["n_ok"] + r["n_fail"] == 2
        if r["n_ok"]:
            assert float(r["mean_s"]) > 0.0


def test_run_timing_writes_a_numpy_rate_as_a_number():
    spec = ExperimentSpec(**{**SMALL, "p": np.float64(0.5),
                             "algorithms": ("VGD",)})
    assert [float(r["p"]) for r in run_timing(spec)] == [0.5]


def test_run_timing_rotates_which_config_goes_first(monkeypatch):
    # Each trial starts one config later than the trial before, so drift in
    # the machine's speed hits every config alike. Each config still runs
    # every trial's instance once, and the rows keep the configs' order.
    calls = []

    def fake(spec, cfg, alg, lam, r, p, seed_gt, seed_mask, trial):
        calls.append((alg, lam, trial, seed_gt, seed_mask))
        return experiments.TrialResult(
            algorithm=alg, lam=lam, trial=trial, seed=seed_gt,
            status="converged", iterations=1, terminal_rel_err=0.0,
            seconds_to_target=float(trial + 1))

    monkeypatch.setattr(experiments, "_trial", fake)
    spec = ExperimentSpec(d1=30, d2=24, r=2, lambdas=(1e-6, 1e-10),
                          trials=5, master_seed=3)
    rows = run_timing(spec)
    keys = [("VGD", None), ("RGD", 1e-6), ("RGD", 1e-10), ("BGD", None)]
    assert [c[:2] for c in calls] == [keys[(t + i) % 4] for t in range(5)
                                      for i in range(4)]
    for alg, lam, t, seed_gt, seed_mask in calls:
        assert (seed_gt, seed_mask) == (derive_seed(3, (4, t), "VGD", 0),
                                        derive_seed(3, (5, t), "VGD", 0))
    assert [r["algorithm"] for r in rows] == [
        "VGD", "RGD(lam=1e-06)", "RGD(lam=1e-10)", "BGD"]
    assert {(r["n_ok"], r["n_fail"], r["n_error"], r["mean_s"])
            for r in rows} == {(5, 0, 0, "3.0")}


def test_run_timing_empty_cell():
    # iteration cap too small to ever reach the target
    spec = ExperimentSpec(d1=30, d2=24, r=3, p=0.5, step=0.5, trials=2,
                          master_seed=0, max_iters=2, algorithms=("VGD",))
    rows = run_timing(spec)
    assert rows[0]["n_ok"] == 0
    assert rows[0]["mean_s"] == "" and rows[0]["median_s"] == ""


def test_run_timing_passes_underdetermined_warning():
    spec = ExperimentSpec(d1=20, d2=16, r=6, p=0.2, step=0.5, trials=1,
                          max_iters=5, algorithms=("VGD",))
    with pytest.warns(UserWarning, match="underdetermined"):
        run_timing(spec)


def test_write_summary(tmp_path):
    spec = ExperimentSpec(d1=10, d2=8, r=2)
    path = tmp_path / "summary.json"
    write_summary(path, spec, {"rows": 3})
    payload = json.loads(path.read_text())
    assert payload["aggregates"] == {"rows": 3}
    assert payload["spec"]["d1"] == 10
    assert len(payload["input_hash"]) == 64
    # hash depends only on the experiment settings, not the aggregates
    write_summary(path, spec, {"rows": 4})
    assert json.loads(path.read_text())["input_hash"] == payload["input_hash"]
