"""Every numeric setting is checked where it enters.

A real setting must be a finite number, not a bool, in its range; an
integer one an integer, not a bool and not a float, at or above its
minimum. The properties draw nan, +-inf, 0, negative values, bools and
floats given for ints, for every numeric field of the library's settings
objects and functions, and for every numeric flag of the CLI: construction
raises ValueError or TypeError, and the CLI exits 2 naming the flag. The
Hypothesis profile in conftest.py makes the examples the same on every run.
"""

import dataclasses
import io
import math
from contextlib import redirect_stderr

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrmc.cli import main, parse_args
from lrmc.diagnostics import concentration_check
from lrmc.experiments import _CHECKS, ExperimentSpec, gen_ground_truth
from lrmc.sampling import LooSelector, ObservationMask, sample_mask
from lrmc.solvers import SolverConfig, SolverVariant, run
from lrmc.spectral import spectral_init, truncated_svd

NOT_FINITE = [math.nan, math.inf, -math.inf]
BOOLS = [True, False, np.True_]


def bad_reals(low=0.0, high=math.inf, low_closed=False):
    """Values a real setting with that range rejects."""
    below = (st.floats(max_value=low, exclude_max=low_closed)
             if math.isfinite(low) else st.nothing())
    above = (st.floats(min_value=high, exclude_min=True)
             if math.isfinite(high) else st.nothing())
    return st.one_of(st.sampled_from(NOT_FINITE + BOOLS + [None, "0.5"]),
                     below, above, st.integers(max_value=int(low) - 1
                                               if low_closed else int(low)))


def bad_ints(low=1):
    """Values an integer setting with that minimum rejects."""
    return st.one_of(st.sampled_from(NOT_FINITE + BOOLS + [None, "3"]),
                     st.integers(max_value=low - 1),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([np.float64(2.0), 1.0, 2.5]))


def _rejects(make):
    with pytest.raises((ValueError, TypeError)):
        make()


V = SolverVariant.vanilla()
SOLVER_FIELDS = {"step": bad_reals(), "tol": bad_reals(),
                 "max_iters": bad_ints(), "record_every": bad_ints()}


@settings(max_examples=80)
@given(data=st.data(), field=st.sampled_from(sorted(SOLVER_FIELDS)))
def test_solver_config_rejects(data, field):
    value = data.draw(SOLVER_FIELDS[field])
    _rejects(lambda: SolverConfig(**{"variant": V, "step": 0.5,
                                     field: value}))


@settings(max_examples=40)
@given(lam=bad_reals())
def test_regularized_rejects(lam):
    _rejects(lambda: SolverVariant.regularized(lam))
    _rejects(lambda: SolverVariant(tag="regularized", lam=lam))


@settings(max_examples=40)
@given(step=st.floats(1e-300, 1e300), tol=st.floats(1e-300, 1e300),
       iters=st.integers(1, 10 ** 30), every=st.integers(1, 10 ** 6),
       lam=st.floats(1e-300, 1e300))
def test_valid_solver_settings_are_kept(step, tol, iters, every, lam):
    cfg = SolverConfig(SolverVariant.regularized(lam), step=step, tol=tol,
                       max_iters=iters, record_every=every)
    assert (cfg.step, cfg.tol, cfg.max_iters, cfg.record_every) == (
        step, tol, iters, every)
    assert cfg.variant.lam == lam and type(cfg.variant.lam) is float


def test_direct_variants_are_checked():
    # The regularized tag without lam used to solve the vanilla objective,
    # lam on another tag was ignored, and leave_one_out without sel failed
    # late, with an AttributeError when the problem was bound.
    for bad in (dict(tag="regularized"), dict(tag="vanilla", lam=0.5),
                dict(tag="balancing", lam=0.5), dict(tag="leave_one_out"),
                dict(tag="leave_one_out", sel=3),
                dict(tag="vanilla", sel=LooSelector(1)),
                dict(tag="ridge", lam=0.5)):
        _rejects(lambda: SolverVariant(**bad))
    assert (SolverVariant(tag="regularized", lam=0.5)
            == SolverVariant.regularized(0.5))
    assert (SolverVariant(tag="leave_one_out", sel=LooSelector(3))
            == SolverVariant.leave_one_out(3))


def test_leave_one_out_wraps_a_numpy_selector():
    # A numpy integer used to reach the constructor unwrapped and was
    # rejected as "sel, a LooSelector, is for the leave_one_out variant".
    for l in (np.int64(7), np.uint8(7)):
        variant = SolverVariant.leave_one_out(l)
        assert variant == SolverVariant.leave_one_out(LooSelector(7))
        assert type(variant.sel.l) is int
    for bad in (True, 7.0, np.float64(7.0), None):
        _rejects(lambda: SolverVariant.leave_one_out(bad))


SPEC = dict(d1=10, d2=8, r=2)
SPEC_FIELDS = {
    "d1": bad_ints(), "d2": bad_ints(), "r": bad_ints(),
    "kappa": bad_reals(low=1.0, low_closed=True),
    "p": bad_reals(high=1.0), "step": bad_reals(),
    "lambdas": bad_reals().map(lambda v: (1e-6, v)),
    "trials": bad_ints(), "master_seed": bad_ints(low=0),
    "max_iters": bad_ints(), "tol": bad_reals(),
    "p_grid": st.one_of(bad_reals(high=1.0).map(lambda v: (0.2, v)),
                        st.sampled_from([(0.3, 0.2), (0.5, 0.5)])),
    "r_grid": st.one_of(bad_ints().map(lambda v: (v, 2)),
                        st.sampled_from([(3, 2), (2, 2)])),
    "jobs": bad_ints(),
    "algorithms": st.sampled_from([(), ("XGD",), ("VGD", "vgd"), "VGD"]),
}


def test_every_spec_field_has_a_check():
    names = {f.name for f in dataclasses.fields(ExperimentSpec)}
    assert set(_CHECKS) == names == set(SPEC_FIELDS)


@settings(max_examples=150)
@given(data=st.data(), field=st.sampled_from(sorted(SPEC_FIELDS)))
def test_experiment_spec_rejects(data, field):
    value = data.draw(SPEC_FIELDS[field])
    _rejects(lambda: ExperimentSpec(**{**SPEC, field: value}))


def test_experiment_spec_cross_field_rules():
    _rejects(lambda: ExperimentSpec(**SPEC, algorithms=("RGD",), lambdas=()))
    ExperimentSpec(**SPEC, algorithms=("VGD",), lambdas=())
    spec = ExperimentSpec(**SPEC)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.kappa = math.nan
    _rejects(lambda: dataclasses.replace(spec, kappa=math.nan))


@settings(max_examples=60)
@given(data=st.data(), field=st.sampled_from(["d1", "d2", "r", "kappa"]))
def test_gen_ground_truth_rejects(data, field):
    args = dict(d1=6, d2=5, r=2, kappa=2.0)
    args[field] = data.draw(bad_reals(low=1.0, low_closed=True)
                            if field == "kappa" else bad_ints())
    _rejects(lambda: gen_ground_truth(**args, seed=0))


@settings(max_examples=60)
@given(data=st.data(), field=st.sampled_from(["d1", "d2", "p"]))
def test_masks_reject(data, field):
    args = dict(d1=6, d2=5, p=0.5)
    args[field] = data.draw(bad_reals(high=1.0) if field == "p"
                            else bad_ints())
    _rejects(lambda: sample_mask(**args, seed=0))
    _rejects(lambda: ObservationMask.from_cells(**args, rows=[0], cols=[0]))


@settings(max_examples=60)
@given(seed=st.one_of(bad_ints(low=0), st.integers(min_value=2 ** 64)))
def test_mask_seeds_reject(seed):
    # A mask's seed is None or a Philox key, an integer in [0, 2**64);
    # sample_mask needs a key.
    _rejects(lambda: sample_mask(6, 5, 0.5, seed))
    if seed is not None:
        _rejects(lambda: ObservationMask.from_cells(6, 5, 0.5, [0], [0],
                                                    seed=seed))


@pytest.mark.parametrize("r", [0, -1, 1.0, True, math.nan])
def test_rank_trials_and_selector_checked(r):
    gt = gen_ground_truth(6, 5, 2, 1.0, seed=0)
    mask = sample_mask(6, 5, 0.5, seed=1)
    _rejects(lambda: spectral_init(gt, mask, r))
    _rejects(lambda: truncated_svd(np.ones((6, 5)), r))
    _rejects(lambda: concentration_check(mask, trials=r, seed=0))
    _rejects(lambda: LooSelector(r))
    _rejects(lambda: SolverVariant.leave_one_out(r))


def test_checked_values_give_the_same_run():
    # Numpy scalars and ints pass the checks and solve as before.
    gt = gen_ground_truth(np.int64(12), 10, np.int64(2), np.float64(2.0), 0)
    mask = sample_mask(np.int64(12), np.int64(10), np.float64(0.6), seed=1)
    init = spectral_init(gt, mask, np.int64(2))
    runs = [run(gt, mask, SolverConfig(SolverVariant.regularized(lam),
                                       step=step, max_iters=iters), init)
            for lam, step, iters in ((1e-3, 0.5, 50),
                                     (np.float64(1e-3), np.float64(0.5),
                                      np.int64(50)))]
    assert runs[0].final.x.tobytes() == runs[1].final.x.tobytes()
    assert runs[0].trace.relative_error == runs[1].trace.relative_error


# Texts each numeric flag rejects; a flag's name is also its config-file
# key. The range 1..d1+d2 of --selectors is checked once d1 and d2 are
# merged (test_cli), while r <= min(d1, d2) is checked when the command
# runs.
FLOAT_BAD = ["nan", "inf", "-inf", "0", "-1", "True", "1e400", "0x1"]
INT_BAD = ["nan", "inf", "0", "-1", "True", "2.5", "1e3", "3.0"]
FLAGS = {
    "d1": INT_BAD, "d2": INT_BAD, "r": INT_BAD, "trials": INT_BAD,
    "max-iters": INT_BAD, "jobs": INT_BAD,
    "seed": ["nan", "inf", "-1", "True", "2.5"],
    "p": FLOAT_BAD + ["1.5"], "kappa": FLOAT_BAD + ["0.5"],
    "s": FLOAT_BAD, "tol": FLOAT_BAD,
    "lambda": [f"1e-6,{t}" for t in FLOAT_BAD] + ["", "1e-6,"],
    "p-grid": [f"0.2,{t}" for t in FLOAT_BAD + ["1.5"]] + ["0.3,0.2"],
    "r-grid": [f"{t},8" for t in INT_BAD] + ["4,2", "2,2"],
    "selectors": ["nan", "inf", "True", "2.5", "1,", "1,x"],
}
COMMAND = {"p-grid": "phase", "r-grid": "phase", "selectors": "theory"}


def _usage_error(argv):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        parse_args(argv)
    assert exc.value.code == 2
    return err.getvalue()


@settings(max_examples=120)
@given(data=st.data(), flag=st.sampled_from(sorted(FLAGS)))
def test_cli_rejects_every_numeric_flag(data, flag, tmp_path_factory):
    text = data.draw(st.sampled_from(FLAGS[flag]))
    command = COMMAND.get(flag, "timing")
    assert f"argument --{flag}: " in _usage_error([command, f"--{flag}",
                                                  text])
    cfg = tmp_path_factory.getbasetemp() / "bad.cfg"
    cfg.write_text(f"{flag}={text}\n")
    assert f"bad.cfg:1: {flag}: " in _usage_error([command, "--config",
                                                  str(cfg)])


@pytest.mark.parametrize("flag, text", [("kappa", "0.5"), ("algs", "XGD"),
                                        ("algs", "VGD,"),
                                        ("p-grid", "0.4,0.3")])
def test_cli_rejects_what_the_spec_does(flag, text, tmp_path):
    command = "phase" if flag == "p-grid" else "timing"
    err = _usage_error([command, f"--{flag}", text])
    assert f"argument --{flag}: must be" in err
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{flag}={text}\n")
    err = _usage_error([command, "--config", str(cfg)])
    assert f"bad.cfg:1: {flag}: must be" in err


def test_rank_above_the_dimensions_is_an_experiment_failure(tmp_path,
                                                            capsys):
    # r <= min(d1, d2) is checked where the target is drawn, so it fails
    # the command (exit 1), not the parse.
    argv = ["timing", "--d1", "10", "--d2", "8", "--r", "9", "--trials", "1",
            "--out", str(tmp_path)]
    assert main(argv) == 1
    assert "exceeds min" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "abc", "2.5"])
def test_seed_from_the_environment_is_checked(seed, monkeypatch):
    monkeypatch.setenv("LRMC_SEED", seed)
    assert "LRMC_SEED: " in _usage_error(["converge"])
