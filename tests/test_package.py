"""Checks on the package as a whole: README's example and what `import lrmc`
loads.

test_import_loads_no_scipy is the start-up gate CI relies on: neither
`import lrmc` nor the CLI's --help text may load a scipy module.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import lrmc

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, str(README), "exec"), {})
    status, iterations, rel = capsys.readouterr().out.split()
    assert status == "converged" and int(iterations) > 0
    assert float(rel) < 1e-12


def _scipy_modules(statement, prefix="scipy"):
    """The modules named `prefix*`, scipy's by default, loaded by
    `statement` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(lrmc.__file__))
    code = (f"import sys; {statement}; "
            f"print(*(m for m in sys.modules if m.startswith({prefix!r})))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_import_loads_no_scipy():
    # scipy.sparse is imported with the first CSR matrix, so neither the
    # library nor the CLI, up to its --help text, loads scipy at start-up.
    cli_help = "import lrmc.cli; lrmc.cli._build_parser().format_help()"
    for statement in ("import lrmc", cli_help):
        assert not _scipy_modules(statement), statement


def test_import_loads_no_process_pool():
    # run_phase imports the pool only for a grid on more than one job.
    for statement in ("import lrmc", "import lrmc.cli"):
        assert not _scipy_modules(statement, "concurrent.futures.process")


# A VGD solve on a 400 x 400 problem, above DENSE_SIZE_LIMIT (CSR layout);
# it writes its RunResult's numbers to OUT as JSON.
CSR_SOLVE = """
import json
from lrmc import SolverConfig, SolverVariant, run, spectral_init
from lrmc.experiments import gen_ground_truth
from lrmc.sampling import sample_mask
gt = gen_ground_truth(400, 400, 2, 1.0, seed=3)
mask = sample_mask(400, 400, 0.05, seed=4)
res = run(gt, mask, SolverConfig(SolverVariant.vanilla(), step=0.5,
                                 max_iters=30), spectral_init(gt, mask, 2))
tr = res.trace
with open(OUT, "w") as fh:
    json.dump([res.status, res.iterations, tr.k, tr.relative_error,
               tr.balancing_norm, tr.objective, res.final.x.tolist(),
               res.final.y.tolist()], fh)
"""


def test_csr_solve_in_a_fresh_process_loads_scipy_sparse(tmp_path):
    assert 400 * 400 > lrmc.sampling.DENSE_SIZE_LIMIT
    fresh, here = tmp_path / "fresh.json", tmp_path / "here.json"
    code = CSR_SOLVE.replace("OUT", repr(str(fresh)))
    assert "scipy.sparse" in _scipy_modules(f"exec({code!r})")
    exec(CSR_SOLVE, {"OUT": str(here)})
    assert json.loads(fresh.read_text()) == json.loads(here.read_text())


def test_dense_solve_and_starts_in_a_fresh_process_load_no_scipy():
    # 600 x 200, wider than 512 but within DENSE_SIZE_LIMIT entries: the
    # solve and both starts hold their observed matrices dense.
    assert 600 * 200 <= lrmc.sampling.DENSE_SIZE_LIMIT
    code = """
from lrmc import (LooSelector, SolverConfig, SolverVariant, loo_init, run,
                  spectral_init)
from lrmc.experiments import gen_ground_truth
from lrmc.sampling import sample_mask
gt = gen_ground_truth(600, 200, 2, 1.0, seed=3)
mask = sample_mask(600, 200, 0.1, seed=4)
run(gt, mask, SolverConfig(SolverVariant.vanilla(), step=0.5, max_iters=5),
    spectral_init(gt, mask, 2))
loo_init(gt, mask, 2, LooSelector(700))
"""
    assert not _scipy_modules(f"exec({code!r})")
