"""Checks on the package as a whole: README's example and what `import lrmc`
loads."""

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


def _scipy_modules(statement):
    """The scipy modules loaded by `statement` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(lrmc.__file__))
    code = (f"import sys; {statement}; "
            "print(*(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


def test_import_loads_no_scipy_beyond_sparse():
    # scipy.sparse holds the CSR residual layout; every other scipy module,
    # scipy.linalg with its own BLAS build among them, stays unloaded.
    extra = _scipy_modules("import lrmc") - _scipy_modules("import scipy.sparse")
    assert not extra, sorted(extra)
