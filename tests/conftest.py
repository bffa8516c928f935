import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


@pytest.fixture(scope="session")
def ext_kernel(tmp_path_factory):
    """The compiled `_ext` kernel, built out of tree from this checkout.

    The tests need no install step, so `setup.py build_ext` compiles into a
    temporary directory and the module is loaded from there.  The extension
    is optional in setup.py: without a C compiler or the Python headers the
    build succeeds with no module, and the tests that need it skip.
    """
    build = tmp_path_factory.mktemp("ext_build")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext",
         "--build-lib", str(build / "lib"), "--build-temp", str(build / "temp")],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    built = sorted((build / "lib" / "xorsatlab" / "_kernel").glob("_ext.*"))
    if not built:
        pytest.skip(f"compiled kernel not built (no C compiler or Python headers?): {proc.stderr.strip()}")
    spec = importlib.util.spec_from_file_location("xorsatlab._kernel._ext", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def chi2_pvalue(observed, expected):
    """Chi-square goodness-of-fit p-value, merging cells with expectation < 5."""
    from scipy.stats import chi2

    obs, exp = [], []
    spill_o = spill_e = 0.0
    for o, e in zip(observed, expected):
        if e < 5.0:
            spill_o += o
            spill_e += e
        else:
            obs.append(o)
            exp.append(e)
    if spill_e > 0:
        obs.append(spill_o)
        exp.append(spill_e)
    obs = np.asarray(obs, dtype=float)
    exp = np.asarray(exp, dtype=float)
    stat = ((obs - exp) ** 2 / exp).sum()
    return chi2.sf(stat, df=len(obs) - 1)
