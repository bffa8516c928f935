import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from xorsatlab.errors import BudgetExceededError
from xorsatlab.gf2 import BitMatrix, rank

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


def run_capped_child(code: str, timeout: float = 30) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter on this checkout's package, with a
    1 GB address-space cap and a timeout: code that would loop or grow
    without end fails the test (TimeoutExpired or MemoryError) instead of
    hanging it."""
    import resource

    import xorsatlab

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(xorsatlab.__file__)), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          preexec_fn=cap_address_space, timeout=timeout)


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


# GF(2) oracles that only the tests use

BRUTE_FORCE_MAX_ROWS = 24


def row_ints(mat: BitMatrix) -> list[int]:
    """Every row of `mat` as an int, bit j = column j."""
    return [mat.row_int(i) for i in range(mat.rows)]


def nullity_transpose(mat: BitMatrix) -> int:
    """Dimension of the left kernel {y : y^T A = 0}: rows - rank."""
    return mat.rows - rank(mat)


def count_critical_sets(mat: BitMatrix) -> int:
    """Exact number of nonempty row subsets with all-even column sums.

    Equals 2**nullity_transpose(mat) - 1, returned as an exact int (the
    nullity can be as large as the row count, so this is a big integer).
    """
    return (1 << nullity_transpose(mat)) - 1


def brute_force_critical_sets(mat: BitMatrix) -> int:
    """Oracle: enumerate all nonempty row subsets (Gray-code order).

    Guarded at 24 rows; beyond that the 2**rows walk is refused.
    """
    if mat.rows > BRUTE_FORCE_MAX_ROWS:
        raise BudgetExceededError(f"{mat.rows} rows exceeds brute-force guard of {BRUTE_FORCE_MAX_ROWS}")
    rows = row_ints(mat)
    acc = 0
    count = 0
    for s in range(1, 1 << mat.rows):
        acc ^= rows[(s & -s).bit_length() - 1]
        if acc == 0:
            count += 1
    return count
