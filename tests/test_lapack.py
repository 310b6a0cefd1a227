"""scipy's LAPACK and BLAS extension modules, loaded without the scipy package."""

import os
import subprocess
import sys

import numpy as np
import pytest
import scipy
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from geocount import _lapack, jacobi


def _band(rng, n, kl):
    """A random n x n band matrix with kl sub- and superdiagonals, in the
    LAPACK storage dgbtrf takes: kl spare rows for the fill-in on top."""
    ab = np.zeros((3 * kl + 1, n), order="F")
    ab[kl:] = rng.normal(size=(2 * kl + 1, n))
    ab[2 * kl] += 4.0 * kl   # a dominant diagonal, so the LU has no zero pivot
    return ab


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), extra=st.integers(0, 60), kl=st.integers(1, 8),
       nrhs=st.integers(1, 3))
def test_banded_routines_have_the_bits_of_scipy_linalg(seed, extra, kl, nrhs):
    # dgbmv's wrapper wants at least 2 kl + 1 rows, as every Newton band has
    n = 2 * kl + 1 + extra
    rng = np.random.default_rng(seed)
    ab = _band(rng, n, kl)
    rhs = rng.normal(size=(n, nrhs))
    x = rng.normal(size=n)
    lu, piv, info = _lapack.dgbtrf(ab, kl, kl)
    want_lu, want_piv, want_info = scipy.linalg.lapack.dgbtrf(ab, kl, kl)
    assert info == want_info == 0
    assert lu.tobytes() == want_lu.tobytes()
    assert np.array_equal(piv, want_piv)
    got = _lapack.dgbtrs(lu, kl, kl, rhs, piv)
    want = scipy.linalg.lapack.dgbtrs(want_lu, kl, kl, rhs, want_piv)
    assert got[1] == want[1] == 0
    assert got[0].tobytes() == want[0].tobytes()
    got = _lapack.dgbmv(n, n, kl, kl, 1.0, ab[kl:], x)
    assert got.tobytes() == scipy.linalg.blas.dgbmv(n, n, kl, kl, 1.0, ab[kl:], x).tobytes()


@settings(max_examples=30)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 120), hermitian=st.booleans())
def test_in_place_eigensolve_has_the_bits_of_scipy_eigh(seed, n, hermitian):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n))
    if hermitian:
        a = a + 1j * rng.normal(size=(n, n))
    h = a + a.conj().T
    # eigh is handed the transpose of a copy: the buffer _eigvalsh solves in
    want = scipy.linalg.eigh(h.copy().T, eigvals_only=True, driver="evd")
    got = jacobi._eigvalsh(h)
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_eigensolve_of_a_form_with_nan_raises_linalg_error(dtype):
    h = np.eye(8, dtype=dtype)
    h[3, 5] = h[5, 3] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        jacobi._eigvalsh(h)


def test_missing_extension_files_name_the_scipy_version(monkeypatch, tmp_path):
    monkeypatch.setattr(_lapack, "_extension_dir", lambda: tmp_path)
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with pytest.raises(ImportError, match=f"scipy {scipy.__version__} has no extension "
                                          "module _flapack"):
        _lapack._load("_flapack")


def test_start_up_loads_only_the_two_extension_modules_and_scipy_reuses_them():
    code = ("import sys, geocount.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
            "import scipy.linalg; from geocount import _lapack; "
            "print(scipy.linalg.lapack.dgbtrf is _lapack.dgbtrf, "
            "scipy.linalg.blas.dgbmv is _lapack.dgbmv, "
            "scipy.linalg.lapack._flapack is sys.modules['scipy.linalg._flapack'])")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out == ["['scipy.linalg._fblas', 'scipy.linalg._flapack']", "True True True"]
