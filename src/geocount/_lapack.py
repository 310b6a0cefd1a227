"""scipy's compiled LAPACK and BLAS wrappers, loaded without the scipy package.

geocount calls five compiled routines and nothing else of scipy: the banded
LU, its solve and the banded matrix-vector product (``dgbtrf``, ``dgbtrs``,
``dgbmv``) in the Newton kernel, and LAPACK's divide-and-conquer eigensolvers
(``dsyevd``, ``zheevd``, with their workspace queries) in the Jacobi
reports.  ``import scipy.linalg`` reaches them through the package's whole
Python layer, which was most of a command's start-up.  This module loads the
two f2py extension modules, ``scipy/linalg/_flapack`` and ``_fblas``, from
their files, so neither ``scipy/__init__`` nor ``scipy/linalg/__init__``
runs.  Each is registered in ``sys.modules`` under scipy's own name, so a
later ``import scipy.linalg`` reuses the same module objects, and one loaded
before is reused here.  There is one route: without the files, importing
this module raises ImportError naming the installed scipy version.
"""

from __future__ import annotations

import importlib.machinery
import importlib.metadata
import importlib.util
import sys
from pathlib import Path


def _extension_dir() -> Path:
    """scipy.linalg's directory, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("geocount needs scipy, which is not installed")
    return Path(spec.submodule_search_locations[0], "linalg")


def _load(name: str):
    """The extension module ``scipy.linalg.<name>``, loaded from its file."""
    full = f"scipy.linalg.{name}"
    if full in sys.modules:
        return sys.modules[full]
    directory = _extension_dir()
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = directory / (name + suffix)
        if path.is_file():
            break
    else:
        raise ImportError(
            f"scipy {importlib.metadata.version('scipy')} has no extension module "
            f"{name} in {directory}; geocount loads its LAPACK and BLAS from there")
    loader = importlib.machinery.ExtensionFileLoader(full, str(path))
    module = importlib.util.module_from_spec(importlib.util.spec_from_loader(full, loader))
    loader.exec_module(module)
    sys.modules[full] = module
    return module


_flapack = _load("_flapack")
_fblas = _load("_fblas")

dgbtrf, dgbtrs = _flapack.dgbtrf, _flapack.dgbtrs
dsyevd, dsyevd_lwork = _flapack.dsyevd, _flapack.dsyevd_lwork
zheevd, zheevd_lwork = _flapack.zheevd, _flapack.zheevd_lwork
dgbmv = _fblas.dgbmv
