"""The LAPACK routines the library calls, bound without importing scipy.linalg.

Importing scipy.linalg would double the command line's start-up (0.33 s to
0.70 s for ``import igawave.cli`` in a fresh interpreter, median of 15 on 2
cores), and the library needs only three routines from it.  They come
from scipy's compiled f2py module, scipy/linalg/_flapack*.so, loaded by
file location and registered under its own name, so a later
``import scipy.linalg`` reuses this module and its function objects.  The
module is private to scipy: where the file is missing or does not load, the
routines come from scipy.linalg.lapack, which exports the same objects.
"""

import importlib.machinery
import importlib.util
import sys
from pathlib import Path

import scipy

__all__ = ["NumericalFailure", "dpbtrf", "dpbtrs", "dsygvd"]

NAME = "scipy.linalg._flapack"


class NumericalFailure(RuntimeError):
    """A factorization, solver or eigensolver failed numerically."""


def _flapack_path():
    folder = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            return path
    raise ImportError(f"no compiled _flapack module in {folder}")


def _load():
    """scipy's compiled LAPACK module: the loaded one, else the file, else scipy.linalg.lapack."""
    if NAME in sys.modules:
        return sys.modules[NAME]
    try:
        spec = importlib.util.spec_from_file_location(NAME, _flapack_path())
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except (ImportError, OSError):
        from scipy.linalg import lapack

        return lapack
    sys.modules[NAME] = module
    return module


_flapack = _load()
dpbtrf, dpbtrs, dsygvd = _flapack.dpbtrf, _flapack.dpbtrs, _flapack.dsygvd
