"""The LAPACK and BLAS routines the solvers call: scipy's compiled
wrappers ``scipy.linalg._flapack`` and ``scipy.linalg._fblas``, loaded
from their files so that the ``scipy.linalg`` package, whose ``__init__``
brings in scipy's array-API layer, is never imported.  They are
registered under their real names, so these are the objects that
``scipy.linalg.lapack`` and ``scipy.linalg.blas`` hand out, whichever is
imported first.  Nor is the ``scipy`` package: its version is read
from its ``version.py``."""

import functools
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

__all__ = ["dgbsv", "dgbtrf", "dgbtrs", "dgbmv", "scipy_version"]


def _wrapper(name: str):
    full = f"scipy.linalg.{name}"
    if full not in sys.modules:
        scipy = find_spec("scipy")  # locates the package without importing it
        where = Path(scipy.submodule_search_locations[0] if scipy else "scipy", "linalg")
        spec = FileFinder(str(where), (ExtensionFileLoader, EXTENSION_SUFFIXES)).find_spec(full)
        if spec is None:
            raise ImportError(f"no compiled {full} in {where}", name=full, path=str(where))
        sys.modules[full] = module = module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[full]


@functools.cache  # a summary per command; the file read and exec take 0.24 ms
def scipy_version() -> str:
    """``scipy.__version__``, which scipy also reads from its ``version.py``."""
    spec = spec_from_file_location("scipy.version", Path(find_spec("scipy").origin).with_name("version.py"))
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version


dgbsv, dgbtrf, dgbtrs = (getattr(_wrapper("_flapack"), f) for f in ("dgbsv", "dgbtrf", "dgbtrs"))
dgbmv = _wrapper("_fblas").dgbmv
