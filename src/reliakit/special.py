"""scipy's compiled ``ndtr``, ``ndtri`` and ``betaincinv``, loaded without
running ``scipy/special/__init__.py``.

That ``__init__`` builds scipy's array-API layer, which clones numpy and so
loads ``numpy.f2py`` and ``numpy.testing``: about half of the package's
import time, none of it needed for three ufuncs. When ``scipy.special`` is
not imported yet, its package module is made from its own spec and left
unexecuted. The first request for any name the spec did not set (all but
``__name__``, ``__file__``, ``__path__`` and the like; ``__doc__`` reads
None until then) runs the real ``__init__`` into that same module object,
so a later ``import scipy.special`` gets the complete package, whose ufuncs
are the objects used here. If that ``__init__`` raises, the partial package
is dropped, as the import system drops a failed import, and the error
propagates. Unlike an import, the completion takes no lock: a thread that
reads the package while another completes it can see it half-built. The
package itself makes no such request from a thread.
"""

from __future__ import annotations

import importlib.util
import sys

import scipy


def _defer_scipy_special() -> None:
    spec = importlib.util.find_spec("scipy.special")
    package = importlib.util.module_from_spec(spec)

    def complete() -> None:
        del package.__getattr__, package.__dir__
        try:
            spec.loader.exec_module(package)
        except BaseException:
            if sys.modules.get("scipy.special") is package:
                del sys.modules["scipy.special"]
            if vars(scipy).get("special") is package:
                del scipy.special
            raise

    def __getattr__(name: str):
        complete()
        return getattr(package, name)

    def __dir__() -> list[str]:
        complete()
        return dir(package)

    package.__getattr__ = __getattr__
    package.__dir__ = __dir__
    sys.modules["scipy.special"] = package
    scipy.special = package


if "scipy.special" not in sys.modules:
    _defer_scipy_special()

from scipy.special._ufuncs import betaincinv, ndtr, ndtri
