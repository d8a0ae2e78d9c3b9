"""Names that tools outside the package look up by string.

The benchmark tracer (``perfbench/tracing.py``) wraps sdnop functions by
(module, attribute) name, so a rename would quietly drop a layer from its
split; the ``__all__`` of the package and of each module is what
``from ... import *`` reads.
"""

import importlib
import importlib.util
import os
import pkgutil

import sdnop

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "perfbench", "tracing.py")


def _wrapped():
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_traced_names_resolve():
    wrapped = _wrapped()
    missing = [f"{mod}.{attr}" for mod, attr, _, _ in wrapped
               if not hasattr(importlib.import_module(mod), attr)]
    assert len(wrapped) > 0
    assert not missing, missing


def test_public_names_resolve():
    missing = [name for name in sdnop.__all__ if not hasattr(sdnop, name)]
    assert not missing, missing


def test_module_public_names_resolve():
    missing = []
    for info in pkgutil.iter_modules(sdnop.__path__):
        module = importlib.import_module(f"sdnop.{info.name}")
        missing += [f"sdnop.{info.name}.{name}"
                    for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert not missing, missing
