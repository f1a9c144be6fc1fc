"""Every layer the benchmark's tracer wraps resolves on commcalc.

perfbench/tracing.py names each layer function by (module, attribute); a
renamed or removed one fails here, not only in the traced benchmark run.
The tracer is loaded from its file, so perfbench needs no package.
"""

import functools
import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                       "perfbench", "tracing.py")


def layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


@pytest.mark.parametrize("module, attribute, metric", layers())
def test_layer_resolves(module, attribute, metric):
    mod = importlib.import_module("commcalc." + module)
    target = functools.reduce(getattr, attribute.split("."), mod)
    assert callable(target), metric
