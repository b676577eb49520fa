"""Every name the traced benchmark wraps still exists.

``perfbench/tracing.py`` installs its wrappers by module and attribute name,
so a renamed or deleted target would break only the traced benchmark run.
This test loads that file by path and resolves each target the way it does.
"""

import importlib.util
import pathlib

import pytest

TRACING = (pathlib.Path(__file__).resolve().parent.parent
           / "perfbench" / "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TARGETS = sorted(set(tracing.SPANS.values())
                 | {place for places in tracing.COUNTS.values()
                    for place in places})


@pytest.mark.parametrize("module, attr", TARGETS,
                         ids=[f"{m}:{a}" for m, a in TARGETS])
def test_trace_target_resolves(module, attr):
    owner, name = tracing._resolve(module, attr)
    assert callable(getattr(owner, name))
