"""Every name the traced benchmark wraps still exists, and what it reads of
a returned basis is still there.

``perfbench/tracing.py`` installs its wrappers by module and attribute name,
so a renamed or deleted target would break only the traced benchmark run.
This test loads that file by path and resolves each target the way it does.
"""

import importlib.util
import pathlib

import pytest

from finitary.basis import compute_basis
from finitary.representation import compile_model

from conftest import load_corpus_model

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


def test_max_bits_reads_a_basis():
    # the traced run notes the largest scalar of every basis it returns, so
    # a change to Basis can break that run while every name above resolves
    basis = compute_basis(compile_model(load_corpus_model("biased.hmm")))
    entries = [x for row in basis.matrix for x in row]
    assert entries
    assert tracing._max_bits(basis) >= max(
        max(x.numerator.bit_length(), x.denominator.bit_length())
        for x in entries) > 0
