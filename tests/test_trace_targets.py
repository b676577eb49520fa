"""Every name the traced benchmark wraps still exists, and what it reads of
a returned basis is still there.

``perfbench/tracing.py`` installs its wrappers by module and attribute name,
so a renamed or deleted target would break only the traced benchmark run.
This test loads that file by path and resolves each target the way it does.
"""

import importlib.util
import pathlib
import random

import pytest

from finitary.basis import compute_basis, row_generator
from finitary.representation import compile_model

import generators as g
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


def _inserts(model, scan: str):
    """The traced ``try_insert`` calls made inside ``scan``
    (``row_generator`` or ``column_basis``), the candidates that scan
    built and the basis, on a fresh representation of ``model``.  The row
    scan builds only backward vectors, the mirror's forward vectors, and
    the column scan only forward ones, so each cache holds exactly its
    scan's candidates."""
    lr = compile_model(model)
    recorder = tracing.Recorder()
    with recorder.installed():
        basis = compute_basis(lr)
    spans = {i for i, span in enumerate(recorder.spans)
             if span[0] == f"basis.{scan}"}
    inserts = sum(span[0] == "linalg.try_insert" and span[3] in spans
                  for span in recorder.spans)
    cache = lr.mirror._forwards if scan == "row_generator" else lr._forwards
    return inserts, len(cache), basis


def _block(model) -> tuple[int, int, int]:
    """Representation dimension, rows scanned and basis dimension."""
    lr = compile_model(model)
    return lr.dimension, len(row_generator(lr)), compute_basis(lr).dim


def test_the_column_scan_judges_each_candidate_once():
    # the traced per-layer counts (basis.col_candidates,
    # linalg.try_insert_calls) read one insert per column candidate, also
    # on a block that keeps fewer rows than the row scan found
    rng = random.Random(22)
    walks = [g.random_qrw(rng, rng.randint(3, 5), 2) for _ in range(12)]
    floats = [g.random_dense_float_hmm(rng, rng.randint(12, 20), 2)
              for _ in range(3)]
    walks, floats = ([m for m in models if (b := _block(m))[2] < b[1]]
                     for models in (walks, floats))
    full = g.random_hmm(rng, 6, 2)
    assert len(walks) >= 3 and len(floats) == 3
    assert _block(full) == (6, 6, 6)  # the forward-coordinate scan fills
    for model in walks + floats + [full]:
        inserts, candidates, _ = _inserts(model, "column_basis")
        assert inserts == candidates


def test_the_row_scan_builds_only_the_candidates_it_judges():
    # the row scan builds a candidate's vector only when it pops it; a
    # certified scan stops with candidates still queued, which nothing
    # builds: 12 judged of the 21 an exhaustive scan of its 10 rows judges
    rng = random.Random(3)
    split = g.split_hmm_state(rng, g.random_hmm(rng, 10, 2))
    inserts, candidates, basis = _inserts(split, "row_generator")
    assert inserts == candidates == 12 and len(basis.row_words) == 10
    rng = random.Random(23)
    models = ([g.random_qrw(rng, k, 2) for k in (2, 3, 4)]
              + [g.random_pfa(rng, n, 2) for n in (3, 5)])
    for model in models:
        inserts, candidates, _ = _inserts(model, "row_generator")
        assert inserts == candidates
