import pathlib
from dataclasses import replace
from fractions import Fraction

import pytest

from finitary.basis import compute_basis
from finitary.model_io import parse_model
from finitary.representation import LinearRepresentation, _step, compile_model
from finitary.scalars import EXACT, scalar_law

import criteria

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def corpus_names() -> list[str]:
    return sorted(p.name for p in CORPUS_DIR.iterdir())


def load_corpus_model(name: str):
    return parse_model((CORPUS_DIR / name).read_text())


def corpus_lr(name: str) -> LinearRepresentation:
    return compile_model(load_corpus_model(name))


def step_matrices(lr) -> tuple:
    """T[a] = scale * M per symbol, in the model's scalars."""
    return tuple(tuple(tuple(scale * x for x in row) for row in m)
                 for scale, m in lr.integer_steps)


def from_matrices(alphabet, matrices, init, fin,
                  mode: str) -> LinearRepresentation:
    """The representation with step matrices ``matrices``, one n x n
    matrix per symbol in alphabet order, with entries of ``mode``: each
    row is read as a law and passed to ``_step`` as the compilers pass
    theirs."""
    return LinearRepresentation(alphabet, tuple(
        _step([(1, *scalar_law(row, mode)) for row in m], mode)
        for m in matrices), init, fin, mode)


def row_candidates(lr) -> int:
    """Row candidates the row scan of ``compute_basis`` judges, the root
    included.  The scan builds a candidate's vector exactly when it pops
    it, so this is the size of the mirror's vector cache after
    ``compute_basis`` on a copy of ``lr`` that starts with empty caches."""
    fresh = replace(lr)
    compute_basis(fresh)
    return len(fresh.mirror._forwards)


def exact_copy(lr):
    """A float representation read exactly: every float is a dyadic
    rational, and each entry becomes ``Fraction(x)``."""
    return from_matrices(
        lr.alphabet, [[[Fraction(x) for x in row] for row in m]
                      for m in step_matrices(lr)],
        tuple(map(Fraction, lr.init)), tuple(map(Fraction, lr.fin)), EXACT)


@pytest.fixture(scope="session")
def corpus_dir() -> pathlib.Path:
    return CORPUS_DIR


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = criteria.lines()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
