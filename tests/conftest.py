import pathlib
from fractions import Fraction

import pytest

from finitary.model_io import parse_model
from finitary.representation import LinearRepresentation
from finitary.scalars import EXACT

import criteria

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def corpus_names() -> list[str]:
    return sorted(p.name for p in CORPUS_DIR.iterdir())


def load_corpus_model(name: str):
    return parse_model((CORPUS_DIR / name).read_text())


def step_matrices(lr) -> tuple:
    """T[a] = scale * M per symbol, in the model's scalars."""
    return tuple(tuple(tuple(scale * x for x in row) for row in m)
                 for scale, m in lr.integer_steps)


def exact_copy(lr):
    """A float representation read exactly: every float is a dyadic
    rational, and each entry becomes ``Fraction(x)``."""
    return LinearRepresentation.from_matrices(
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
