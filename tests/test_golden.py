"""Byte-level regression guard on the CLI reports for the whole corpus.

``golden/equiv_corpus.json`` records the stdout and exit code of
``equiv --format json`` for every ordered pair of corpus files of the same
class (file suffix), and of ``basis --format json`` for every corpus file.
Regenerate it only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py > tests/golden/equiv_corpus.json
"""

import json
import pathlib
import sys

import pytest
from click.testing import CliRunner

from finitary.cli import main

HERE = pathlib.Path(__file__).resolve().parent
CORPUS_DIR = HERE.parent / "corpus"
GOLDEN = HERE / "golden" / "equiv_corpus.json"


def _names():
    return sorted(p.name for p in CORPUS_DIR.iterdir())


def _pairs():
    names = _names()
    return [(x, y) for x in names for y in names
            if x.rsplit(".", 1)[1] == y.rsplit(".", 1)[1]]


def _run(*args):
    res = CliRunner().invoke(main, [*args, "--format", "json"])
    return {"exit": res.exit_code, "stdout": res.stdout}


def _equiv(x, y):
    return _run("equiv", str(CORPUS_DIR / x), str(CORPUS_DIR / y))


def _basis(name):
    return _run("basis", str(CORPUS_DIR / name))


def record():
    return {
        "equiv": {f"{x} {y}": _equiv(x, y) for x, y in _pairs()},
        "basis": {name: _basis(name) for name in _names()},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus(golden):
    assert sorted(golden["equiv"]) == sorted(f"{x} {y}" for x, y in _pairs())
    assert sorted(golden["basis"]) == _names()


@pytest.mark.parametrize("x,y", _pairs())
def test_equiv_output_unchanged(golden, x, y):
    assert _equiv(x, y) == golden["equiv"][f"{x} {y}"]


@pytest.mark.parametrize("name", _names())
def test_basis_output_unchanged(golden, name):
    assert _basis(name) == golden["basis"][name]


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
