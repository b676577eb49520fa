"""Byte-level regression guard on the CLI reports.

``golden/equiv_corpus.json`` records the stdout and exit code of
``equiv --format json`` for every ordered pair of corpus files of the same
class (file suffix), and of ``basis --format json`` for every corpus file.
``golden/equiv_generated.json`` does the same for seeded exact HMMs from
``generators`` with 8-12 states, whose bases are larger than any corpus
file's: each base model against a state-permuted copy, a state-split copy
and an unrelated model, plus a pair of different sizes.
``golden/nonsquare_generated.json`` does the same for seeded exact quantum
walks (k 3-5) and dense float HMMs (n 12-20) whose process dimension is
below their row count, so that its ``basis`` reports pin which rows a
non-square block keeps.  Both store the model files they were recorded on,
so they do not depend on the generators staying the same.
``golden/cli_corpus.json`` records the exit code, stdout and stderr of every
other report in both formats on the corpus: ``dim``, ``prob`` on four words
with and without ``--decimal``, ``oracle -L 3`` on each file and on each
pair that ``equiv_corpus.json`` uses, ``validate``, and text-format
``equiv`` and ``basis``.  Regenerate a file only when an output change is
intended:

    PYTHONPATH=src python tests/test_golden.py > tests/golden/equiv_corpus.json
    PYTHONPATH=src python tests/test_golden.py generated \
        > tests/golden/equiv_generated.json
    PYTHONPATH=src python tests/test_golden.py nonsquare \
        > tests/golden/nonsquare_generated.json
    PYTHONPATH=src python tests/test_golden.py cli > tests/golden/cli_corpus.json
"""

import json
import pathlib
import random
import sys

import pytest
from click.testing import CliRunner

from finitary.basis import compute_basis, row_generator
from finitary.cli import main
from finitary.model_io import parse_model, serialize_model
from finitary.representation import compile_model

import generators as g

HERE = pathlib.Path(__file__).resolve().parent
CORPUS_DIR = HERE.parent / "corpus"
GOLDEN = HERE / "golden" / "equiv_corpus.json"
GOLDEN_GENERATED = HERE / "golden" / "equiv_generated.json"
GOLDEN_NONSQUARE = HERE / "golden" / "nonsquare_generated.json"
GOLDEN_CLI = HERE / "golden" / "cli_corpus.json"


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


def generated_models() -> dict[str, str]:
    rng = random.Random(20261018)
    models = {}
    for n, num_symbols in ((8, 2), (10, 3), (12, 2)):
        base = g.random_hmm(rng, n, num_symbols)
        models[f"hmm{n}"] = base
        models[f"hmm{n}_permuted"] = g.permute_hmm(rng, base)
        models[f"hmm{n}_split"] = g.split_hmm_state(rng, base)
        models[f"hmm{n}_other"] = g.random_hmm(rng, n, num_symbols)
    return {name: serialize_model(m) for name, m in models.items()}


GENERATED_PAIRS = [(f"hmm{n}", f"hmm{n}_{copy}")
                   for n in (8, 10, 12)
                   for copy in ("permuted", "split", "other")]
GENERATED_PAIRS += [("hmm10_split", "hmm10"), ("hmm8", "hmm12"),
                    ("hmm12", "hmm8")]


def record_generated(models: dict[str, str], directory: pathlib.Path,
                     pairs=GENERATED_PAIRS):
    """The ``equiv`` reports on ``pairs`` and the ``basis`` reports on
    ``models`` (name to file text), written as files into ``directory``."""
    paths = {}
    for name, text in models.items():
        kind = text.partition("\n")[0].removeprefix("kind: ")
        paths[name] = directory / f"{name}.{kind}"
        paths[name].write_text(text)
    return {
        "models": models,
        "equiv": {f"{x} {y}": _run("equiv", str(paths[x]), str(paths[y]))
                  for x, y in pairs},
        "basis": {name: _run("basis", str(path))
                  for name, path in paths.items()},
    }


@pytest.fixture(scope="module")
def golden_generated():
    return json.loads(GOLDEN_GENERATED.read_text())


def test_generated_reports_unchanged(golden_generated, tmp_path):
    assert record_generated(golden_generated["models"], tmp_path) == \
        golden_generated


def _nonsquare(model) -> bool:
    """Whether the basis block drops some of the row scan's rows."""
    lr = compile_model(model)
    return compute_basis(lr).dim < len(row_generator(lr))


def nonsquare_models() -> dict[str, str]:
    rng = random.Random(20261019)

    def draw(make):
        while not _nonsquare(model := make()):
            pass
        return model

    models = {}
    for k, copy in ((3, g.rephase_qrw), (4, g.permute_qrw_block),
                    (5, g.rephase_qrw)):
        base = draw(lambda: g.random_qrw(rng, k, 2))
        models[f"qrw{k}"] = base
        models[f"qrw{k}_copy"] = copy(rng, base)
    for n in (12, 16, 20):
        base = draw(lambda: g.random_dense_float_hmm(rng, n, 2))
        models[f"float{n}"] = base
        models[f"float{n}_permuted"] = g.permute_hmm(rng, base)
    return {name: serialize_model(m) for name, m in models.items()}


NONSQUARE_PAIRS = [(f"qrw{k}", f"qrw{k}_copy") for k in (3, 4, 5)]
NONSQUARE_PAIRS += [(f"float{n}", f"float{n}_permuted") for n in (12, 16, 20)]
NONSQUARE_PAIRS += [("qrw3", "qrw4"), ("qrw4", "qrw5"),
                    ("float12", "float16"), ("float16", "float20")]
NONSQUARE_PAIRS += [(y, x) for x, y in NONSQUARE_PAIRS]


@pytest.fixture(scope="module")
def golden_nonsquare():
    return json.loads(GOLDEN_NONSQUARE.read_text())


def test_nonsquare_models_keep_fewer_rows_than_they_scan(golden_nonsquare):
    for text in golden_nonsquare["models"].values():
        assert _nonsquare(parse_model(text))


def test_nonsquare_reports_unchanged(golden_nonsquare, tmp_path):
    assert record_generated(golden_nonsquare["models"], tmp_path,
                            NONSQUARE_PAIRS) == golden_nonsquare


PROB_WORDS = ("", "a", "ab", "z")  # "z" is in no corpus alphabet


def cli_cases() -> dict[str, list[str]]:
    """Name to argument list of every call ``cli_corpus.json`` records."""
    cases = {}
    for fmt in ("text", "json"):
        for name in _names():
            path = str(CORPUS_DIR / name)
            cases[f"dim {name} {fmt}"] = ["dim", path]
            for word in PROB_WORDS:
                cases[f"prob {name} {word!r} {fmt}"] = ["prob", path, word]
                cases[f"prob {name} {word!r} --decimal {fmt}"] = [
                    "prob", path, word, "--decimal"]
            cases[f"oracle {name} {fmt}"] = ["oracle", path, "-L", "3"]
            cases[f"validate {name} {fmt}"] = ["validate", path]
        for x, y in _pairs():
            paths = [str(CORPUS_DIR / x), str(CORPUS_DIR / y)]
            cases[f"oracle {x} {y} {fmt}"] = ["oracle", *paths, "-L", "3"]
    for name in _names():
        cases[f"basis {name} text"] = ["basis", str(CORPUS_DIR / name)]
    for x, y in _pairs():
        cases[f"equiv {x} {y} text"] = [
            "equiv", str(CORPUS_DIR / x), str(CORPUS_DIR / y)]
    return {key: [*args, "--format", key.rsplit(" ", 1)[1]]
            for key, args in cases.items()}


def _call(args):
    res = CliRunner().invoke(main, args)
    return {"exit": res.exit_code, "stdout": res.stdout, "stderr": res.stderr}


def record_cli():
    return {key: _call(args) for key, args in cli_cases().items()}


@pytest.fixture(scope="module")
def golden_cli():
    return json.loads(GOLDEN_CLI.read_text())


def test_cli_golden_covers_its_cases(golden_cli):
    assert sorted(golden_cli) == sorted(cli_cases())


@pytest.mark.parametrize("key", sorted(cli_cases()))
def test_cli_output_unchanged(golden_cli, key):
    assert _call(cli_cases()[key]) == golden_cli[key]


if __name__ == "__main__":
    if sys.argv[1:] == ["cli"]:
        result = record_cli()
    elif sys.argv[1:] in (["generated"], ["nonsquare"]):
        import tempfile
        models, pairs = ((generated_models(), GENERATED_PAIRS)
                         if sys.argv[1] == "generated"
                         else (nonsquare_models(), NONSQUARE_PAIRS))
        with tempfile.TemporaryDirectory() as scratch:
            result = record_generated(models, pathlib.Path(scratch), pairs)
    else:
        result = record()
    json.dump(result, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
