"""Command-line front end.

Exit codes: 0 success (for ``equiv``: equivalent; for ``oracle`` with two
models: agreement up to the length bound), 1 an established difference,
2 usage, syntax, validation, or budget errors, and internal failures.
Output is deterministic.  Every command builds its report both as a JSON
payload and as text lines and prints it through ``_emit``, the one place
that reads ``--format``.  Every command but ``validate`` loads its model
files through ``_compiled``, the one place that refuses an automaton
paired with another model.  Model files and WORD are read as UTF-8,
whatever the locale.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import click
from click.core import ParameterSource

from .basis import compute_basis
# test_equivalence_pfa is unused here; perfbench/tracing.py wraps it
from .equivalence import test_equivalence, test_equivalence_pfa  # noqa: F401
from .model_io import ModelSyntaxError, ModelValidationError, parse_model
from .models import PfaModel
from .oracle import BudgetExceededError, DEFAULT_BUDGET, brute_equiv, enumerate_probs
from .representation import compile_model
from .scalars import DEFAULT_TOLERANCE, EXACT, FLOAT, format_scalar

_TOLERANCE_ENV = "FINITARY_TOLERANCE"


def _check_tolerance(ctx, param, value: float) -> float:
    """Refuse a tolerance that is NaN, infinite or negative: under it every
    comparison would come out the same way, whatever the values."""
    if not (math.isfinite(value) and value >= 0):
        raise click.BadParameter(f"must be a finite number >= 0, got {value}")
    return value


class _ToleranceOption(click.Option):
    """Names the environment variable, not the flag, in the error for a bad
    value read from it; click records a value's source only after checking
    the value, so ``_check_tolerance`` cannot tell."""

    def consume_value(self, ctx, opts):
        value, source = super().consume_value(ctx, opts)
        ctx.meta[_TOLERANCE_ENV] = source is ParameterSource.ENVIRONMENT
        return value, source

    def process_value(self, ctx, value):
        try:
            return super().process_value(ctx, value)
        except click.BadParameter as exc:
            if ctx.meta.get(_TOLERANCE_ENV):
                exc.param_hint = f"environment variable {_TOLERANCE_ENV}"
            raise


tolerance_option = click.option(
    "--tolerance", cls=_ToleranceOption, type=float,
    default=DEFAULT_TOLERANCE, show_default=True, envvar=_TOLERANCE_ENV,
    callback=_check_tolerance,
    help="Float-mode comparison tolerance, a finite number >= 0 (also "
         f"honored via {_TOLERANCE_ENV}).")
format_option = click.option(
    "--format", "fmt", type=click.Choice(["text", "json"]), default="text",
    show_default=True, help="Report style.")


def _fail(message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


def _emit(fmt: str, payload: dict, lines):
    """Print a report: ``payload`` as JSON under ``--format json``, otherwise
    each of the text ``lines``."""
    if fmt == "json":
        click.echo(json.dumps(payload, indent=2))
    else:
        for line in lines:
            click.echo(line)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        _fail(str(exc))
    except UnicodeDecodeError as exc:
        _fail(f"{path}: not UTF-8 text ({exc})")


def _compiled(paths, tolerance: float = DEFAULT_TOLERANCE):
    """The representations of the model files ``paths``, loaded in order.
    Automata are compared by acceptance, other models by their process, so
    files that mix the two are refused: they have no common notion of
    equivalence."""
    models = []
    for path in paths:
        try:
            models.append(parse_model(_read(path), tolerance))
        except ModelValidationError as exc:
            _fail(f"{path}: invalid model: {exc}")
        except ModelSyntaxError as exc:
            _fail(f"{path}: {exc}")
    if len({isinstance(m, PfaModel) for m in models}) > 1:
        _fail("cannot compare an automaton with a hidden Markov model or "
              "quantum walk")
    return [compile_model(m) for m in models]


class _Group(click.Group):
    """Maps any exception a command leaves unhandled to ``error: ...`` and
    exit 2, so that exit 1 keeps meaning "a difference was established"."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.ClickException, click.exceptions.Exit,
                click.exceptions.Abort):
            raise  # click reports these itself; Exit and Abort are RuntimeErrors
        except Exception as exc:
            _fail(f"internal error: {type(exc).__name__}: {exc}")


@click.group(cls=_Group)
def main():
    """Equivalence testing for hidden Markov models, quantum random walks,
    and probabilistic automata."""


@main.command()
@click.argument("model_a", type=click.Path())
@click.argument("model_b", type=click.Path())
@tolerance_option
@format_option
def equiv(model_a, model_b, tolerance, fmt):
    """Decide whether two model files generate the same process.

    Two automata are compared by their acceptance probabilities.
    """
    lr_a, lr_b = _compiled([model_a, model_b], tolerance)
    try:
        verdict = test_equivalence(lr_a, lr_b, tolerance)
    except ValueError as exc:
        _fail(str(exc))
    witness_text = (None if verdict.witness is None
                    else verdict.alphabet.format_word(verdict.witness))
    values = (None if verdict.details is None
              else [format_scalar(x) for x in verdict.details])
    if verdict.equivalent:
        lines = [f"equivalent within tolerance {verdict.tolerance}"
                 if verdict.mode == FLOAT else "equivalent (exact)",
                 f"dim: {verdict.dim_x}"]
    else:
        lines = [f"not equivalent: {verdict.reason}",
                 f"dims: {verdict.dim_x} vs {verdict.dim_y}"]
        if witness_text is not None:
            lines += [f"witness: {witness_text}", f"left:  {values[0]}",
                      f"right: {values[1]}"]
    _emit(fmt, {
        "equivalent": verdict.equivalent,
        "reason": verdict.reason,
        "dim_x": verdict.dim_x,
        "dim_y": verdict.dim_y,
        "i_size": verdict.dim_x,
        "j_size": verdict.dim_x,
        "witness": witness_text,
        "values": values,
        "mode": verdict.mode,
        "tolerance": verdict.tolerance,
    }, lines)
    sys.exit(0 if verdict.equivalent else 1)


@main.command()
@click.argument("model_file", type=click.Path())
@tolerance_option
@format_option
def dim(model_file, tolerance, fmt):
    """Process dimension of one model file."""
    [lr] = _compiled([model_file], tolerance)
    result = compute_basis(lr, tolerance)
    _emit(fmt, {"dim": result.dim}, [str(result.dim)])


@main.command()
@click.argument("model_file", type=click.Path())
@tolerance_option
@format_option
def basis(model_file, tolerance, fmt):
    """Basis words and the invertible block for one model file."""
    [lr] = _compiled([model_file], tolerance)
    result = compute_basis(lr, tolerance)
    rows = [lr.alphabet.format_word(v) for v in result.row_words]
    cols = [lr.alphabet.format_word(w) for w in result.col_words]
    matrix = [[format_scalar(x) for x in row] for row in result.matrix]
    _emit(fmt, {"dim": result.dim, "row_words": rows, "col_words": cols,
                "matrix": matrix},
          [f"dim: {result.dim}", "rows (I): " + " ".join(rows),
           "cols (J): " + " ".join(cols), "block:",
           *("  " + " ".join(row) for row in matrix)])


@main.command()
@click.argument("model_file", type=click.Path())
@click.argument("word", type=str)
@click.option("--decimal", is_flag=True,
              help="Also print the float value of an exact result.")
@format_option
def prob(model_file, word, decimal, fmt):
    """Probability of WORD under one model file; for an automaton, the
    probability of reading WORD and then stopping.

    WORD is symbols separated by spaces or commas, plain concatenation when
    all symbols are single characters, or "" / the empty-word glyph.
    """
    [lr] = _compiled([model_file])
    try:  # argv's bytes as UTF-8, whatever the locale decoded them as
        text = os.fsencode(word).decode("utf-8")
    except UnicodeEncodeError:  # no argv decoding made it: a caller's text
        text = word
    except UnicodeDecodeError as exc:
        _fail(f"WORD is not UTF-8 text ({exc})")
    try:
        parsed = lr.alphabet.parse_word(text)
    except ValueError as exc:
        _fail(str(exc))
    value = lr.prob(parsed)
    payload = {"word": lr.alphabet.format_word(parsed),
               "prob": format_scalar(value)}
    line = payload["prob"]
    if decimal and lr.mode == EXACT:
        payload["decimal"] = float(value)
        line += f" ≈ {float(value)!r}"
    _emit(fmt, payload, [line])


@main.command()
@click.argument("model_files", type=click.Path(), nargs=-1, required=True)
@click.option("-L", "--length", "max_len", type=click.IntRange(min=0),
              default=4, show_default=True,
              help="Enumerate words up to this length.")
@click.option("--budget", type=int, default=DEFAULT_BUDGET, show_default=True,
              help="Refuse enumerations needing more table entries than this.")
@tolerance_option
@format_option
def oracle(model_files, max_len, budget, tolerance, fmt):
    """Brute-force word probabilities (one model) or comparison (two).

    An automaton's probabilities are its acceptance probabilities, as in
    equiv.
    """
    if len(model_files) not in (1, 2):
        _fail("oracle takes one or two model files")
    lrs = _compiled(model_files, tolerance)
    words = lrs[0].alphabet.format_word
    try:
        if len(lrs) == 1:
            # shortlex order, as the table is built
            table = enumerate_probs(lrs[0], max_len, budget)
            entries = {words(w): format_scalar(p) for w, p in table.items()}
            _emit(fmt, {"max_len": max_len, "entries": entries},
                  [f"{w} {p}" for w, p in entries.items()])
            return
        result = brute_equiv(lrs[0], lrs[1], max_len, tolerance, budget)
    except (BudgetExceededError, ValueError) as exc:
        _fail(str(exc))
    if result.equal_up_to:
        witness = values = None
        line = f"equal on all words up to length {max_len}"
    else:
        witness = words(result.witness)
        values = [format_scalar(x) for x in result.values]
        line = f"differs at {witness}: {values[0]} vs {values[1]}"
    _emit(fmt, {"max_len": max_len, "equal_up_to": result.equal_up_to,
                "witness": witness, "values": values}, [line])
    sys.exit(0 if result.equal_up_to else 1)


@main.command()
@click.argument("model_file", type=click.Path())
@tolerance_option
@format_option
def validate(model_file, tolerance, fmt):
    """Check a model file; list violations and exit 2 if invalid."""
    try:
        parse_model(_read(model_file), tolerance)
    except ModelValidationError as exc:
        _emit(fmt, {"ok": False, "violations": exc.violations},
              exc.violations)
        sys.exit(2)
    except ModelSyntaxError as exc:
        _fail(f"{model_file}: {exc}")
    _emit(fmt, {"ok": True, "violations": []}, ["ok"])


if __name__ == "__main__":
    main()
