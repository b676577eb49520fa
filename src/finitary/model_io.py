"""Line-oriented model files.

Shared header: ``kind`` (hmm | qrw | pfa), ``mode`` (exact | float),
``alphabet`` (whitespace-separated symbols).  Kind-specific fields follow;
numeric blocks may be laid out as rows under a bare ``name:`` line or inline
after it, and are reshaped by count.  ``#`` starts a comment.  Exact files
use integer and p/q literals, float files decimal literals; complex entries
read ``re+imi``.  Serialization is canonical: fixed field order, lowest
terms, full-form complex values, so parse and serialize round-trip exactly.

Lines end at ``\n``, ``\r\n`` or ``\r``, the line ends ``open()``
translates; other Unicode line separators are whitespace between tokens.
A hidden Markov model or automaton is read straight into its row laws
(``models``).  An exact one is read without a ``Fraction`` per entry: each
distinct literal is read once, as an integer pair by
``scalars.parse_ratio``, and each row's pairs go into one law
(``scalars.row_law``).  A float row's law is ``(1, row)``.  Walks build
their scalars as they are read.
"""

from __future__ import annotations

import re
from functools import cache, partial

from .models import (
    Alphabet,
    HmmModel,
    Model,
    PfaModel,
    QrwModel,
    validate,
)
from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    MODES,
    any_digits,
    format_complex,
    format_scalar,
    parse_complex,
    parse_ratio,
    parse_scalar,
    row_law,
)

_HEADER_RE = re.compile(r"^\s*([^:]+?)\s*:\s*(.*)$")

KINDS = ("hmm", "qrw", "pfa")


class ModelSyntaxError(ValueError):
    """Malformed file; the message carries the line (and column) position."""


class ModelValidationError(ValueError):
    """Well-formed file describing an invalid model."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class _Record:
    """A field's entries as text, and the lines they came from."""

    __slots__ = ("name", "line", "tokens", "_lines")

    def __init__(self, name, line):
        self.name = name
        self.line = line
        self.tokens: list[str] = []
        # (index of the first entry, line number, column offset, text)
        self._lines: list[tuple[int, int, int, str]] = []

    def add(self, line_no: int, offset: int, text: str, tokens: list[str]):
        self._lines.append((len(self.tokens), line_no, offset, text))
        self.tokens += tokens

    def position(self, index: int) -> tuple[int, int]:
        """(line, column) of entry ``index``, rebuilt from its line's text
        for an error message."""
        first, line_no, offset, text = next(
            entry for entry in reversed(self._lines) if entry[0] <= index)
        starts = [m.start() for m in re.finditer(r"\S+", text)]
        return line_no, offset + starts[index - first] + 1


def _scan(text: str) -> dict[str, _Record]:
    # str.split() and the pattern \S+ split at the same code points, so
    # ``position`` finds the entries ``split`` made
    records: dict[str, _Record] = {}
    current: _Record | None = None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        line = raw.partition("#")[0]
        header = _HEADER_RE.match(line) if ":" in line else None
        if header:
            name = " ".join(header.group(1).split())
            if name in records:
                raise ModelSyntaxError(f"line {line_no}: duplicate field {name!r}")
            current = _Record(name, line_no)
            records[name] = current
            rest = header.group(2)
            current.add(line_no, header.start(2), rest, rest.split())
            continue
        tokens = line.split()
        if not tokens:
            continue
        if current is None:
            raise ModelSyntaxError(
                f"line {line_no}: values before any field name")
        current.add(line_no, 0, line, tokens)
    return records


def _take(records, name, kind):
    if name not in records:
        raise ModelSyntaxError(f"missing field {name!r} for kind {kind!r}")
    return records.pop(name)


def _single(record: _Record) -> str:
    if len(record.tokens) != 1:
        raise ModelSyntaxError(
            f"line {record.line}: field {record.name!r} wants one value, "
            f"got {len(record.tokens)}")
    return record.tokens[0]


def _where(record: _Record, index: int) -> str:
    return "line {}, column {}".format(*record.position(index))


def _positive_int(record: _Record) -> int:
    token = _single(record)
    # ASCII digits only: str.isdigit also admits digits such as "²" that
    # int() refuses
    if not (token.isascii() and token.isdigit()) or int(token) == 0:
        raise ModelSyntaxError(
            f"{_where(record, 0)}: "
            f"{record.name!r} must be a positive integer, got {token!r}")
    return int(token)


def _numbers(record: _Record, count: int, parse) -> list:
    if len(record.tokens) != count:
        raise ModelSyntaxError(
            f"line {record.line}: field {record.name!r} has "
            f"{len(record.tokens)} entries, expected {count}")
    out: list = []
    try:
        out.extend(map(parse, record.tokens))
    except ValueError as exc:
        # ``extend`` keeps the entries read before the one that failed
        raise ModelSyntaxError(f"{_where(record, len(out))}: {exc}") from None
    return out


def _reshape(flat: list, rows: int, cols: int) -> tuple:
    return tuple(tuple(flat[r * cols:(r + 1) * cols]) for r in range(rows))


def _float_law(row: list) -> tuple:
    """The law of a row of parsed floats: ``scalars.scalar_law`` without
    coercing each entry again, which would slow parsing a float file."""
    return 1, tuple(row)


def parse_model(text: str, tolerance: float = DEFAULT_TOLERANCE) -> Model:
    """The valid model that ``text`` describes; integers of any length are
    read and reported in full."""
    with any_digits():
        return _parse(text, tolerance)


def _parse(text: str, tolerance: float) -> Model:
    records = _scan(text)

    kind_rec = _take(records, "kind", "any")
    kind = _single(kind_rec)
    if kind not in KINDS:
        raise ModelSyntaxError(
            f"line {kind_rec.position(0)[0]}: unknown kind {kind!r}")
    mode_rec = _take(records, "mode", kind)
    mode = _single(mode_rec)
    if mode not in MODES:
        raise ModelSyntaxError(
            f"line {mode_rec.position(0)[0]}: unknown mode {mode!r}")

    alpha_rec = _take(records, "alphabet", kind)
    try:
        alphabet = Alphabet(tuple(alpha_rec.tokens))
    except ValueError as exc:
        raise ModelSyntaxError(f"line {alpha_rec.line}: {exc}") from None
    ns = len(alphabet)

    if mode == EXACT:
        # each distinct literal is read once; the pairs go into row laws
        read, law = cache(parse_ratio), row_law
    else:
        read, law = partial(parse_scalar, mode=mode), _float_law
    if kind == "qrw":
        k = _positive_int(_take(records, "k", kind))
        labels = _numbers(_take(records, "labels", kind), k, alphabet.index)
        complex_entry = partial(parse_complex, mode=mode)
        u_flat = _numbers(_take(records, "U", kind), k * k, complex_entry)
        psi = _numbers(_take(records, "psi0", kind), k, complex_entry)
        model: Model = QrwModel(alphabet, tuple(labels),
                                _reshape(u_flat, k, k), tuple(psi), mode)
    else:
        n = _positive_int(_take(records, "n", kind))
        pi = law(_numbers(_take(records, "pi", kind), n, read))
        if kind == "hmm":
            m_flat = _numbers(_take(records, "M", kind), n * n, read)
            e_flat = _numbers(_take(records, "E", kind), n * ns, read)
            model = HmmModel(alphabet, mode=mode, laws=(
                pi, tuple(map(law, _reshape(m_flat, n, n))),
                tuple(map(law, _reshape(e_flat, n, ns)))))
        else:
            final = _numbers(_take(records, "F", kind), n, read)
            flats = [_numbers(_take(records, f"Ma {symbol}", kind), n * n,
                              read) for symbol in alphabet.symbols]
            # state i's law: F[i], then row i of each Ma in alphabet order
            states = tuple(
                law([final[i]] + [x for flat in flats
                                  for x in flat[i * n:(i + 1) * n]])
                for i in range(n))
            model = PfaModel(alphabet, mode=mode, laws=(pi, states))

    if records:
        stray = next(iter(records.values()))
        raise ModelSyntaxError(
            f"line {stray.line}: unexpected field {stray.name!r}")

    violations = validate(model, tolerance)
    if violations:
        raise ModelValidationError(violations)
    return model


def _row_lines(rows, fmt) -> list[str]:
    return [" ".join(fmt(x) for x in row) for row in rows]


def serialize_model(model: Model) -> str:
    for kind, cls in zip(KINDS, (HmmModel, QrwModel, PfaModel)):
        if isinstance(model, cls):
            break
    else:
        raise TypeError(f"not a model: {type(model).__name__}")
    lines = [f"kind: {kind}", f"mode: {model.mode}",
             "alphabet: " + " ".join(model.alphabet.symbols)]
    if isinstance(model, QrwModel):
        lines.append(f"k: {model.num_coordinates}")
        lines.append("labels: " + " ".join(model.alphabet.symbols[a]
                                           for a in model.labels))
        lines.append("U:")
        lines.extend(_row_lines(model.evolution, format_complex))
        lines.append("psi0: " + " ".join(format_complex(z) for z in model.wave))
    else:
        lines.append(f"n: {model.num_states}")
        lines.append("pi: " + " ".join(format_scalar(x) for x in model.initial))
        if isinstance(model, HmmModel):
            lines.append("M:")
            lines.extend(_row_lines(model.transition, format_scalar))
            lines.append("E:")
            lines.extend(_row_lines(model.emission, format_scalar))
        else:
            lines.append("F: " + " ".join(format_scalar(x)
                                          for x in model.final))
            for a, symbol in enumerate(model.alphabet.symbols):
                lines.append(f"Ma {symbol}:")
                lines.extend(_row_lines(model.transitions[a], format_scalar))
    return "\n".join(lines) + "\n"
