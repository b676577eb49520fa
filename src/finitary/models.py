"""Model parametrizations: hidden Markov, quantum random walk, automaton.

Hidden Markov models and walks describe stochastic processes over a finite
alphabet and give each word the probability that the emitted stream begins
with it; an automaton gives each word the probability of reading it and
then stopping.
Words are tuples of symbol indices into the model's ``Alphabet``.
``validate`` reports every probability-law violation; shape errors are
raised at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .linalg import gaussian, times_conj
from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    MODES,
    as_complex,
    as_scalar,
    format_scalar,
    one,
    scalars_equal,
    zero,
)

Word = tuple[int, ...]
EMPTY_WORD: Word = ()
EMPTY_WORD_TEXT = "□"  # printed for the empty word

STOP_SYMBOL = "$"  # the symbol ``pfa_to_hmm`` emits when the automaton stops

_FORBIDDEN_IN_SYMBOL = set(":#,") | {EMPTY_WORD_TEXT}


@dataclass(frozen=True)
class Alphabet:
    symbols: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("alphabet must be non-empty")
        for s in self.symbols:
            if not s or s.split() != [s]:
                raise ValueError(f"bad alphabet symbol: {s!r}")
            if any(ch in _FORBIDDEN_IN_SYMBOL for ch in s):
                raise ValueError(f"bad alphabet symbol: {s!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be distinct")
        object.__setattr__(self, "_lookup",
                           {s: i for i, s in enumerate(self.symbols)})

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self._lookup[symbol]
        except KeyError:
            raise ValueError(f"unknown symbol: {symbol!r}") from None

    @property
    def single_char(self) -> bool:
        return all(len(s) == 1 for s in self.symbols)

    def parse_word(self, text: str) -> Word:
        """Accepts "" or the empty-word glyph, comma- or space-separated
        symbols, and plain concatenation when all symbols are one character."""
        t = text.strip()
        if t == "" or t == EMPTY_WORD_TEXT:
            return EMPTY_WORD
        if "," in t:
            parts = [p.strip() for p in t.split(",") if p.strip()]
        elif self.single_char and " " not in t:
            parts = list(t)
        else:
            parts = t.split()
        return tuple(self.index(p) for p in parts)

    def format_word(self, word: Word) -> str:
        if not word:
            return EMPTY_WORD_TEXT
        sep = "" if self.single_char else " "
        return sep.join(self.symbols[a] for a in word)


def _scalar_rows(rows, mode):
    return tuple(tuple(as_scalar(x, mode) for x in row) for row in rows)


@dataclass(frozen=True)
class HmmModel:
    """Hidden Markov model: per-state emission row, then a state transition.

    ``initial`` is the starting distribution, ``transition`` the state
    matrix (rows sum to 1), ``emission`` the per-state symbol distributions.
    """

    alphabet: Alphabet
    initial: tuple
    transition: tuple
    emission: tuple
    mode: str = EXACT

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown scalar mode: {self.mode!r}")
        initial = tuple(as_scalar(x, self.mode) for x in self.initial)
        transition = _scalar_rows(self.transition, self.mode)
        emission = _scalar_rows(self.emission, self.mode)
        n = len(initial)
        if n == 0:
            raise ValueError("model needs at least one state")
        if len(transition) != n or any(len(r) != n for r in transition):
            raise ValueError("transition matrix must be n x n")
        if len(emission) != n or any(len(r) != len(self.alphabet) for r in emission):
            raise ValueError("emission matrix must be n x |alphabet|")
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "emission", emission)

    @property
    def num_states(self) -> int:
        return len(self.initial)


@dataclass(frozen=True)
class QrwModel:
    """Quantum random walk: unitary evolution, measure, collapse, repeat.

    ``labels[c]`` is the symbol index observed when the wave collapses onto
    coordinate ``c``.  ``evolution`` is the k x k unitary, ``wave`` the
    initial unit wave function.
    """

    alphabet: Alphabet
    labels: tuple[int, ...]
    evolution: tuple
    wave: tuple
    mode: str = EXACT

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown scalar mode: {self.mode!r}")
        wave = tuple(as_complex(z, self.mode) for z in self.wave)
        evolution = tuple(tuple(as_complex(z, self.mode) for z in row)
                          for row in self.evolution)
        labels = tuple(int(a) for a in self.labels)
        k = len(wave)
        if k == 0:
            raise ValueError("model needs at least one coordinate")
        if len(evolution) != k or any(len(r) != k for r in evolution):
            raise ValueError("evolution matrix must be k x k")
        if len(labels) != k:
            raise ValueError("labels must assign a symbol to each coordinate")
        if any(a < 0 or a >= len(self.alphabet) for a in labels):
            raise ValueError("label index out of range")
        object.__setattr__(self, "wave", wave)
        object.__setattr__(self, "evolution", evolution)
        object.__setattr__(self, "labels", labels)

    @property
    def num_coordinates(self) -> int:
        return len(self.wave)


@dataclass(frozen=True)
class PfaModel:
    """Probabilistic finite automaton with per-symbol transitions and
    stopping probabilities.  ``transitions[a][i][j]`` is the chance of
    emitting symbol ``a`` while moving i -> j; ``final[i]`` the chance of
    stopping in state i."""

    alphabet: Alphabet
    initial: tuple
    transitions: tuple
    final: tuple
    mode: str = EXACT

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown scalar mode: {self.mode!r}")
        initial = tuple(as_scalar(x, self.mode) for x in self.initial)
        final = tuple(as_scalar(x, self.mode) for x in self.final)
        transitions = tuple(_scalar_rows(m, self.mode) for m in self.transitions)
        n = len(initial)
        if n == 0:
            raise ValueError("model needs at least one state")
        if len(final) != n:
            raise ValueError("final vector must have n entries")
        if len(transitions) != len(self.alphabet):
            raise ValueError("one transition matrix per symbol required")
        for m in transitions:
            if len(m) != n or any(len(r) != n for r in m):
                raise ValueError("transition matrices must be n x n")
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "transitions", transitions)

    @property
    def num_states(self) -> int:
        return len(self.initial)


Model = HmmModel | QrwModel | PfaModel


def _negative(x, mode, tol) -> bool:
    return (x.numerator < 0) if mode == EXACT else (x < -tol)


def _bad_total(entries, mode, tol):
    """The sum of ``entries`` when it is not 1 (beyond ``tol`` in float
    mode), else None.  An exact row is summed as integers over one common
    denominator, and a ``Fraction`` is built only for a sum to report."""
    if mode == EXACT:
        den = lcm(*(x.denominator for x in entries))
        total = sum(x.numerator * (den // x.denominator) for x in entries)
        return None if total == den else Fraction(total, den)
    total = 0.0
    for x in entries:
        total = total + x
    return total if abs(total - 1) > tol else None


def _check_distribution(entries, name, row_label, violations, mode, tol):
    for idx, x in enumerate(entries):
        if _negative(x, mode, tol):
            violations.append(f"{name}[{idx}] is negative" if row_label is None
                              else f"{name}[{row_label}][{idx}] is negative")
    total = _bad_total(entries, mode, tol)
    if total is not None:
        where = name if row_label is None else f"{name} row {row_label}"
        violations.append(f"{where} sums to {format_scalar(total)}")


def _validate_hmm(model: HmmModel, tol: float) -> list[str]:
    v: list[str] = []
    _check_distribution(model.initial, "pi", None, v, model.mode, tol)
    for i, row in enumerate(model.transition):
        _check_distribution(row, "M", i, v, model.mode, tol)
    for i, row in enumerate(model.emission):
        _check_distribution(row, "E", i, v, model.mode, tol)
    return v


def _validate_qrw(model: QrwModel, tol: float) -> list[str]:
    v: list[str] = []
    k = model.num_coordinates
    mode = model.mode
    scale, u = gaussian([z for row in model.evolution for z in row], mode)
    s2 = scale ** 2
    for i in range(k):
        for j in range(k):
            re = im = 0
            for m in range(k):
                x, y = times_conj(u[i * k + m], u[j * k + m])
                re, im = re + x, im + y
            if not (scalars_equal(s2 * re, int(i == j), mode, tol)
                    and scalars_equal(s2 * im, 0, mode, tol)):
                v.append(f"unitarity violated at entry ({i},{j})")
    scale, wave = gaussian(model.wave, mode)
    total = 0
    for x, y in wave:
        total = total + (x * x + y * y)
    norm = scale ** 2 * total
    if not scalars_equal(norm, 1, mode, tol):
        v.append(f"psi0 has squared norm {format_scalar(norm)}")
    used = set(model.labels)
    for a, symbol in enumerate(model.alphabet.symbols):
        if a not in used:
            v.append(f"symbol {symbol} labels no coordinate")
    return v


def _validate_pfa(model: PfaModel, tol: float) -> list[str]:
    v: list[str] = []
    mode = model.mode
    _check_distribution(model.initial, "pi", None, v, mode, tol)
    for i in range(model.num_states):
        if _negative(model.final[i], mode, tol):
            v.append(f"F[{i}] is negative")
        outgoing = [model.final[i]]
        for a, symbol in enumerate(model.alphabet.symbols):
            row = model.transitions[a][i]
            for j, x in enumerate(row):
                if _negative(x, mode, tol):
                    v.append(f"Ma {symbol}[{i}][{j}] is negative")
            outgoing.extend(row)
        total = _bad_total(outgoing, mode, tol)
        if total is not None:
            v.append(f"state {i} outgoing mass sums to {format_scalar(total)}")
    return v


def validate(model: Model, tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """All probability-law violations, empty when the model is well formed."""
    if isinstance(model, HmmModel):
        return _validate_hmm(model, tolerance)
    if isinstance(model, QrwModel):
        return _validate_qrw(model, tolerance)
    if isinstance(model, PfaModel):
        return _validate_pfa(model, tolerance)
    raise TypeError(f"not a model: {type(model).__name__}")


def pfa_to_hmm(pfa: PfaModel) -> HmmModel:
    """Turn stopping into an emitted stop symbol.

    The automaton draws, per step, a (symbol, next state) pair or stops.  The
    returned hidden Markov model runs over the alphabet extended with ``$``:
    hidden states are (destination state, symbol just emitted) pairs plus one
    absorbing dead state that emits ``$`` forever.  For every word v over the
    original alphabet, the word probability of ``v$...`` in the result equals
    the automaton's stopping probability after reading v.
    """
    if STOP_SYMBOL in pfa.alphabet.symbols:
        raise ValueError("automaton alphabet already uses the stop symbol")
    extended = Alphabet(pfa.alphabet.symbols + (STOP_SYMBOL,))
    mode = pfa.mode
    n = pfa.num_states
    ns = len(pfa.alphabet)
    total = n * ns + 1
    dead = total - 1
    stop_idx = len(extended) - 1
    z, o = zero(mode), one(mode)

    def pair(state: int, symbol: int) -> int:
        return state * ns + symbol

    initial = [z] * total
    for s2 in range(n):
        for a in range(ns):
            acc = z
            for s in range(n):
                acc = acc + pfa.initial[s] * pfa.transitions[a][s][s2]
            initial[pair(s2, a)] = acc
    acc = z
    for s in range(n):
        acc = acc + pfa.initial[s] * pfa.final[s]
    initial[dead] = acc

    emission = []
    for s2 in range(n):
        for a in range(ns):
            row = [z] * len(extended)
            row[a] = o
            emission.append(row)
    dead_row = [z] * len(extended)
    dead_row[stop_idx] = o
    emission.append(dead_row)

    transition = []
    for s2 in range(n):
        for a in range(ns):
            row = [z] * total
            for b in range(ns):
                for s3 in range(n):
                    row[pair(s3, b)] = pfa.transitions[b][s2][s3]
            row[dead] = pfa.final[s2]
            transition.append(row)
    dead_trans = [z] * total
    dead_trans[dead] = o
    transition.append(dead_trans)

    return HmmModel(extended, tuple(initial), tuple(transition),
                    tuple(emission), mode)
