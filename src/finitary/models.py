"""Model parametrizations: hidden Markov, quantum random walk, automaton.

Hidden Markov models and walks describe stochastic processes over a finite
alphabet and give each word the probability that the emitted stream begins
with it; an automaton gives each word the probability of reading it and
then stopping.
Words are tuples of symbol indices into the model's ``Alphabet``.
``validate`` reports every probability-law violation; shape errors are
raised at construction.

A hidden Markov model or an automaton keeps each row law in one form,
its ``laws``: ``(den, nums)`` with entry i equal to ``nums[i] / den``.  In
exact mode ``nums`` are the integer numerators over one denominator that
``scalars.row_law`` gives; in float mode ``den`` is 1 and ``nums`` are the
floats.  ``validate`` checks a law with one left-to-right sum and a sign
test, and ``representation`` compiles the laws, so in exact mode neither
builds a ``Fraction`` per entry.  Both share one law-model base, which
stores the alphabet, laws and mode and nothing else, whether the model was
parsed or built from scalars; the entries (``initial``, ``transition``,
``emission``, ``final``, ``transitions``) are built from the laws on first
read.  Each names its rows and entries, and one law survey in ``validate``
reports both kinds.  A walk stores each entry of U and psi0 as the pair
``(re, im)`` of scalars in its mode (``scalars.as_complex``), and splits
U and psi0 once each by ``linalg.gaussian`` (``QrwModel.split``), for its
validation and its compilation alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .linalg import gaussian, times_conj
from .scalars import (
    DEFAULT_TOLERANCE,
    EXACT,
    MODES,
    as_complex,
    format_scalar,
    one,
    scalar_law,
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


def _entries(law, mode: str, start: int = 0, stop: int | None = None):
    """Entries ``start:stop`` of a law, as ``Fraction``s in exact mode."""
    den, nums = law
    if mode == EXACT:
        return tuple(Fraction(p, den) for p in nums[start:stop])
    return nums[start:stop]


@dataclass(frozen=True, init=False)
class _LawModel:
    """A model kept as row laws: a hidden Markov model or an automaton.

    ``laws[0]`` is the law of ``initial`` and ``laws[1]`` holds one law per
    state; each subclass lays out its laws, builds them from its entries
    (``_laws``) and names them for ``validate`` (``_named_laws``).
    """

    alphabet: Alphabet
    laws: tuple
    mode: str = EXACT

    def __init__(self, alphabet, mode, laws, entries):
        """From ``laws``, or from ``entries``, ``initial`` first, when
        ``laws`` is None; a model takes one or the other."""
        if mode not in MODES:
            raise ValueError(f"unknown scalar mode: {mode!r}")
        if (laws is None) != all(x is not None for x in entries):
            raise TypeError("a model takes its entries or their laws")
        if laws is None:
            if len(entries[0]) == 0:
                raise ValueError("model needs at least one state")
            laws = self._laws(alphabet, mode, *entries)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "mode", mode)

    @cached_property
    def initial(self) -> tuple:
        return _entries(self.laws[0], self.mode)

    @property
    def num_states(self) -> int:
        return len(self.laws[1])


@dataclass(frozen=True, init=False)
class HmmModel(_LawModel):
    """Hidden Markov model: per-state emission row, then a state transition.

    ``initial`` is the starting distribution, ``transition`` the state
    matrix (rows sum to 1), ``emission`` the per-state symbol distributions.

    The model keeps one law per row, ``laws == (pi, M rows, E rows)``,
    each ``scalars.scalar_law`` of its entries.  Validation and
    ``compile_hmm`` read the laws; ``initial``, ``transition`` and
    ``emission`` are built from them on first read.  Equality compares
    the laws, which equal rows share.
    """

    def __init__(self, alphabet, initial=None, transition=None,
                 emission=None, mode=EXACT, *, laws=None):
        """From the entries, sequences of numbers of ``mode`` (see
        ``scalars.as_scalar``), or from their laws alone, whose shapes are
        not checked."""
        super().__init__(alphabet, mode, laws, (initial, transition, emission))

    @staticmethod
    def _laws(alphabet, mode, initial, transition, emission) -> tuple:
        n = len(initial)
        if len(transition) != n or any(len(r) != n for r in transition):
            raise ValueError("transition matrix must be n x n")
        if (len(emission) != n
                or any(len(r) != len(alphabet) for r in emission)):
            raise ValueError("emission matrix must be n x |alphabet|")
        return (scalar_law(initial, mode),
                tuple(scalar_law(r, mode) for r in transition),
                tuple(scalar_law(r, mode) for r in emission))

    def _named_laws(self):
        """``(row name, entry name, laws)`` per block of laws; the names
        are ``str.format``s of the row index i and the entry index j."""
        pi, transition, emission = self.laws
        return (("pi".format, "pi[{1}]".format, (pi,)),
                ("M row {}".format, "M[{}][{}]".format, transition),
                ("E row {}".format, "E[{}][{}]".format, emission))

    @cached_property
    def transition(self) -> tuple:
        return tuple(_entries(law, self.mode) for law in self.laws[1])

    @cached_property
    def emission(self) -> tuple:
        return tuple(_entries(law, self.mode) for law in self.laws[2])


@dataclass(frozen=True)
class QrwModel:
    """Quantum random walk: unitary evolution, measure, collapse, repeat.

    ``labels[c]`` is the symbol index observed when the wave collapses onto
    coordinate ``c``.  ``evolution`` is the k x k unitary, ``wave`` the
    initial unit wave function; each entry is given as a number or a pair
    ``(re, im)`` and stored as the pair (``scalars.as_complex``).
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

    @cached_property
    def split(self) -> tuple:
        """``(gaussian of U's entries row by row, gaussian of psi0)``, each
        ``(scale, pairs)`` as ``linalg.gaussian`` returns it, made once per
        model for its validation and its compilation."""
        return (gaussian([z for row in self.evolution for z in row],
                         self.mode),
                gaussian(self.wave, self.mode))


@dataclass(frozen=True, init=False)
class PfaModel(_LawModel):
    """Probabilistic finite automaton with per-symbol transitions and
    stopping probabilities.  ``transitions[a][i][j]`` is the chance of
    emitting symbol ``a`` while moving i -> j; ``final[i]`` the chance of
    stopping in state i.

    As in ``HmmModel``, the model keeps one law per row,
    ``laws == (pi, state laws)``.  State i's law is its outgoing mass:
    ``final[i]``, then row i of each ``transitions[a]`` in alphabet order.
    The entries are built from the laws on first read.
    """

    def __init__(self, alphabet, initial=None, transitions=None, final=None,
                 mode=EXACT, *, laws=None):
        """From the entries, sequences of numbers of ``mode`` (see
        ``scalars.as_scalar``), or from their laws alone, whose shapes are
        not checked."""
        super().__init__(alphabet, mode, laws, (initial, transitions, final))

    @staticmethod
    def _laws(alphabet, mode, initial, transitions, final) -> tuple:
        n = len(initial)
        if len(final) != n:
            raise ValueError("final vector must have n entries")
        if len(transitions) != len(alphabet):
            raise ValueError("one transition matrix per symbol required")
        for m in transitions:
            if len(m) != n or any(len(r) != n for r in m):
                raise ValueError("transition matrices must be n x n")
        return (scalar_law(initial, mode), tuple(
            scalar_law([final[i], *(x for m in transitions for x in m[i])],
                       mode) for i in range(n)))

    def _named_laws(self):
        """As ``HmmModel._named_laws``."""
        pi, states = self.laws

        def entry(i: int, j: int) -> str:
            if j == 0:
                return f"F[{i}]"
            a, j = divmod(j - 1, self.num_states)
            return f"Ma {self.alphabet.symbols[a]}[{i}][{j}]"
        return (("pi".format, "pi[{1}]".format, (pi,)),
                ("state {} outgoing mass".format, entry, states))

    @cached_property
    def final(self) -> tuple:
        return tuple(x for law in self.laws[1]
                     for x in _entries(law, self.mode, 0, 1))

    @cached_property
    def transitions(self) -> tuple:
        n = self.num_states
        return tuple(
            tuple(_entries(law, self.mode, 1 + a * n, 1 + (a + 1) * n)
                  for law in self.laws[1])
            for a in range(len(self.alphabet)))


Model = HmmModel | QrwModel | PfaModel


def _validate_laws(model: _LawModel, tol: float) -> list[str]:
    """Each law's negative entries (below ``-tol`` in float mode), then its
    sum when that is not 1 (within ``tol`` in float mode, so a NaN sum is
    reported).  An exact law is one integer sum and a sign test; a
    ``Fraction`` is built only for a sum to report."""
    v: list[str] = []
    mode = model.mode
    for row, entry, laws in model._named_laws():
        for i, (den, nums) in enumerate(laws):
            # left to right: from Python 3.12 the builtin ``sum`` compensates
            # float rounding, which would make float messages depend on the
            # version
            total = 0
            for x in nums:
                total = total + x
            # ``min`` is below 0 or NaN whenever an entry is negative
            if not min(nums) >= 0:
                v.extend(f"{entry(i, j)} is negative"
                         for j, x in enumerate(nums)
                         if x < 0 and not scalars_equal(x, 0, mode, tol))
            if not scalars_equal(total, den, mode, tol):
                total = _entries((den, (total,)), mode)[0]
                v.append(f"{row(i)} sums to {format_scalar(total)}")
    return v


def _validate_qrw(model: QrwModel, tol: float) -> list[str]:
    v: list[str] = []
    k = model.num_coordinates
    mode = model.mode
    (scale, u), (w_scale, wave) = model.split
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
    total = 0
    for x, y in wave:
        total = total + (x * x + y * y)
    norm = w_scale ** 2 * total
    if not scalars_equal(norm, 1, mode, tol):
        v.append(f"psi0 has squared norm {format_scalar(norm)}")
    used = set(model.labels)
    for a, symbol in enumerate(model.alphabet.symbols):
        if a not in used:
            v.append(f"symbol {symbol} labels no coordinate")
    return v


def validate(model: Model, tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """All probability-law violations, empty when the model is well formed."""
    if isinstance(model, _LawModel):
        return _validate_laws(model, tolerance)
    if isinstance(model, QrwModel):
        return _validate_qrw(model, tolerance)
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
