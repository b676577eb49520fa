"""Seeded random models and equivalence-preserving rewrites for tests.

Every builder takes an explicit random.Random so a failing case replays from
its seed.  The rewrites each produce a differently parametrized model that
provably generates the same process; tests use them as planted-equivalent
pairs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from finitary.models import Alphabet, HmmModel, PfaModel, QrwModel
from finitary.scalars import FLOAT

SYMBOLS = ("a", "b", "c", "d")


def alphabet(num_symbols: int) -> Alphabet:
    return Alphabet(SYMBOLS[:num_symbols])


def rational_distribution(rng: random.Random, size: int,
                          max_weight: int = 6) -> tuple:
    weights = [rng.randint(0, max_weight) for _ in range(size)]
    if not any(weights):
        weights[rng.randrange(size)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def random_hmm(rng: random.Random, num_states: int,
               num_symbols: int) -> HmmModel:
    return HmmModel(
        alphabet(num_symbols),
        rational_distribution(rng, num_states),
        tuple(rational_distribution(rng, num_states)
              for _ in range(num_states)),
        tuple(rational_distribution(rng, num_symbols)
              for _ in range(num_states)),
    )


def sparse_distribution(rng: random.Random, size: int,
                        support: int = 2) -> tuple:
    """A law with at most ``support`` nonzero weights."""
    weights = [0] * size
    for i in rng.sample(range(size), min(support, size)):
        weights[i] = rng.randint(0, 3)
    if not any(weights):
        weights[rng.randrange(size)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def sparse_hmm(rng: random.Random, num_states: int,
               num_symbols: int) -> HmmModel:
    """An HMM whose rows are mostly zeros, started in one state."""
    n = num_states
    initial = [Fraction(0)] * n
    initial[rng.randrange(n)] = Fraction(1)
    return HmmModel(
        alphabet(num_symbols),
        tuple(initial),
        tuple(sparse_distribution(rng, n) for _ in range(n)),
        tuple(sparse_distribution(rng, num_symbols) for _ in range(n)),
    )


def sparse_pfa(rng: random.Random, num_states: int,
               num_symbols: int) -> PfaModel:
    """An automaton with mostly-zero rows, about half of whose states
    never stop: their final weight is zero."""
    n, ns = num_states, num_symbols
    moves = [[[Fraction(0)] * n for _ in range(n)] for _ in range(ns)]
    final = []
    for i in range(n):
        stops = rng.random() < 0.5
        law = sparse_distribution(rng, ns * n + stops, support=3)
        for a in range(ns):
            for j in range(n):
                moves[a][i][j] = law[a * n + j]
        final.append(law[-1] if stops else Fraction(0))
    return PfaModel(
        alphabet(ns),
        sparse_distribution(rng, n),
        tuple(tuple(tuple(r) for r in m) for m in moves),
        tuple(final),
    )


def random_dense_float_hmm(rng: random.Random, num_states: int,
                           num_symbols: int) -> HmmModel:
    def row(size: int) -> tuple:
        weights = [rng.uniform(0.1, 1.0) for _ in range(size)]
        total = sum(weights)
        return tuple(w / total for w in weights)

    return HmmModel(
        alphabet(num_symbols),
        row(num_states),
        tuple(row(num_states) for _ in range(num_states)),
        tuple(row(num_symbols) for _ in range(num_states)),
        mode=FLOAT,
    )


def random_pfa(rng: random.Random, num_states: int,
               num_symbols: int) -> PfaModel:
    # stopping weight stays positive so the automaton halts almost surely
    # from every state; acceptance probabilities then pin down the whole
    # behavior and the two equivalence notions (acceptance vs reduced
    # process) coincide
    n, ns = num_states, num_symbols
    moves = [[[Fraction(0)] * n for _ in range(n)] for _ in range(ns)]
    final = []
    for i in range(n):
        weights = [rng.randint(0, 4) for _ in range(ns * n)]
        weights.append(rng.randint(1, 4))
        total = sum(weights)
        for a in range(ns):
            for j in range(n):
                moves[a][i][j] = Fraction(weights[a * n + j], total)
        final.append(Fraction(weights[-1], total))
    return PfaModel(
        alphabet(ns),
        rational_distribution(rng, n),
        tuple(tuple(tuple(r) for r in m) for m in moves),
        tuple(final),
    )


def random_float_pfa(rng: random.Random, num_states: int,
                     num_symbols: int) -> PfaModel:
    """``random_pfa`` with its entries as floats."""
    pfa = random_pfa(rng, num_states, num_symbols)
    return PfaModel(pfa.alphabet, [float(x) for x in pfa.initial],
                    [[[float(x) for x in row] for row in m]
                     for m in pfa.transitions],
                    [float(x) for x in pfa.final], FLOAT)


def acceptance_probability(pfa: PfaModel, word: tuple):
    """Probability that the automaton emits exactly ``word`` and stops, by
    plain row-times-matrix loops: the reference the automaton series is
    checked against."""
    row = list(pfa.initial)
    n = pfa.num_states
    for a in word:
        matrix = pfa.transitions[a]
        row = [sum(row[i] * matrix[i][j] for i in range(n)) for j in range(n)]
    return sum(row[i] * pfa.final[i] for i in range(n))


# exact unitary building blocks: c*c + s*s == 1 rotations and unit phases
_ROTATIONS = (
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(4, 5), Fraction(3, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(12, 13), Fraction(5, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
    (Fraction(7, 25), Fraction(24, 25)),
)

_UNITS = (
    (Fraction(1), Fraction(0)),
    (Fraction(-1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(0), Fraction(-1)),
)


def _czero() -> tuple:
    return Fraction(0), Fraction(0)


def _cone() -> tuple:
    return Fraction(1), Fraction(0)


def _identity(k: int) -> list:
    return [[_cone() if i == j else _czero() for j in range(k)]
            for i in range(k)]


def _times(x: tuple, y: tuple) -> tuple:
    """The product of two complex numbers given as (re, im) pairs."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _mul(a: list, b: list) -> list:
    k = len(a)
    out = []
    for i in range(k):
        row = []
        for j in range(k):
            terms = [_times(a[i][m], b[m][j]) for m in range(k)]
            row.append((sum(t[0] for t in terms),
                        sum(t[1] for t in terms)))
        out.append(row)
    return out


def random_unitary(rng: random.Random, k: int,
                   steps: int | None = None) -> tuple:
    """Product of permutations, unit-phase diagonals, and exact plane
    rotations; unitary by construction, no rounding anywhere."""
    u = _identity(k)
    if steps is None:
        steps = rng.randint(3, 7)
    for _ in range(steps):
        kind = rng.randrange(3) if k > 1 else 1
        if kind == 0:
            perm = list(range(k))
            rng.shuffle(perm)
            factor = [[_cone() if j == perm[i] else _czero()
                       for j in range(k)] for i in range(k)]
        elif kind == 1:
            factor = [[rng.choice(_UNITS) if i == j else _czero()
                       for j in range(k)] for i in range(k)]
        else:
            p, q = rng.sample(range(k), 2)
            c, s = rng.choice(_ROTATIONS)
            factor = _identity(k)
            factor[p][p] = (c, Fraction(0))
            factor[q][q] = (c, Fraction(0))
            factor[p][q] = (s, Fraction(0))
            factor[q][p] = (-s, Fraction(0))
        u = _mul(u, factor)
    return tuple(tuple(row) for row in u)


def random_wave(rng: random.Random, k: int) -> tuple:
    u = random_unitary(rng, k)
    return tuple(u[i][0] for i in range(k))


def random_qrw(rng: random.Random, k: int, num_symbols: int) -> QrwModel:
    if num_symbols > k:
        raise ValueError("more symbols than coordinates")
    labels = list(range(num_symbols))
    labels += [rng.randrange(num_symbols) for _ in range(k - num_symbols)]
    rng.shuffle(labels)
    return QrwModel(alphabet(num_symbols), tuple(labels),
                    random_unitary(rng, k), random_wave(rng, k))


def permute_hmm(rng: random.Random, hmm: HmmModel) -> HmmModel:
    """Relabeled copy: same process, different parametrization."""
    n = hmm.num_states
    order = list(range(n))
    rng.shuffle(order)
    return HmmModel(
        hmm.alphabet,
        tuple(hmm.initial[order[i]] for i in range(n)),
        tuple(tuple(hmm.transition[order[i]][order[j]] for j in range(n))
              for i in range(n)),
        tuple(hmm.emission[order[i]] for i in range(n)),
        hmm.mode,
    )


def _split_fraction(rng: random.Random) -> Fraction:
    den = rng.randint(2, 9)
    return Fraction(rng.randint(1, den - 1), den)


def _split_row(row: tuple, s: int, lam: Fraction) -> tuple:
    out = list(row) + [row[s] * (1 - lam)]
    out[s] = row[s] * lam
    return tuple(out)


def split_hmm_state(rng: random.Random, hmm: HmmModel) -> HmmModel:
    """Clone one state; every edge into it is split lam/(1-lam).  The two
    copies behave identically, so the visible process is unchanged."""
    n = hmm.num_states
    s = rng.randrange(n)
    lam = _split_fraction(rng)
    transition = [_split_row(hmm.transition[i], s, lam) for i in range(n)]
    transition.append(_split_row(hmm.transition[s], s, lam))
    emission = list(hmm.emission) + [hmm.emission[s]]
    return HmmModel(hmm.alphabet, _split_row(hmm.initial, s, lam),
                    tuple(transition), tuple(emission), hmm.mode)


def blend_hmm_state(rng: random.Random, hmm: HmmModel) -> HmmModel:
    """Like split_hmm_state but every source row picks its own ratio.
    Merging the two copies always recovers the original chain, and both
    copies emit and move identically, so any per-row blend is equivalent."""
    n = hmm.num_states
    s = rng.randrange(n)
    transition = [_split_row(hmm.transition[i], s, _split_fraction(rng))
                  for i in range(n)]
    transition.append(_split_row(hmm.transition[s], s, _split_fraction(rng)))
    emission = list(hmm.emission) + [hmm.emission[s]]
    return HmmModel(hmm.alphabet,
                    _split_row(hmm.initial, s, _split_fraction(rng)),
                    tuple(transition), tuple(emission), hmm.mode)


def permute_pfa(rng: random.Random, pfa: PfaModel) -> PfaModel:
    n = pfa.num_states
    order = list(range(n))
    rng.shuffle(order)
    return PfaModel(
        pfa.alphabet,
        tuple(pfa.initial[order[i]] for i in range(n)),
        tuple(tuple(tuple(m[order[i]][order[j]] for j in range(n))
                    for i in range(n)) for m in pfa.transitions),
        tuple(pfa.final[order[i]] for i in range(n)),
        pfa.mode,
    )


def rephase_qrw(rng: random.Random, qrw: QrwModel) -> QrwModel:
    """Multiply the wave by a non-trivial unit phase: same physical state,
    different parametrization."""
    phases = _UNITS[1:] + (
        (Fraction(3, 5), Fraction(4, 5)),
        (Fraction(-5, 13), Fraction(12, 13)),
    )
    phase = rng.choice(phases)
    return QrwModel(qrw.alphabet, qrw.labels, qrw.evolution,
                    tuple(_times(phase, z) for z in qrw.wave), qrw.mode)


def permute_qrw_block(rng: random.Random, qrw: QrwModel) -> QrwModel:
    """Renumber coordinates without changing any coordinate's symbol, so
    the measurement statistics are untouched."""
    k = qrw.num_coordinates
    groups: dict[int, list[int]] = {}
    for c, a in enumerate(qrw.labels):
        groups.setdefault(a, []).append(c)
    order = list(range(k))
    for members in groups.values():
        shuffled = members[:]
        rng.shuffle(shuffled)
        for before, after in zip(members, shuffled):
            order[before] = after
    return QrwModel(
        qrw.alphabet,
        qrw.labels,
        tuple(tuple(qrw.evolution[order[i]][order[j]] for j in range(k))
              for i in range(k)),
        tuple(qrw.wave[order[i]] for i in range(k)),
        qrw.mode,
    )


def reverse_alphabet(model):
    """The same model with its alphabet listed in reverse order: the
    symbols keep their meaning, only their indices change."""
    last = len(model.alphabet) - 1
    alphabet = Alphabet(model.alphabet.symbols[::-1])
    if isinstance(model, HmmModel):
        return HmmModel(alphabet, model.initial, model.transition,
                        tuple(row[::-1] for row in model.emission),
                        model.mode)
    if isinstance(model, QrwModel):
        return QrwModel(alphabet, tuple(last - a for a in model.labels),
                        model.evolution, model.wave, model.mode)
    return PfaModel(alphabet, model.initial, model.transitions[::-1],
                    model.final, model.mode)
