"""Seeded model pairs for the four decision workloads.

Each workload has a fixed schedule of pair slots (truth, construction, size,
alphabet size); the seed only fills in the random entries.  Keeping the size
mix fixed keeps the cost of a pass comparable from seed to seed, so the
spread between seeds measures the program rather than the draw.

Models are plain dicts of ``Fraction`` (exact) or ``float`` entries and are
written as model files by ``serialize``.  Nothing here imports the program:
the generator and the ground truth must not move when the program changes.

Planted-equivalent pairs are equivalent by construction.  A differing pair is
admitted only when ``truth.find_difference`` finds a short word whose exact
probabilities differ; a candidate that fails that test is redrawn from the
same random stream, so the pair set still depends only on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import truth

EQUAL, DIFFER = "equal", "differ"
# Constructions the program is known to decide wrongly (stop-symbol
# reduction on automata that may never stop).  Their pairs are decided once
# per run, untimed, and reported apart from the timed pair set, whose
# "correct" flag must stay meaningful for the cases the program handles.
KNOWN_DEFECTS = ("never-stopping",)


@dataclass(frozen=True)
class Pair:
    pair_id: str
    truth: str  # EQUAL or DIFFER
    construction: str
    x: dict
    y: dict

    @property
    def known_defect(self) -> bool:
        return self.construction in KNOWN_DEFECTS


# --- hidden Markov models -------------------------------------------------

def _rational_row(rng, size, zero_at=None):
    weights = [rng.randint(0, 6) for _ in range(size)]
    if zero_at is not None:
        weights[zero_at] = 0
    if not any(weights):
        choices = [i for i in range(size) if i != zero_at]
        weights[rng.choice(choices)] = 1
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _float_row(rng, size):
    weights = [rng.uniform(0.1, 1.0) for _ in range(size)]
    total = sum(weights)
    return [w / total for w in weights]


def random_hmm(rng, n, ns, pi_zero_at=None):
    return {"kind": "hmm", "mode": "exact", "ns": ns,
            "pi": _rational_row(rng, n, zero_at=pi_zero_at),
            "M": [_rational_row(rng, n) for _ in range(n)],
            "E": [_rational_row(rng, ns) for _ in range(n)]}


def random_float_hmm(rng, n, ns):
    return {"kind": "hmm", "mode": "float", "ns": ns,
            "pi": _float_row(rng, n),
            "M": [_float_row(rng, n) for _ in range(n)],
            "E": [_float_row(rng, ns) for _ in range(n)]}


def _shuffled(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return order


def permute_hmm(rng, m):
    order = _shuffled(rng, len(m["pi"]))
    return {**m,
            "pi": [m["pi"][i] for i in order],
            "M": [[m["M"][i][j] for j in order] for i in order],
            "E": [m["E"][i] for i in order]}


def _split_ratio(rng):
    den = rng.randint(2, 9)
    return Fraction(rng.randint(1, den - 1), den)


def _split(row, s, lam):
    out = list(row) + [row[s] * (1 - lam)]
    out[s] = row[s] * lam
    return out


def split_hmm(rng, m, per_row):
    """Clone state s; edges into it are split lam/(1-lam).  Both copies emit
    and move alike, so the process is unchanged.  With ``per_row`` every
    source row draws its own lam (the blended variant)."""
    n = len(m["pi"])
    s = rng.randrange(n)
    lam = _split_ratio(rng)

    def ratio():
        return _split_ratio(rng) if per_row else lam

    rows = [_split(m["M"][i], s, ratio()) for i in range(n)]
    rows.append(_split(m["M"][s], s, ratio()))
    return {**m, "pi": _split(m["pi"], s, ratio()), "M": rows,
            "E": list(m["E"]) + [m["E"][s]]}


def hmm_pair(rng, construction, n, ns, mode):
    if mode == "float":
        x = random_float_hmm(rng, n, ns)
        if construction == "permuted":
            return x, permute_hmm(rng, x)
        return x, random_float_hmm(rng, n, ns)
    if construction == "unreached-row":
        # state s has no initial mass and its emission row is redrawn, so
        # the two processes agree on every one-symbol word
        s = rng.randrange(n)
        x = random_hmm(rng, n, ns, pi_zero_at=s)
        y = {**x, "E": list(x["E"])}
        y["E"][s] = _rational_row(rng, ns)
        return x, permute_hmm(rng, y)
    x = random_hmm(rng, n, ns)
    if construction == "permuted":
        return x, permute_hmm(rng, x)
    if construction == "split":
        return x, split_hmm(rng, x, per_row=False)
    if construction == "blended":
        return x, split_hmm(rng, x, per_row=True)
    return x, random_hmm(rng, n, ns)


# --- quantum walks (Gaussian rationals as (re, im) pairs) -----------------

_ROTATIONS = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
              (Fraction(8, 17), Fraction(15, 17)), (Fraction(7, 25), Fraction(24, 25)),
              (Fraction(20, 29), Fraction(21, 29)))
_PHASES = ((Fraction(1), Fraction(0)), (Fraction(-1), Fraction(0)),
           (Fraction(0), Fraction(1)), (Fraction(0), Fraction(-1)))
_REPHASE = _PHASES[1:] + ((Fraction(3, 5), Fraction(4, 5)),
                          (Fraction(-5, 13), Fraction(12, 13)))
_CZERO = (Fraction(0), Fraction(0))
_CONE = (Fraction(1), Fraction(0))


def _identity(k):
    return [[_CONE if i == j else _CZERO for j in range(k)] for i in range(k)]


def _matmul(a, b):
    k = len(a)
    return [[truth.csum(truth.cmul(a[i][m], b[m][j]) for m in range(k))
             for j in range(k)] for i in range(k)]


def random_unitary(rng, k):
    """Product of permutations, unit-phase diagonals and exact plane
    rotations: unitary with no rounding anywhere."""
    u = _identity(k)
    for _ in range(rng.randint(3, 6)):
        kind = rng.randrange(3)
        if kind == 0:
            perm = _shuffled(rng, k)
            factor = [[_CONE if j == perm[i] else _CZERO for j in range(k)]
                      for i in range(k)]
        elif kind == 1:
            factor = [[rng.choice(_PHASES) if i == j else _CZERO
                       for j in range(k)] for i in range(k)]
        else:
            p, q = rng.sample(range(k), 2)
            c, s = rng.choice(_ROTATIONS)
            factor = _identity(k)
            factor[p][p] = factor[q][q] = (c, Fraction(0))
            factor[p][q] = (s, Fraction(0))
            factor[q][p] = (-s, Fraction(0))
        u = _matmul(u, factor)
    return u


def random_qrw(rng, k, ns):
    labels = list(range(ns)) + [rng.randrange(ns) for _ in range(k - ns)]
    rng.shuffle(labels)
    wave = [row[0] for row in random_unitary(rng, k)]
    return {"kind": "qrw", "mode": "exact", "ns": ns, "labels": labels,
            "U": random_unitary(rng, k), "psi": wave}


def rephase_qrw(rng, m):
    phase = rng.choice(_REPHASE)
    return {**m, "psi": [truth.cmul(phase, z) for z in m["psi"]]}


def block_permute_qrw(rng, m):
    """Renumber coordinates within each label class; measurement
    statistics are untouched."""
    k = len(m["labels"])
    order = list(range(k))
    for a in range(m["ns"]):
        members = [c for c in range(k) if m["labels"][c] == a]
        shuffled = members[:]
        rng.shuffle(shuffled)
        for before, after in zip(members, shuffled):
            order[before] = after
    return {**m, "U": [[m["U"][order[i]][order[j]] for j in range(k)]
                       for i in range(k)],
            "psi": [m["psi"][order[i]] for i in range(k)]}


def qrw_pair(rng, construction, k, ns):
    x = random_qrw(rng, k, ns)
    if construction == "rephased":
        return x, rephase_qrw(rng, x)
    if construction == "block-permuted":
        return x, block_permute_qrw(rng, x)
    return x, random_qrw(rng, k, ns)


# --- automata -------------------------------------------------------------

def random_pfa(rng, n, ns, stopping=True):
    """Per state, weights over (symbol, next state) moves plus a stop weight.
    A stopping automaton has positive stop weight in every state; a
    never-stopping one has none."""
    moves = [[[Fraction(0)] * n for _ in range(n)] for _ in range(ns)]
    final = []
    for i in range(n):
        weights = [rng.randint(0, 4) for _ in range(ns * n)]
        stop = rng.randint(1, 4) if stopping else 0
        if not any(weights) and not stop:
            weights[rng.randrange(ns * n)] = 1
        total = sum(weights) + stop
        for a in range(ns):
            for j in range(n):
                moves[a][i][j] = Fraction(weights[a * n + j], total)
        final.append(Fraction(stop, total))
    return {"kind": "pfa", "mode": "exact", "ns": ns,
            "pi": _rational_row(rng, n), "F": final, "Ma": moves}


def permute_pfa(rng, m):
    order = _shuffled(rng, len(m["pi"]))
    return {**m, "pi": [m["pi"][i] for i in order],
            "F": [m["F"][i] for i in order],
            "Ma": [[[t[i][j] for j in order] for i in order] for t in m["Ma"]]}


def pfa_pair(rng, construction, n, ns):
    if construction == "never-stopping":
        # both accept nothing, so they are equivalent; admitted only when
        # their prefix masses differ, which is the case the stop-symbol
        # reduction gets wrong
        return random_pfa(rng, n, ns, False), random_pfa(rng, n, ns, False)
    x = random_pfa(rng, n, ns)
    if construction == "permuted":
        return x, permute_pfa(rng, x)
    return x, random_pfa(rng, n, ns)


# --- schedules ------------------------------------------------------------
# (truth, construction, size, alphabet size).  Each workload's 40 timed
# pairs fall into four cost blocks of about 13, 14, 5 and 8 pairs, cheapest
# first, so that the median decision lands inside one block of like pairs
# and the 90th percentile inside the top block: a percentile that sits
# between two size classes jumps from seed to seed.

def _cycle(items, i):
    return items[i % len(items)]


def _slots(truth, constructions, groups):
    """Slots for ``groups`` of (size, alphabet size, count)."""
    sizes = [(n, ns) for n, ns, count in groups for _ in range(count)]
    return [(truth, _cycle(constructions, i), n, ns)
            for i, (n, ns) in enumerate(sizes)]


def _hmm_exact():
    return (_slots(EQUAL, ("permuted", "split", "blended"),
                   [(6, 2, 2), (6, 3, 2), (7, 2, 3),
                    (7, 3, 2), (8, 2, 5),
                    (9, 2, 2), (9, 3, 1),
                    (10, 2, 2), (11, 2, 1)])
            + _slots(DIFFER, ("independent",) * 3 + ("unreached-row",),
                     [(6, 2, 1), (6, 3, 1), (7, 2, 1), (7, 3, 1), (8, 2, 1),
                      (8, 3, 1),
                      (10, 2, 3), (11, 2, 2), (9, 3, 2),
                      (12, 2, 2),
                      (14, 2, 2), (13, 3, 2), (14, 3, 1)]))


def _qrw_exact():
    return (_slots(EQUAL, ("rephased", "block-permuted"),
                   [(4, 2, 3), (4, 3, 3),
                    (5, 3, 7),
                    (6, 2, 3),
                    (6, 3, 3), (7, 2, 1)])
            + _slots(DIFFER, ("independent",),
                     [(4, 2, 4), (4, 3, 3),
                      (5, 3, 4), (5, 2, 3),
                      (6, 2, 2),
                      (6, 3, 3), (7, 2, 1)]))


def _hmm_float():
    # cost grows about as n^2, so small models are more numerous; no few
    # large pairs dominate a pass
    ns = ([20] * 10 + [25] * 6 + [30] * 6 + [35] * 4 + [40] * 4
          + [45, 45, 50, 50, 60, 60, 70, 70, 80, 80])
    return ([(EQUAL, "permuted", n, 2) for n in ns]
            + [(DIFFER, "independent", n, 2) for n in ns])


def _pfa_exact():
    return (_slots(EQUAL, ("permuted",),
                   [(2, 2, 2), (2, 3, 1), (3, 2, 2), (3, 3, 1), (4, 2, 1),
                    (4, 3, 4), (5, 2, 3),
                    (6, 2, 1), (7, 2, 1),
                    (6, 3, 2), (8, 2, 2)])
            + _slots(DIFFER, ("independent",),
                     [(2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1), (4, 2, 1),
                      (4, 3, 1),
                      (6, 2, 7),
                      (5, 3, 1), (6, 3, 1), (7, 2, 1),
                      (7, 3, 2), (8, 3, 2)])
            + _slots(EQUAL, ("never-stopping",), [(1, 2, 2), (2, 2, 2)]))


WORKLOADS = {
    "hmm-exact": ("hmm", "exact", _hmm_exact),
    "qrw-exact": ("qrw", "exact", _qrw_exact),
    "hmm-float": ("hmm", "float", _hmm_float),
    "pfa-exact": ("pfa", "exact", _pfa_exact),
}


def _draw(rng, kind, mode, construction, size, ns):
    if kind == "hmm":
        return hmm_pair(rng, construction, size, ns, mode)
    if kind == "qrw":
        return qrw_pair(rng, construction, size, ns)
    return pfa_pair(rng, construction, size, ns)


def build(workload: str, seed: int, limit: int | None = None) -> list[Pair]:
    """The workload's pair set for ``seed``.  ``limit`` keeps that many
    evenly spaced timed slots (and every known-defect slot), for quick
    checks of the benchmark itself."""
    kind, mode, schedule = WORKLOADS[workload]
    slots = schedule()
    if limit is not None:
        timed = [s for s in slots if s[1] not in KNOWN_DEFECTS]
        slots = (timed[::max(1, len(timed) // limit)][:limit]
                 + [s for s in slots if s[1] in KNOWN_DEFECTS])
    rng = random.Random(f"{workload}:{seed}")
    pairs = []
    for index, (want, construction, size, ns) in enumerate(slots):
        for _ in range(100):
            x, y = _draw(rng, kind, mode, construction, size, ns)
            if construction == "never-stopping":
                admitted = truth.find_difference(x, y, True) is not None
            elif want == DIFFER:
                admitted = truth.find_difference(x, y) is not None
            else:
                truth.check_planted(x, y)
                admitted = True
            if admitted:
                break
        else:
            raise RuntimeError(f"{workload} slot {index}: no admissible pair")
        pairs.append(Pair(f"{workload}-{index:02d}", want, construction,
                          x, y))
    return pairs


# --- model files ----------------------------------------------------------

def _scalar(x) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def _complex(z) -> str:
    re, im = z
    sign = "-" if im < 0 else "+"
    return f"{re}{sign}{abs(im)}i"


def _rows(rows, fmt=_scalar):
    return [" ".join(fmt(v) for v in row) for row in rows]


def serialize(m: dict) -> str:
    lines = [f"kind: {m['kind']}", f"mode: {m['mode']}",
             "alphabet: " + " ".join(truth.SYMBOLS[:m["ns"]])]
    if m["kind"] == "hmm":
        lines += [f"n: {len(m['pi'])}", "pi: " + _rows([m["pi"]])[0], "M:"]
        lines += _rows(m["M"]) + ["E:"] + _rows(m["E"])
    elif m["kind"] == "qrw":
        lines += [f"k: {len(m['psi'])}",
                  "labels: " + " ".join(truth.SYMBOLS[a] for a in m["labels"]), "U:"]
        lines += _rows(m["U"], _complex)
        lines.append("psi0: " + _rows([m["psi"]], _complex)[0])
    else:
        lines += [f"n: {len(m['pi'])}", "pi: " + _rows([m["pi"]])[0],
                  "F: " + _rows([m["F"]])[0]]
        for a in range(m["ns"]):
            lines.append(f"Ma {truth.SYMBOLS[a]}:")
            lines += _rows(m["Ma"][a])
    return "\n".join(lines) + "\n"
