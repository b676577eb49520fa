"""Ground truth and output checks, computed without the program's code.

Word probabilities are exact: every model is scaled to integer matrices over
one common denominator, so a forward step is integer arithmetic and a value
is one ``Fraction`` at the end.  Float models are evaluated exactly on the
rationals their float entries denote.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

SYMBOLS = "abc"
EMPTY_WORD = "□"
FLOAT_TOLERANCE = 1e-9  # the program's default; the benchmark never changes it
FLOAT_MARGIN = 1e-6  # a float pair differs only by well over the tolerance
PLANTED_CHECK_LENGTH = 2


def cmul(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def csum(terms):
    re = im = 0
    for a, b in terms:
        re += a
        im += b
    return (re, im)


def _scaled(values):
    """Integers over one common denominator for a flat list of numbers."""
    fracs = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def _scaled_matrix(rows):
    n = len(rows[0])
    flat, den = _scaled([v for row in rows for v in row])
    return [flat[i * n:(i + 1) * n] for i in range(len(rows))], den


class Series:
    """Forward evaluation of one model: ``start``, ``step`` by a symbol, and
    ``value`` of the word read so far (word probability for HMMs and walks,
    acceptance probability for automata, or prefix mass with
    ``prefix_mass``)."""

    def __init__(self, m: dict, prefix_mass: bool = False):
        self.kind = m["kind"]
        self.float_mode = m["mode"] == "float"
        if self.kind == "qrw":
            k = len(m["psi"])
            re, den_u = _scaled([z[c] for row in m["U"] for z in row
                                 for c in (0, 1)])
            self.u = [[(re[2 * (i * k + j)], re[2 * (i * k + j) + 1])
                       for j in range(k)] for i in range(k)]
            self.den = den_u
            psi, den_psi = _scaled([z[c] for z in m["psi"] for c in (0, 1)])
            self.init = ([(psi[2 * i], psi[2 * i + 1]) for i in range(k)],
                         den_psi)
            self.labels = m["labels"]
            return
        init, den_init = _scaled(m["pi"])
        self.init = (init, den_init)
        if self.kind == "hmm":
            m_int, den_m = _scaled_matrix(m["M"])
            e_int, den_e = _scaled_matrix(m["E"])
            n = len(init)
            self.steps = [[[e_int[i][a] * m_int[i][j] for j in range(n)]
                           for i in range(n)] for a in range(m["ns"])]
            self.den = den_m * den_e
            self.fin = ([1] * n, 1)
        else:
            flat, den = _scaled_matrix([row for t in m["Ma"] for row in t])
            n = len(init)
            self.steps = [flat[a * n:(a + 1) * n] for a in range(m["ns"])]
            self.den = den
            self.fin = ([1] * n, 1) if prefix_mass else _scaled(m["F"])

    def start(self):
        return self.init

    def step(self, state, a):
        vec, den = state
        if self.kind == "qrw":
            out = []
            for i, row in enumerate(self.u):
                if self.labels[i] != a:
                    out.append((0, 0))
                    continue
                re = im = 0
                for (ur, ui), (vr, vi) in zip(row, vec):
                    if vr or vi:
                        re += ur * vr - ui * vi
                        im += ur * vi + ui * vr
                out.append((re, im))
            return out, den * self.den
        matrix = self.steps[a]
        out = [0] * len(vec)
        for vi, row in zip(vec, matrix):
            if vi:
                for j, x in enumerate(row):
                    if x:
                        out[j] += vi * x
        return out, den * self.den

    def value(self, state) -> Fraction:
        vec, den = state
        if self.kind == "qrw":
            return Fraction(sum(re * re + im * im for re, im in vec), den * den)
        fin, fin_den = self.fin
        return Fraction(sum(v * f for v, f in zip(vec, fin) if v),
                        den * fin_den)

    def prob(self, word) -> Fraction:
        state = self.start()
        for a in word:
            state = self.step(state, a)
        return self.value(state)


def _differs(px, py, float_mode, margin):
    return abs(px - py) > margin if float_mode else px != py


def words(ns, max_len, sx, sy):
    """(word, value_x, value_y) for every word up to ``max_len``, shortest
    first, sharing prefixes."""
    level = [((), sx.start(), sy.start())]
    for _ in range(max_len + 1):
        nxt = []
        for word, stx, sty in level:
            yield word, sx.value(stx), sy.value(sty)
            for a in range(ns):
                nxt.append((word + (a,), sx.step(stx, a), sy.step(sty, a)))
        level = nxt


def _search_length(ns):
    return 5 if ns == 2 else 3


def find_difference(x: dict, y: dict, prefix_mass: bool = False):
    """Shortest word (up to a short length) whose exact values differ, or
    None.  Float models must differ by more than ``FLOAT_MARGIN``."""
    sx, sy = Series(x, prefix_mass), Series(y, prefix_mass)
    margin = FLOAT_MARGIN if sx.float_mode else 0
    for word, px, py in words(x["ns"], _search_length(x["ns"]), sx, sy):
        if _differs(px, py, sx.float_mode, margin):
            return word
    return None


def check_planted(x: dict, y: dict):
    """A planted-equivalent pair must agree exactly on every short word;
    anything else is a bug in the generator, so it raises."""
    sx, sy = Series(x), Series(y)
    for word, px, py in words(x["ns"], PLANTED_CHECK_LENGTH, sx, sy):
        if px != py:
            raise RuntimeError(f"planted pair differs at {word}: {px} vs {py}")


def parse_word(text: str):
    if text == EMPTY_WORD:
        return ()
    return tuple(SYMBOLS.index(ch) for ch in text)


def _reported(text: str, float_mode: bool):
    return float(text) if float_mode else Fraction(text)


def certify(x: dict, y: dict, witness: str, values) -> bool:
    """The witness's two recomputed values differ and match the report."""
    word = parse_word(witness)
    sx, sy = Series(x), Series(y)
    px, py = sx.prob(word), sy.prob(word)
    if not _differs(px, py, sx.float_mode, FLOAT_TOLERANCE):
        return False
    if values is None or len(values) != 2:
        return False
    rx, ry = (_reported(v, sx.float_mode) for v in values)
    if sx.float_mode:
        return abs(rx - px) <= FLOAT_TOLERANCE and abs(ry - py) <= FLOAT_TOLERANCE
    return (rx, ry) == (px, py)


@dataclass(frozen=True)
class Outcome:
    """How one decision compares with the ground truth.

    ``failed`` follows the benchmark's definition: exit 2, an uncaught
    exception, a wrong verdict, or a witness that does not certify.
    ``wrong`` is a verdict (the report's ``equivalent``, or the exit code a
    shell would see when nothing was reported) that contradicts the truth.
    ``incorrect`` marks a printed report that is wrong or uncertifiable.
    """

    failed: bool
    wrong: bool
    incorrect: bool
    reason: str | None
    note: str


def check(x: dict, y: dict, equal: bool, code: int, stdout: str,
          exception: str | None) -> Outcome:
    if exception is not None:
        # an uncaught exception leaves the interpreter with exit code 1,
        # which the command line defines as "not equivalent"
        return Outcome(True, equal, False, None, f"uncaught {exception}")
    if code == 2:
        return Outcome(True, False, False, None, "exit 2")
    try:
        report = json.loads(stdout)
        verdict = report["equivalent"]
    except (ValueError, KeyError, TypeError):
        return Outcome(True, False, True, None, f"unreadable report, exit {code}")
    if code != (0 if verdict else 1):
        return Outcome(True, False, True, report.get("reason"),
                       f"exit {code} contradicts the report")
    if verdict != equal:
        return Outcome(True, True, True, report.get("reason"), "wrong verdict")
    witness = report.get("witness")
    if not verdict and witness is not None:
        try:
            good = certify(x, y, witness, report.get("values"))
        except (ValueError, TypeError, ZeroDivisionError):
            good = False
        if not good:
            return Outcome(True, False, True, report.get("reason"),
                           f"witness {witness!r} does not certify")
    return Outcome(False, False, False, report.get("reason"), "ok")
