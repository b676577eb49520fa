"""The exact tester screens candidates mod ``linalg.PRIME`` and confirms
only rejections exactly, unless a span certificate shows that its scan
cannot grow.  Every output must be the same as with any other prime,
however unlucky, and as without the certificate; the screen must leave a
full-rank scan, and the certificate a scan that cannot fill, almost no
exact elimination to do."""

import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finitary import linalg
from finitary.basis import column_basis, compute_basis, row_generator
from finitary.equivalence import test_equivalence as decide
from finitary.linalg import IndependenceTester
from finitary.representation import compile_model, compile_pfa
from finitary.scalars import EXACT

import generators as g
from conftest import from_matrices, row_candidates
from test_integer_path import padded_hmm_lr

UNLUCKY = (2, 3, 101)
BOUND = math.isqrt(linalg.PRIME // 2)  # of rational reconstruction


def _model_pairs(rng):
    """(compile, x, y) triples: seeded HMMs against permuted, split and
    blended copies and against independent models, automata and walks.
    The split and blended copies of an HMM with at least 8 states run the
    span certificate."""
    hmm = g.random_hmm(rng, rng.randint(1, 6), rng.randint(1, 3))
    other = g.random_hmm(rng, hmm.num_states, len(hmm.alphabet))
    pfa = g.random_pfa(rng, rng.randint(1, 5), rng.randint(1, 3))
    k = rng.randint(2, 3)
    qrw = g.random_qrw(rng, k, rng.randint(1, k))
    big = g.random_hmm(rng, rng.randint(8, 10), 2)
    return [
        (compile_model, hmm, g.permute_hmm(rng, hmm)),
        (compile_model, hmm, g.split_hmm_state(rng, hmm)),
        (compile_model, g.blend_hmm_state(rng, hmm), hmm),
        (compile_model, big, g.split_hmm_state(rng, big)),
        (compile_model, g.blend_hmm_state(rng, big), big),
        (compile_model, hmm, other),
        (compile_pfa, pfa, g.permute_pfa(rng, pfa)),
        (compile_pfa, pfa, g.random_pfa(rng, pfa.num_states,
                                        len(pfa.alphabet))),
        (compile_model, qrw, g.rephase_qrw(rng, qrw)),
        (compile_model, qrw, g.permute_qrw_block(rng, qrw)),
    ]


def _outputs(pairs):
    out = []
    for compile_, x, y in pairs:
        lr_x, lr_y = compile_(x), compile_(y)
        out.append((compute_basis(lr_x), compute_basis(lr_y),
                    vars(decide(lr_x, lr_y)), vars(decide(lr_y, lr_x))))
    return out


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_an_unlucky_prime_changes_no_basis_and_no_verdict(seed):
    pairs = _model_pairs(random.Random(seed))
    expected = _outputs(pairs)
    for prime in UNLUCKY:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "PRIME", prime)
            assert _outputs(pairs) == expected, prime


def test_full_rank_scans_leave_only_the_structural_rejection_exact(
        monkeypatch):
    # an HMM's one-letter backward vectors sum to the root's, so the row
    # scan rejects its last one-letter candidate: the root and the first
    # letter are reduced exactly then, and so is the candidate.  Every
    # other candidate up to the n-th acceptance is accepted by its
    # residues, so the count stays 3 as n grows, and the forward column
    # scan, which has no rejection before it fills, reduces none.
    calls = []
    reduced = IndependenceTester._reduced_exact

    def counting(self, vector):
        calls.append(vector)
        return reduced(self, vector)
    monkeypatch.setattr(IndependenceTester, "_reduced_exact", counting)
    for n in (12, 24):
        lr = compile_model(g.random_hmm(random.Random(n), n, 2))
        calls.clear()
        backwards = row_generator(lr)
        assert len(backwards) == n and len(calls) == 3
        calls.clear()
        assert len(column_basis(lr, backwards)[0]) == n
        assert calls == []


@pytest.mark.parametrize("rewrite", [g.split_hmm_state, g.blend_hmm_state])
def test_a_square_pairing_block_keeps_its_rows_without_exact_work(
        monkeypatch, rewrite):
    # a cloned state leaves the row rank below n, so the column scan judges
    # pairings; its block is square, so every row is kept and the vectors
    # the screen accepted are never reduced exactly after the scan fills
    events = []
    reduced = IndependenceTester._reduced_exact
    insert = IndependenceTester.try_insert

    def counting(self, vector):
        events.append("reduce")
        return reduced(self, vector)

    def marking(self, vector):
        accepted = insert(self, vector)
        if accepted and self.rank == self.dimension:
            events.append("full")
        return accepted
    monkeypatch.setattr(IndependenceTester, "_reduced_exact", counting)
    monkeypatch.setattr(IndependenceTester, "try_insert", marking)
    for n in (8, 16):
        rng = random.Random(n)
        lr = compile_model(rewrite(rng, g.random_hmm(rng, n, 2)))
        backwards = row_generator(lr)
        assert len(backwards) == n < lr.dimension
        events.clear()
        cols, keep = column_basis(lr, backwards)
        assert len(cols) == n and keep == list(range(n))
        assert events[-1] == "full"


def _counting_reductions(monkeypatch):
    calls = []
    reduced = IndependenceTester._reduced_exact

    def counting(self, vector):
        calls.append(vector)
        return reduced(self, vector)
    monkeypatch.setattr(IndependenceTester, "_reduced_exact", counting)
    return calls


@pytest.mark.parametrize("rewrite", [g.split_hmm_state, g.blend_hmm_state])
def test_a_row_scan_that_cannot_fill_certifies_its_span(monkeypatch,
                                                        rewrite):
    # a cloned state keeps the row scan of n + 1 coordinates at n rows.
    # Its late rejection is settled by the span certificate, so the only
    # exact work is the structural rejection of the last one-letter
    # candidate (the root, the first letter and the candidate), where
    # the certificate is too costly to try; without it a scan reduces its
    # n accepted vectors and n + 1 late rejections exactly.  The lifted
    # certificate is checked once, in integers.  It stops the scan at its
    # second rejection: n + 2 candidates judged, where a scan without it
    # judges all 2n + 1
    calls = _counting_reductions(monkeypatch)
    attempts, checks = [], []
    certified, closed = linalg._certified, linalg._closed

    def recording_certified(*args):
        attempts.append(certified(*args))
        return attempts[-1]

    def recording_closed(*args):
        checks.append(closed(*args))
        return checks[-1]
    monkeypatch.setattr(linalg, "_certified", recording_certified)
    monkeypatch.setattr(linalg, "_closed", recording_closed)
    for n in (8, 16, 32):
        rng = random.Random(n)
        lr = compile_model(rewrite(rng, g.random_hmm(rng, n, 2)))
        calls.clear()
        attempts.clear()
        checks.clear()
        backwards = row_generator(lr)
        assert len(backwards) == n == lr.dimension - 1
        assert len(calls) == 3
        assert checks == attempts == [True]
        assert row_candidates(lr) == n + 2


def _certificate_models(rng):
    lrs = []
    for rewrite in (g.split_hmm_state, g.blend_hmm_state):
        for n in (2, 5, 9):
            lrs.append(compile_model(rewrite(rng, g.random_hmm(rng, n, 2))))
    lrs += [padded_hmm_lr(rng) for _ in range(10)]
    lrs += [compile_pfa(g.random_pfa(rng, rng.randint(1, 6),
                                     rng.randint(1, 3))) for _ in range(10)]
    lrs += [compile_model(g.random_qrw(rng, k, rng.randint(1, k)))
            for k in (2, 2, 3, 3, 4)]
    return lrs


def test_the_certificate_changes_no_basis(monkeypatch):
    # the certificate only settles rejections sooner: every basis is the
    # one the exact confirmation of each rejection gives
    lrs = _certificate_models(random.Random(15))
    results = []
    certified = linalg._certified

    def recording(*args):
        results.append(certified(*args))
        return results[-1]
    monkeypatch.setattr(linalg, "_certified", recording)
    expected = [compute_basis(lr) for lr in lrs]
    assert results.count(True) >= 6 and False in results
    monkeypatch.setattr(linalg, "_certified", lambda *args: False)
    assert [compute_basis(lr) for lr in lrs] == expected


def test_a_walk_tries_the_certificate_only_where_it_is_cheap(monkeypatch):
    # the certificate costs about (n - k) * n per step and annihilator row;
    # a tester tries it only at rank k with (n - k) * n <= k * k, so a
    # walk whose row rank r is below that never tries it
    attempts = []
    certified = linalg._certified

    def recording(rows, pivots, dimension, *generators):
        attempts.append((dimension, len(rows)))
        return certified(rows, pivots, dimension, *generators)
    monkeypatch.setattr(linalg, "_certified", recording)
    rng = random.Random(16)
    cheap = 0
    for _ in range(20):
        k = rng.randint(2, 4)
        lr = compile_model(g.random_qrw(rng, k, rng.randint(1, k)))
        attempts.clear()
        r = len(row_generator(lr))
        n = lr.dimension
        assert all((n - rank) * n <= rank * rank for _, rank in attempts)
        if (n - r) * n > r * r:
            cheap += 1
            assert attempts == []
    assert cheap > 5


def test_a_refused_certificate_falls_back_to_exact_confirmation():
    # backward vectors e1, e2 and e1 + p e3 (one symbol): mod p the third
    # is dependent and e3 spans the annihilator, which the step maps to
    # (0, p, 1), e3 again mod p.  In integers (0, p, 1) is outside the span
    # of e3, so the one integer check refuses the certificate and the exact
    # reduction accepts e1 + p e3, as the exact-only scan does
    p = 101
    lr = from_matrices(
        g.alphabet(1), [((0, 1, 0), (1, 0, 0), (0, p, 1))], (1, 0, 0),
        (1, 0, 0), EXACT)
    reference = (row_generator(lr), compute_basis(lr))
    checks = []
    closed = linalg._closed

    def recording(*args):
        checks.append(closed(*args))
        return checks[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "PRIME", p)
        mp.setattr(linalg, "_closed", recording)
        calls = _counting_reductions(mp)
        scan = row_generator(lr)
        assert checks == [False] and len(calls) == 3
        assert scan == reference[0]
        assert compute_basis(lr) == reference[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(IndependenceTester, "_try_exact",
                   IndependenceTester._insert_exact)
        assert (row_generator(lr), compute_basis(lr)) == reference
    assert [bv.word for bv in reference[0]] == [(), (0,), (0, 0)]


@given(st.integers(-BOUND, BOUND), st.integers(1, BOUND))
def test_the_lift_recovers_every_pair_within_the_bound(a, b):
    # a / b in lowest terms with |a|, b <= sqrt(PRIME / 2) is the only
    # such pair with residue a / b mod PRIME
    assume(math.gcd(a, b) == 1)
    x = a * pow(b, -1, linalg.PRIME) % linalg.PRIME
    assert linalg._rational(x) == (a, b)


def test_the_lift_is_an_integer_pair_within_the_bound_or_none():
    rng = random.Random(24)
    prime = linalg.PRIME
    residues = [0, 1, prime - 1] + [rng.randrange(prime) for _ in range(2000)]
    lifted = [(x, linalg._rational(x)) for x in residues]
    for x, pair in lifted:
        if pair is not None:
            a, b = pair
            assert type(a) is int and type(b) is int
            assert 0 < b <= BOUND and abs(a) <= BOUND
            assert (a - b * x) % prime == 0
    assert lifted[:3] == [(0, (0, 1)), (1, (1, 1)), (prime - 1, (-1, 1))]
    assert any(pair is None for _, pair in lifted)


def _two_pass_closed(free, kernel, scale, root, steps, zero):
    """``linalg._closed`` with ``zero`` deciding each residual."""
    images = (linalg.vec_mat(z, m) for m in steps for z in kernel)
    return (all(zero(linalg.dot(z, root)) for z in kernel)
            and all(zero(scale * x - sum(u[f] * z[j] for f, z in
                                         zip(free, kernel)))
                    for u in images for j, x in enumerate(u)))


def _two_pass_certified(rows, pivots, dimension, root, steps):
    """The certificate checked first on residues mod ``PRIME``, then on
    the lifted integers: the same outcome as the one integer check."""
    prime = linalg.PRIME
    free, kernel = linalg._annihilator(rows, pivots, dimension)
    residues = [[[x % prime for x in row] for row in m] for m in steps]
    if not _two_pass_closed(free, kernel, 1, root, residues,
                            lambda x: x % prime == 0):
        return False
    lifted = [[linalg._rational(x) for x in z] for z in kernel]
    if any(None in z for z in lifted):
        return False
    scale = math.lcm(*(b for z in lifted for _, b in z))
    kernel = [[a * (scale // b) for a, b in z] for z in lifted]
    return _two_pass_closed(free, kernel, scale, root, steps,
                            lambda x: x == 0)


@settings(deadline=None, max_examples=5)
@given(st.integers(0, 2**32 - 1))
def test_one_integer_check_certifies_what_two_passes_certify(seed):
    # a residue pass before the integer check could refuse no certificate
    # the integer check accepts, under any prime
    lrs = _certificate_models(random.Random(seed))
    certified = linalg._certified
    outcomes = []

    def comparing(*args):
        outcomes.append((certified(*args), _two_pass_certified(*args)))
        return outcomes[-1][0]
    for prime in UNLUCKY + (linalg.PRIME,):
        outcomes.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "PRIME", prime)
            mp.setattr(linalg, "_certified", comparing)
            for lr in lrs:
                compute_basis(lr)
        assert outcomes and all(a == b for a, b in outcomes), prime
