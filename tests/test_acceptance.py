"""Acceptance suite.

One test per criterion; each also prints a PASS/FAIL line in the terminal
summary (see conftest).  Expected values never come from the code under
test: every verdict is cross-checked against exhaustive enumeration,
literal Hankel blocks, or direct acceptance products.
"""
import random
import time

import pytest
from click.testing import CliRunner

from finitary import equivalence, oracle
from finitary.basis import compute_basis
from finitary.cli import main
from finitary.models import acceptance_probability
from finitary.representation import compile_model

import criteria
from conftest import CORPUS_DIR, corpus_names, load_corpus_model
from generators import (
    blend_hmm_state,
    permute_hmm,
    permute_pfa,
    permute_qrw_block,
    random_hmm,
    random_pfa,
    random_qrw,
    random_dense_float_hmm,
    rephase_qrw,
    split_hmm_state,
)


def _check(name: str, ok: bool, detail: str = ""):
    criteria.record(name, ok, detail)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def hmm_results():
    """Criterion-1 corpus: both routes run on every pair, results kept for
    the invariant suite."""
    rng = random.Random(101)
    pairs = []
    for _ in range(20):
        pairs.append(("random", random_hmm(rng, rng.randint(1, 4), 1),
                      random_hmm(rng, rng.randint(1, 4), 1)))
    for _ in range(160):
        pairs.append(("random", random_hmm(rng, rng.randint(1, 4), 2),
                      random_hmm(rng, rng.randint(1, 4), 2)))
    for _ in range(75):
        pairs.append(("random", random_hmm(rng, rng.randint(1, 3), 3),
                      random_hmm(rng, rng.randint(1, 3), 3)))
    for _ in range(4):
        pairs.append(("random", random_hmm(rng, 4, 3), random_hmm(rng, 4, 3)))
    for _ in range(60):
        base = random_hmm(rng, rng.randint(2, 4), 2)
        pairs.append(("permutation", base, permute_hmm(rng, base)))
    for _ in range(40):
        base = random_hmm(rng, rng.randint(2, 3), 3)
        pairs.append(("permutation", base, permute_hmm(rng, base)))
    for _ in range(45):
        base = random_hmm(rng, rng.randint(1, 3), 2)
        pairs.append(("split", base, split_hmm_state(rng, base)))
    for _ in range(30):
        base = random_hmm(rng, rng.randint(1, 2), 3)
        pairs.append(("split", base, split_hmm_state(rng, base)))
    for _ in range(45):
        base = random_hmm(rng, rng.randint(1, 3), 2)
        pairs.append(("blend", base, blend_hmm_state(rng, base)))
    for _ in range(30):
        base = random_hmm(rng, rng.randint(1, 2), 3)
        pairs.append(("blend", base, blend_hmm_state(rng, base)))

    records = []
    start = time.perf_counter()
    for kind, x, y in pairs:
        lr_x, lr_y = compile_model(x), compile_model(y)
        verdict = equivalence.test_equivalence(lr_x, lr_y)
        brute = oracle.brute_equiv(lr_x, lr_y,
                                   verdict.dim_x + verdict.dim_y)
        records.append((kind, lr_x, lr_y, verdict, brute))
    elapsed = time.perf_counter() - start
    return records, elapsed


def _qrw_base(rng, k: int, num_symbols: int, dim_cap: int):
    # keep the brute-force length dim_x + dim_y enumerable
    for _ in range(40):
        model = random_qrw(rng, k, num_symbols)
        if compute_basis(compile_model(model)).dim <= dim_cap:
            return model
    raise AssertionError("no base model under the dimension cap")


@pytest.fixture(scope="module")
def qrw_results():
    rng = random.Random(202)
    plant_cycle = ("phase", "perm", "both")
    pairs = []
    for _ in range(10):
        base = random_qrw(rng, 1, 1)
        pairs.append(("phase", base, rephase_qrw(rng, base)))
    for _ in range(70):
        ns = rng.randint(1, 2)
        pairs.append(("random", random_qrw(rng, 2, ns),
                      random_qrw(rng, 2, ns)))
    for i in range(100):
        base = random_qrw(rng, 2, rng.randint(1, 2))
        kind = plant_cycle[i % 3]
        twin = base
        if kind in ("phase", "both"):
            twin = rephase_qrw(rng, twin)
        if kind in ("perm", "both"):
            twin = permute_qrw_block(rng, twin)
        pairs.append((kind, base, twin))
    for i in range(12):
        base = _qrw_base(rng, 3, 3, dim_cap=4)
        kind = plant_cycle[i % 3]
        twin = rephase_qrw(rng, base) if kind != "perm" else base
        if kind != "phase":
            twin = permute_qrw_block(rng, twin)
        pairs.append((kind, base, twin))
    for i in range(10):
        base = _qrw_base(rng, 3, 2, dim_cap=6)
        kind = plant_cycle[i % 3]
        twin = rephase_qrw(rng, base) if kind != "perm" else base
        if kind != "phase":
            twin = permute_qrw_block(rng, twin)
        pairs.append((kind, base, twin))

    records = []
    for kind, x, y in pairs:
        lr_x, lr_y = compile_model(x), compile_model(y)
        verdict = equivalence.test_equivalence(lr_x, lr_y)
        brute = oracle.brute_equiv(lr_x, lr_y,
                                   verdict.dim_x + verdict.dim_y)
        records.append((kind, lr_x, lr_y, verdict, brute))
    return records


@pytest.fixture(scope="module")
def dim_records():
    """Criterion-3 corpus: (representation, basis, oracle dimension, route)."""
    rng = random.Random(303)
    models = []
    for _ in range(12):
        models.append(random_hmm(rng, rng.randint(1, 4), 1))
    for _ in range(300):
        models.append(random_hmm(rng, rng.randint(1, 4), 2))
    for _ in range(110):
        models.append(random_hmm(rng, rng.randint(1, 3), 3))
    for _ in range(8):
        models.append(random_hmm(rng, 4, 3))
    for _ in range(10):
        models.append(random_qrw(rng, 1, 1))
    for _ in range(50):
        models.append(random_qrw(rng, 2, rng.randint(1, 2)))
    for _ in range(12):
        models.append(random_qrw(rng, 3, rng.randint(2, 3)))

    records = []
    for model in models:
        lr = compile_model(model)
        basis = compute_basis(lr)
        if lr.dimension <= 4:
            reference = oracle.hankel_rank(lr, max_len=lr.dimension)
            route = "hankel"
        else:
            # a literal block at L = 9 is out of reach; span saturation
            # computes the same rank and the block at L = dim cross-checks
            reference = oracle.process_dimension(lr)
            route = "span"
            if basis.dim <= 4:
                assert oracle.hankel_rank(lr, max_len=basis.dim) == basis.dim
        records.append((lr, basis, reference, route))
    return records


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_hmm_oracle_agreement(hmm_results):
    records, elapsed = hmm_results
    disagreements = [r for r in records
                     if r[3].equivalent != r[4].equal_up_to]
    planted = sum(1 for r in records if r[0] != "random")
    ok = not disagreements and len(records) >= 500 and elapsed < 60.0
    _check("HMM oracle agreement", ok,
           f"{len(records)} pairs ({planted} planted), "
           f"{len(records) - len(disagreements)} agree, {elapsed:.1f}s")


def test_criterion_2_qrw_oracle_agreement(qrw_results):
    disagreements = [r for r in qrw_results
                     if r[3].equivalent != r[4].equal_up_to]
    planted = [r for r in qrw_results if r[0] != "random"]
    planted_wrong = [r for r in planted if not r[3].equivalent]
    ok = (not disagreements and not planted_wrong
          and len(qrw_results) >= 200)
    _check("QRW oracle agreement", ok,
           f"{len(qrw_results)} pairs ({len(planted)} planted), "
           f"{len(qrw_results) - len(disagreements)} agree")


def test_criterion_3_dimension_matches_hankel_rank(dim_records):
    wrong = [r for r in dim_records if r[1].dim != r[2]]
    spans = sum(1 for r in dim_records if r[3] == "span")
    ok = not wrong and len(dim_records) >= 500
    _check("dimension vs Hankel rank", ok,
           f"{len(dim_records)} models, {len(dim_records) - len(wrong)} "
           f"match ({spans} via span saturation)")


def test_criterion_4_qualitative_instances():
    one = compile_model(load_corpus_model("constant_a_1state.hmm"))
    two = compile_model(load_corpus_model("constant_a_2state.hmm"))
    verdict = equivalence.test_equivalence(two, one)
    ok = verdict.equivalent and verdict.dim_x == 1 and verdict.dim_y == 1

    rng = random.Random(404)
    trivial = [compile_model(load_corpus_model("trivial_vertex_k2.qrw")),
               compile_model(load_corpus_model("trivial_vertex_k3.qrw")),
               compile_model(random_qrw(rng, 2, 1)),
               compile_model(random_qrw(rng, 3, 1))]
    for i in range(len(trivial)):
        for j in range(i + 1, len(trivial)):
            v = equivalence.test_equivalence(trivial[i], trivial[j])
            ok = ok and v.equivalent and v.dim_x == 1 and v.dim_y == 1

    reflexive = 0
    for name in corpus_names():
        lr = compile_model(load_corpus_model(name))
        v = equivalence.test_equivalence(lr, lr, tolerance=0.0)
        if v.equivalent:
            reflexive += 1
        else:
            ok = False
    _check("qualitative instances + reflexivity", ok,
           f"constant pair dim 1, 6 trivial-walk pairs, "
           f"{reflexive}/{len(corpus_names())} corpus models reflexive")


def test_criterion_5_pfa_acceptance_agreement():
    rng = random.Random(505)
    pairs = []
    for _ in range(100):
        base = random_pfa(rng, rng.randint(1, 3), rng.randint(1, 2))
        pairs.append((base, permute_pfa(rng, base)))
    for _ in range(100):
        ns = rng.randint(1, 2)
        pairs.append((random_pfa(rng, rng.randint(1, 3), ns),
                      random_pfa(rng, rng.randint(1, 3), ns)))

    def words(ns, max_len):
        out = [()]
        frontier = [()]
        for _ in range(max_len):
            frontier = [w + (a,) for w in frontier for a in range(ns)]
            out.extend(frontier)
        return out

    agree = 0
    for x, y in pairs:
        verdict = equivalence.test_equivalence_pfa(x, y)
        same = all(acceptance_probability(x, w) == acceptance_probability(y, w)
                   for w in words(len(x.alphabet.symbols), 6))
        if verdict.equivalent == same:
            agree += 1
    ok = agree == len(pairs) and len(pairs) >= 200
    _check("PFA acceptance equivalence", ok,
           f"{len(pairs)} pairs, {agree} agree (words up to length 6)")


def test_criterion_6_iteration_bound_and_scaling(hmm_results, qrw_results,
                                                 dim_records):
    runs = 0
    for lr, basis, _, _ in dim_records:
        bound = len(lr.alphabet) * lr.dimension + 1
        assert basis.row_iterations <= bound
        runs += 1
    sides = [r[i] for r in hmm_results[0] + qrw_results for i in (1, 2)]
    for name in corpus_names():
        sides.append(compile_model(load_corpus_model(name)))
    for lr in sides:
        bound = len(lr.alphabet) * lr.dimension + 1
        assert compute_basis(lr).row_iterations <= bound
        runs += 1

    rng = random.Random(606)
    timings = []
    for n in (10, 20, 40):
        model = random_dense_float_hmm(rng, n, 2)
        lr = compile_model(model)
        best = min(_timed_basis(lr) for _ in range(3))
        timings.append(best)
        assert best < 30.0, f"n={n} took {best:.2f}s"
    ratios = [timings[i + 1] / max(timings[i], 1e-3)
              for i in range(len(timings) - 1)]
    ok = all(r <= 32.0 for r in ratios)
    _check("iteration bound + scaling smoke", ok,
           f"{runs} runs within |A|*n+1, timings "
           + "/".join(f"{t * 1000:.1f}ms" for t in timings))


def _timed_basis(lr):
    start = time.perf_counter()
    compute_basis(lr)
    return time.perf_counter() - start


def test_criterion_7_structural_invariants(hmm_results, qrw_results,
                                           dim_records):
    rng = random.Random(707)
    reps = [r[0] for r in dim_records]
    reps.extend(r[i] for r in hmm_results[0][:40] + qrw_results[:40]
                for i in (1, 2))

    for lr in reps:
        one = lr.prob(())
        assert one == 1, "empty word must have probability 1"
        fin = lr.backward(()).coords
        summed = [sum(lr.backward((a,)).coords[i]
                      for a in range(len(lr.alphabet)))
                  for i in range(lr.dimension)]
        assert list(fin) == summed, "per-symbol one-step masses must add up"

    for lr in reps:
        _assert_mass_splits(lr, depth=4)

    splits = 0
    for _ in range(150):
        lr = rng.choice(reps)
        ns = len(lr.alphabet)
        word = tuple(rng.randrange(ns) for _ in range(rng.randint(0, 6)))
        cut = rng.randint(0, len(word))
        fv = lr.forward(word[:cut])
        direct = lr.prob(word)
        assert lr.prob_bilinear(fv, None, lr.backward(word[cut:])) == direct
        if cut < len(word):
            bv = lr.backward(word[cut + 1:])
            assert lr.prob_bilinear(fv, word[cut], bv) == direct
        splits += 1

    # every exact "not equivalent" verdict carries a certifying witness
    witnessed = 0
    for kind, lr_x, lr_y, verdict, _ in hmm_results[0] + qrw_results:
        if verdict.equivalent:
            continue
        word = verdict.witness
        assert word is not None, f"{kind} pair: {verdict.reason} without witness"
        px, py = lr_x.prob(word), lr_y.prob(word)
        assert px != py and (px, py) == verdict.details
        witnessed += 1

    _check("structural invariants", True,
           f"{len(reps)} representations, {splits} bilinear splits, "
           f"{witnessed} witnesses certified")


def _assert_mass_splits(lr, depth: int):
    ns = len(lr.alphabet)
    frontier = [lr.forward(())]
    for _ in range(depth):
        nxt = []
        for fv in frontier:
            children = [lr.extend_forward(fv, a) for a in range(ns)]
            total = sum(lr.prob_bilinear(c, None, lr.backward(()))
                        for c in children)
            assert total == lr.prob_bilinear(fv, None, lr.backward(()))
            nxt.extend(children)
        frontier = nxt


def test_criterion_8_deterministic_output():
    runner = CliRunner()
    invocations = []
    for name in corpus_names():
        path = str(CORPUS_DIR / name)
        invocations.append(["dim", path])
        invocations.append(["basis", path])
    for left, right in [("coin.hmm", "biased.hmm"),
                        ("swap.qrw", "identity.qrw"),
                        ("constant_a_2state.hmm", "constant_a_1state.hmm"),
                        ("loop_ab.pfa", "loop_ab_swapped.pfa"),
                        ("half_stop.pfa", "stop_now.pfa"),
                        ("hadamard.qrw", "hadamard.qrw")]:
        invocations.append(["equiv", str(CORPUS_DIR / left),
                            str(CORPUS_DIR / right)])
    checked = 0
    for args in invocations:
        outputs = set()
        for _ in range(3):
            res = runner.invoke(main, args)
            outputs.add((res.exit_code, res.stdout.encode(),
                         res.stderr.encode()))
        assert len(outputs) == 1, f"nondeterministic output for {args}"
        checked += 1
    _check("deterministic output", True,
           f"{checked} invocations, 3 runs each, byte-identical")
