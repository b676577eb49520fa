import json

import pytest
from click.testing import CliRunner

from finitary import cli
from finitary.cli import main
from finitary.model_io import parse_model
from finitary.models import acceptance_probability

from conftest import CORPUS_DIR


@pytest.fixture()
def runner():
    return CliRunner()


def corpus(name: str) -> str:
    return str(CORPUS_DIR / name)


FLOAT_COIN = "kind: hmm\nmode: float\nalphabet: a b\nn: 1\npi: 1.0\nM: 1.0\n" \
             "E: 0.5 0.5\n"
FLOAT_COIN_OFF = FLOAT_COIN.replace("0.5 0.5", "0.5000001 0.4999999")


class TestEquiv:
    def test_equivalent_exact(self, runner):
        res = runner.invoke(main, ["equiv", corpus("constant_a_2state.hmm"),
                                   corpus("constant_a_1state.hmm")])
        assert res.exit_code == 0
        assert res.stdout == "equivalent (exact)\ndim: 1\n"

    def test_not_equivalent_with_witness(self, runner):
        res = runner.invoke(main, ["equiv", corpus("coin.hmm"),
                                   corpus("biased.hmm")])
        assert res.exit_code == 1
        assert res.stdout == ("not equivalent: one-step-mismatch\n"
                              "dims: 1 vs 1\n"
                              "witness: a\n"
                              "left:  1/2\n"
                              "right: 1/3\n")

    def test_dimension_mismatch_prints_witness(self, runner):
        res = runner.invoke(main, ["equiv", corpus("swap.qrw"),
                                   corpus("identity.qrw")])
        assert res.exit_code == 1
        assert res.stdout == ("not equivalent: dimension-mismatch\n"
                              "dims: 2 vs 1\n"
                              "witness: a\n"
                              "left:  0\n"
                              "right: 1\n")

    def test_search_witness_flag(self, runner):
        # removed: every exact difference already comes with a witness
        res = runner.invoke(main, ["equiv", corpus("swap.qrw"),
                                   corpus("identity.qrw"), "--search-witness"])
        assert res.exit_code == 2
        assert "No such option" in res.stderr

    def test_json_schema(self, runner):
        res = runner.invoke(main, ["equiv", corpus("coin.hmm"),
                                   corpus("biased.hmm"), "--format", "json"])
        assert res.exit_code == 1
        payload = json.loads(res.stdout)
        assert list(payload) == ["equivalent", "reason", "dim_x", "dim_y",
                                 "i_size", "j_size", "witness", "values",
                                 "mode", "tolerance"]
        assert payload["equivalent"] is False
        assert payload["reason"] == "one-step-mismatch"
        assert payload["witness"] == "a"
        assert payload["values"] == ["1/2", "1/3"]
        assert payload["mode"] == "exact"
        assert payload["tolerance"] is None

    def test_pfa_pair_notice_and_verdict(self, runner):
        res = runner.invoke(main, ["equiv", corpus("loop_ab.pfa"),
                                   corpus("loop_ab_swapped.pfa")])
        # acceptance series are compared directly: no stop-symbol note
        assert res.exit_code == 0
        assert res.stderr == ""
        assert res.stdout == "equivalent (exact)\ndim: 2\n"

    def test_mode_mismatch(self, runner):
        res = runner.invoke(main, ["equiv", corpus("coin.hmm"),
                                   corpus("hadamard.qrw")])
        assert res.exit_code == 2
        assert res.stderr == "error: scalar mode mismatch\n"

    def test_internal_error_exits_2(self, runner, monkeypatch):
        # exit 1 means "not equivalent"; a fault must not look like one
        def broken(*args):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "test_equivalence", broken)
        res = runner.invoke(main, ["equiv", corpus("coin.hmm"),
                                   corpus("biased.hmm")])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr == "error: internal error: RuntimeError: boom\n"

    def test_missing_file(self, runner):
        res = runner.invoke(main, ["equiv", corpus("coin.hmm"), "no_such"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error:")

    def test_float_tolerance_flag(self, runner, tmp_path):
        a = tmp_path / "a.hmm"
        b = tmp_path / "b.hmm"
        a.write_text(FLOAT_COIN)
        b.write_text(FLOAT_COIN_OFF)
        strict = runner.invoke(main, ["equiv", str(a), str(b)])
        assert strict.exit_code == 1
        loose = runner.invoke(main, ["equiv", str(a), str(b),
                                     "--tolerance", "1e-3"])
        assert loose.exit_code == 0
        assert loose.stdout == "equivalent within tolerance 0.001\ndim: 1\n"

    def test_tolerance_env_var(self, runner, tmp_path):
        a = tmp_path / "a.hmm"
        b = tmp_path / "b.hmm"
        a.write_text(FLOAT_COIN)
        b.write_text(FLOAT_COIN_OFF)
        res = runner.invoke(main, ["equiv", str(a), str(b)],
                            env={"FINITARY_TOLERANCE": "1e-3"})
        assert res.exit_code == 0


def pfa_text(pi, final, moves):
    """A two-symbol automaton file; ``moves`` maps a symbol to its rows."""
    lines = ["kind: pfa", "mode: exact", "alphabet: a b",
             f"n: {len(pi.split())}", f"pi: {pi}", f"F: {final}"]
    for symbol in "ab":
        lines.append(f"Ma {symbol}:")
        lines.extend(moves[symbol])
    return "\n".join(lines) + "\n"


# never stop: the acceptance series of both is zero
LOOP_A = pfa_text("1", "0", {"a": ["1"], "b": ["0"]})
LOOP_B = pfa_text("1", "0", {"a": ["0"], "b": ["1"]})
# both accept only the empty word, with probability 1/2; the non-accepting
# halves emit different streams, so their stop-symbol processes differ
HALF_LOOP_A = pfa_text("1/2 1/2", "1 0",
                       {"a": ["0 0", "0 1"], "b": ["0 0", "0 0"]})
HALF_CYCLE_AB = pfa_text("1/2 1/2 0", "1 0 0",
                         {"a": ["0 0 0", "0 0 1", "0 0 0"],
                          "b": ["0 0 0", "0 0 0", "0 1 0"]})
# stop with 1/2 after any word of a's and b's, each read with 1/4 ...
QUARTER_STEPS = pfa_text("1", "1/2", {"a": ["1/4"], "b": ["1/4"]})
# ... but in the second, reading b also leads to a state that never stops
QUARTER_THEN_TRAP = pfa_text("1 0", "1/2 0",
                             {"a": ["1/4 0", "0 0"], "b": ["0 1/4", "0 1"]})


class TestPfaAcceptance:
    def equiv(self, runner, tmp_path, x_text, y_text):
        x, y = tmp_path / "x.pfa", tmp_path / "y.pfa"
        x.write_text(x_text)
        y.write_text(y_text)
        return runner.invoke(main, ["equiv", str(x), str(y),
                                    "--format", "json"])

    def test_never_stopping_pair_is_equivalent(self, runner, tmp_path):
        res = self.equiv(runner, tmp_path, LOOP_A, LOOP_B)
        assert res.exit_code == 0, res.output
        payload = json.loads(res.stdout)
        assert payload["equivalent"] is True
        assert (payload["dim_x"], payload["dim_y"]) == (0, 0)

    def test_equal_acceptance_with_different_streams(self, runner, tmp_path):
        for x, y in ((HALF_LOOP_A, HALF_CYCLE_AB), (HALF_CYCLE_AB, HALF_LOOP_A)):
            res = self.equiv(runner, tmp_path, x, y)
            assert res.exit_code == 0, res.output
            assert json.loads(res.stdout)["equivalent"] is True

    def test_partially_stopping_witness_certifies(self, runner, tmp_path):
        res = self.equiv(runner, tmp_path, QUARTER_STEPS, QUARTER_THEN_TRAP)
        assert res.exit_code == 1, res.output
        payload = json.loads(res.stdout)
        x, y = parse_model(QUARTER_STEPS), parse_model(QUARTER_THEN_TRAP)
        word = x.alphabet.parse_word(payload["witness"])
        px, py = acceptance_probability(x, word), acceptance_probability(y, word)
        assert px != py
        assert payload["values"] == [str(px), str(py)]


class TestDimAndBasis:
    def test_dim(self, runner):
        res = runner.invoke(main, ["dim", corpus("swap.qrw")])
        assert res.exit_code == 0
        assert res.stdout == "2\n"

    def test_dim_json(self, runner):
        res = runner.invoke(main, ["dim", corpus("swap.qrw"),
                                   "--format", "json"])
        assert json.loads(res.stdout) == {"dim": 2}

    def test_basis_text(self, runner):
        res = runner.invoke(main, ["basis", corpus("padded_3state.hmm")])
        assert res.exit_code == 0
        assert res.stdout == ("dim: 2\n"
                              "rows (I): □ a\n"
                              "cols (J): □ a\n"
                              "block:\n"
                              "  1 1/2\n"
                              "  1/2 1/2\n")

    def test_basis_json(self, runner):
        res = runner.invoke(main, ["basis", corpus("padded_3state.hmm"),
                                   "--format", "json"])
        payload = json.loads(res.stdout)
        assert payload == {
            "dim": 2,
            "row_words": ["□", "a"],
            "col_words": ["□", "a"],
            "matrix": [["1", "1/2"], ["1/2", "1/2"]],
        }


class TestProb:
    def test_exact(self, runner):
        res = runner.invoke(main, ["prob", corpus("coin.hmm"), "ab"])
        assert res.stdout == "1/4\n"

    def test_decimal(self, runner):
        res = runner.invoke(main, ["prob", corpus("coin.hmm"), "ab",
                                   "--decimal"])
        assert res.stdout == "1/4 ≈ 0.25\n"

    def test_empty_word_forms(self, runner):
        for word in ("", "□"):
            res = runner.invoke(main, ["prob", corpus("coin.hmm"), word])
            assert res.stdout == "1\n"

    def test_pfa_stop_word_with_notice(self, runner):
        res = runner.invoke(main, ["prob", corpus("half_stop.pfa"), "a$"])
        assert res.exit_code == 0
        assert res.stdout == "1/4\n"
        assert "reduced over its alphabet plus the stop symbol" in res.stderr

    def test_unknown_symbol(self, runner):
        res = runner.invoke(main, ["prob", corpus("coin.hmm"), "xyz"])
        assert res.exit_code == 2
        assert "unknown symbol" in res.stderr

    def test_json(self, runner):
        res = runner.invoke(main, ["prob", corpus("coin.hmm"), "ab",
                                   "--decimal", "--format", "json"])
        assert json.loads(res.stdout) == {"word": "ab", "prob": "1/4",
                                          "decimal": 0.25}


class TestOracle:
    def test_single_model_table(self, runner):
        res = runner.invoke(main, ["oracle", corpus("coin.hmm"), "-L", "1"])
        assert res.exit_code == 0
        assert res.stdout == "□ 1\na 1/2\nb 1/2\n"

    def test_pair_equal(self, runner):
        res = runner.invoke(main, ["oracle", corpus("loop_ab.pfa"),
                                   corpus("loop_ab_swapped.pfa"), "-L", "5"])
        assert res.exit_code == 0
        assert res.stdout == "equal on all words up to length 5\n"

    def test_pair_differs(self, runner):
        res = runner.invoke(main, ["oracle", corpus("coin.hmm"),
                                   corpus("biased.hmm")])
        assert res.exit_code == 1
        assert res.stdout == "differs at a: 1/2 vs 1/3\n"

    def test_budget_error(self, runner):
        res = runner.invoke(main, ["oracle", corpus("coin.hmm"),
                                   "-L", "10", "--budget", "100"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error:")

    def test_negative_length_rejected(self, runner):
        res = runner.invoke(main, ["oracle", corpus("coin.hmm"), "-L", "-1"])
        assert res.exit_code == 2
        assert res.stdout == ""

    def test_three_files_rejected(self, runner):
        res = runner.invoke(main, ["oracle", corpus("coin.hmm"),
                                   corpus("coin.hmm"), corpus("coin.hmm")])
        assert res.exit_code == 2
        assert "one or two" in res.stderr


class TestValidate:
    def test_ok(self, runner):
        res = runner.invoke(main, ["validate", corpus("coin.hmm")])
        assert res.exit_code == 0
        assert res.stdout == "ok\n"

    def test_invalid_lists_violations(self, runner, tmp_path):
        bad = tmp_path / "bad.hmm"
        bad.write_text("kind: hmm\nmode: exact\nalphabet: a\nn: 1\n"
                       "pi: 1/2\nM: 1\nE: 1\n")
        res = runner.invoke(main, ["validate", str(bad)])
        assert res.exit_code == 2
        assert res.stdout == "pi sums to 1/2\n"

    def test_invalid_json(self, runner, tmp_path):
        bad = tmp_path / "bad.hmm"
        bad.write_text("kind: hmm\nmode: exact\nalphabet: a\nn: 1\n"
                       "pi: 1/2\nM: 1\nE: 1\n")
        res = runner.invoke(main, ["validate", str(bad), "--format", "json"])
        assert res.exit_code == 2
        assert json.loads(res.stdout) == {"ok": False,
                                          "violations": ["pi sums to 1/2"]}

    def test_syntax_error_reported(self, runner, tmp_path):
        bad = tmp_path / "bad.hmm"
        bad.write_text("kind: nope\n")
        res = runner.invoke(main, ["validate", str(bad)])
        assert res.exit_code == 2
        assert "unknown kind" in res.stderr


def test_repeated_runs_are_byte_identical(runner):
    invocations = [
        ["equiv", corpus("coin.hmm"), corpus("biased.hmm")],
        ["equiv", corpus("swap.qrw"), corpus("identity.qrw"),
         "--format", "json"],
        ["basis", corpus("loop_ab.pfa")],
        ["oracle", corpus("swap.qrw"), "-L", "3"],
    ]
    for args in invocations:
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output, args
        assert first.exit_code == second.exit_code
