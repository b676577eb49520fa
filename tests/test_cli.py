import contextlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time

import pytest
from click.testing import CliRunner

from finitary import cli
from finitary.cli import main
from finitary.model_io import parse_model, serialize_model
from finitary.scalars import format_scalar

import generators as g
from conftest import CORPUS_DIR, corpus_names


@pytest.fixture()
def runner():
    return CliRunner()


def corpus(name: str) -> str:
    return str(CORPUS_DIR / name)


FLOAT_COIN = "kind: hmm\nmode: float\nalphabet: a b\nn: 1\npi: 1.0\nM: 1.0\n" \
             "E: 0.5 0.5\n"
FLOAT_COIN_OFF = FLOAT_COIN.replace("0.5 0.5", "0.5000001 0.4999999")
FLOAT_ALWAYS_A = FLOAT_COIN.replace("0.5 0.5", "1 0")
FLOAT_ALWAYS_B = FLOAT_COIN.replace("0.5 0.5", "0 1")


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

    def test_automaton_against_other_class_rejected(self, runner):
        # an automaton gives acceptance probabilities, the others word
        # probabilities of a process: the two are not comparable
        for pair in (("half_stop.pfa", "coin.hmm"), ("coin.hmm", "half_stop.pfa"),
                     ("swap.qrw", "loop_ab.pfa")):
            res = runner.invoke(main, ["equiv", *map(corpus, pair)])
            assert res.exit_code == 2, pair
            assert res.stdout == ""
            assert res.stderr == ("error: cannot compare an automaton with a "
                                  "hidden Markov model or quantum walk\n")

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

    def test_float_values_at_the_tolerance_are_equal(self, runner, tmp_path):
        # |0.5 - 0.75| is exactly 0.25: a float difference up to the
        # tolerance, inclusive, is no difference
        a = tmp_path / "a.hmm"
        b = tmp_path / "b.hmm"
        a.write_text(FLOAT_COIN)
        b.write_text(FLOAT_COIN.replace("0.5 0.5", "0.75 0.25"))
        at = runner.invoke(main, ["equiv", str(a), str(b),
                                  "--tolerance", "0.25"])
        assert at.exit_code == 0
        assert at.stdout == "equivalent within tolerance 0.25\ndim: 1\n"
        below = runner.invoke(main, ["equiv", str(a), str(b),
                                     "--tolerance", "0.2499999"])
        assert below.exit_code == 1
        assert below.stdout == ("not equivalent: one-step-mismatch\n"
                                "dims: 1 vs 1\nwitness: a\n"
                                "left:  0.5\nright: 0.75\n")

    def test_tolerance_env_var(self, runner, tmp_path):
        a = tmp_path / "a.hmm"
        b = tmp_path / "b.hmm"
        a.write_text(FLOAT_COIN)
        b.write_text(FLOAT_COIN_OFF)
        res = runner.invoke(main, ["equiv", str(a), str(b)],
                            env={"FINITARY_TOLERANCE": "1e-3"})
        assert res.exit_code == 0

    def test_float_witness_zero_is_a_float(self, runner, tmp_path):
        a = tmp_path / "a.hmm"
        b = tmp_path / "b.hmm"
        a.write_text(FLOAT_ALWAYS_A)
        b.write_text(FLOAT_ALWAYS_B)
        res = runner.invoke(main, ["equiv", str(a), str(b)])
        assert res.exit_code == 1
        assert res.stdout.endswith("witness: a\nleft:  1.0\nright: 0.0\n")
        res = runner.invoke(main, ["equiv", str(a), str(b),
                                   "--format", "json"])
        assert json.loads(res.stdout)["values"] == ["1.0", "0.0"]


class TestToleranceValue:
    """A tolerance must be finite and >= 0, however it is given: NaN made
    every float comparison pass, a negative one crashed the row scan and
    an infinite one gave dimension 0."""

    COMMANDS = {
        "equiv": ["equiv", corpus("hadamard.qrw"), corpus("hadamard.qrw")],
        "dim": ["dim", corpus("hadamard.qrw")],
        "basis": ["basis", corpus("hadamard.qrw")],
        "oracle": ["oracle", corpus("hadamard.qrw")],
        "validate": ["validate", corpus("hadamard.qrw")],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_flag_rejected(self, runner, command, value):
        res = runner.invoke(main, self.COMMANDS[command]
                            + ["--tolerance", value])
        assert res.exit_code == 2
        assert res.stdout == ""
        assert "Invalid value for '--tolerance': must be a finite number " \
               ">= 0" in res.stderr

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_env_var_rejected(self, runner, command, value):
        res = runner.invoke(main, self.COMMANDS[command],
                            env={"FINITARY_TOLERANCE": value})
        assert res.exit_code == 2
        assert res.stdout == ""
        # the error names the variable, not a flag the user never gave
        assert "Invalid value for environment variable FINITARY_TOLERANCE: " \
               "must be a finite number >= 0" in res.stderr

    def test_env_var_not_a_number(self, runner):
        res = runner.invoke(main, self.COMMANDS["dim"],
                            env={"FINITARY_TOLERANCE": "abc"})
        assert res.exit_code == 2
        assert "Invalid value for environment variable FINITARY_TOLERANCE: " \
               "'abc' is not a valid float" in res.stderr

    @pytest.fixture
    def coin(self, tmp_path):
        """A float model valid at tolerance 0: its entries are dyadic, so
        its rows sum to exactly 1.  The Hadamard walk's entries are unitary
        only up to rounding, and every command validates under the
        tolerance it is given."""
        path = tmp_path / "coin.hmm"
        path.write_text(FLOAT_COIN)
        return str(path)

    def test_flag_overrides_a_bad_env_var(self, runner, coin):
        res = runner.invoke(main, ["dim", coin, "--tolerance", "0"],
                            env={"FINITARY_TOLERANCE": "nan"})
        assert res.exit_code == 0
        res = runner.invoke(main, ["dim", coin, "--tolerance", "-1"],
                            env={"FINITARY_TOLERANCE": "0"})
        assert "Invalid value for '--tolerance'" in res.stderr

    def test_zero_accepted(self, runner, coin):
        res = runner.invoke(main, ["equiv", coin, coin, "--tolerance", "0"])
        assert res.exit_code == 0
        assert res.stdout == "equivalent within tolerance 0.0\ndim: 1\n"
        res = runner.invoke(main, ["dim", coin],
                            env={"FINITARY_TOLERANCE": "0"})
        assert res.stdout == "1\n"
        res = runner.invoke(main, self.COMMANDS["dim"] + ["--tolerance", "0"])
        assert res.exit_code == 2
        assert "invalid model: unitarity violated" in res.stderr


class TestToleranceOnLoad:
    """Every command with a tolerance validates its model files under it:
    a float file whose pi sums to 1.000001 is invalid at the default and
    valid at 1e-3, given by flag or by environment variable.  ``prob`` has
    no tolerance option and loads at the default."""

    COMMANDS = ("equiv", "dim", "basis", "oracle", "validate")

    @pytest.fixture
    def loose(self, tmp_path):
        path = tmp_path / "loose.hmm"
        path.write_text(FLOAT_COIN.replace("pi: 1.0", "pi: 1.000001"))
        return str(path)

    @staticmethod
    def args(command, path):
        return [command, path, path] if command == "equiv" else [command, path]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_rejects(self, runner, loose, command):
        res = runner.invoke(main, self.args(command, loose))
        assert res.exit_code == 2
        assert "pi sums to 1.000001" in res.stdout + res.stderr

    @pytest.mark.parametrize("command", COMMANDS)
    def test_flag_accepts(self, runner, loose, command):
        res = runner.invoke(main, self.args(command, loose)
                            + ["--tolerance", "1e-3"])
        assert res.exit_code == 0, res.stderr

    @pytest.mark.parametrize("command", COMMANDS)
    def test_env_var_accepts(self, runner, loose, command):
        res = runner.invoke(main, self.args(command, loose),
                            env={"FINITARY_TOLERANCE": "1e-3"})
        assert res.exit_code == 0, res.stderr

    def test_prob_loads_at_the_default(self, runner, loose):
        res = runner.invoke(main, ["prob", loose, "a"],
                            env={"FINITARY_TOLERANCE": "1e-3"})
        assert res.exit_code == 2
        assert "invalid model: pi sums to 1.000001" in res.stderr


class TestModuleEntry:
    """``python -m finitary.cli`` runs the command line, exit codes and all."""

    def run(self, *args):
        env = {**os.environ, "PYTHONPATH": str(CORPUS_DIR.parent / "src")}
        return subprocess.run([sys.executable, "-m", "finitary.cli", *args],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    def test_differing_pair_exits_1(self):
        done = self.run("equiv", corpus("coin.hmm"), corpus("biased.hmm"))
        assert done.returncode == 1
        assert done.stdout.startswith("not equivalent: one-step-mismatch\n")

    def test_invalid_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.hmm"
        bad.write_text("kind: hmm\nmode: exact\nalphabet: a\nn: 1\n"
                       "pi: 1/2\nM: 1\nE: 1\n")
        done = self.run("validate", str(bad))
        assert done.returncode == 2
        assert done.stdout == "pi sums to 1/2\n"

    @pytest.mark.parametrize("args", [
        ["equiv", corpus("loop_ab.pfa"), corpus("loop_ab_swapped.pfa"),
         "--format", "json"],
        ["equiv", corpus("identity.qrw"), corpus("swap.qrw"),
         "--format", "json"],
        ["equiv", corpus("swap.qrw"), corpus("identity.qrw"),
         "--format", "json"],
        ["basis", corpus("swap.qrw")],
    ], ids=["pfa", "qrw", "qrw-swapped", "basis"])
    def test_same_bytes_under_every_hash_seed(self, args):
        # acceptance criterion 8 across launches: set and dict orders
        # change with the hash seed, which one process never sees change
        outputs = set()
        for seed in ("0", "1", "4242"):
            env = {**os.environ, "PYTHONPATH": str(CORPUS_DIR.parent / "src"),
                   "PYTHONHASHSEED": seed}
            done = subprocess.run(
                [sys.executable, "-m", "finitary.cli", *args],
                capture_output=True, env=env, timeout=120)
            outputs.add((done.returncode, done.stdout, done.stderr))
        assert len(outputs) == 1, outputs

    # model files and WORD are UTF-8 whatever the locale: the cases below
    # run under an ASCII locale and compare bytes
    GREEK = ("kind: hmm\nmode: exact\nalphabet: α β\nn: 1\npi: 1\nM: 1\n"
             "E: 1/3 2/3\n")

    def python_ascii(self, *args):
        env = {**os.environ, "PYTHONPATH": str(CORPUS_DIR.parent / "src"),
               "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        return subprocess.run([sys.executable, *args], capture_output=True,
                              env=env, timeout=120)

    def run_ascii(self, *args):
        return self.python_ascii("-m", "finitary.cli", *args)

    def test_symbols_outside_ascii(self, tmp_path):
        greek = tmp_path / "greek.hmm"
        greek.write_bytes(self.GREEK.encode("utf-8"))
        done = self.run_ascii("validate", str(greek))
        assert (done.returncode, done.stdout, done.stderr) == (0, b"ok\n", b"")
        done = self.run_ascii("prob", str(greek), "βα".encode("utf-8"))
        assert (done.returncode, done.stdout, done.stderr) == (0, b"2/9\n", b"")

    def test_empty_word_glyph(self):
        done = self.run_ascii("prob", corpus("coin.hmm"), "□".encode("utf-8"))
        assert (done.returncode, done.stdout, done.stderr) == (0, b"1\n", b"")

    def test_word_given_in_process(self):
        # a caller's str is taken as it is, even where the locale cannot
        # encode it
        done = self.python_ascii(
            "-c", "from click.testing import CliRunner\n"
            "from finitary.cli import main\n"
            f"res = CliRunner().invoke(main, ['prob', {corpus('coin.hmm')!r}, "
            "'\\u25a1'])\n"
            "print(res.exit_code, repr(res.output))\n")
        assert (done.returncode, done.stdout) == (0, b"0 '1\\n'\n")

    def test_word_not_utf8(self):
        done = self.run_ascii("prob", corpus("coin.hmm"), b"a\xff")
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.startswith(b"error: WORD is not UTF-8 text (")

    def test_file_not_utf8(self, tmp_path):
        latin1 = tmp_path / "latin1.hmm"
        latin1.write_bytes(b"# caf\xe9\n"
                           + (CORPUS_DIR / "coin.hmm").read_bytes())
        done = self.run_ascii("validate", str(latin1))
        assert done.returncode == 2
        assert done.stdout == b""
        assert done.stderr.startswith(
            f"error: {latin1}: not UTF-8 text (".encode())
        assert b"internal error" not in done.stderr

    def test_byte_order_mark_ignored(self, tmp_path):
        marked = tmp_path / "marked.hmm"
        marked.write_bytes(b"\xef\xbb\xbf" + self.GREEK.encode("utf-8"))
        done = self.run_ascii("dim", str(marked))
        assert (done.returncode, done.stdout, done.stderr) == (0, b"1\n", b"")


class TestReorderedAlphabet:
    """A pair whose alphabets list the same symbols in another order is
    compared symbol by symbol, and reported in the first file's alphabet."""

    MODELS = {"hmm": lambda rng: g.random_hmm(rng, 3, 2),
              "qrw": lambda rng: g.random_qrw(rng, 3, 2),
              "pfa": lambda rng: g.random_pfa(rng, 3, 2)}

    def write(self, tmp_path, name, model):
        path = tmp_path / name
        path.write_text(serialize_model(model))
        return str(path)

    @pytest.mark.parametrize("kind", sorted(MODELS))
    @pytest.mark.parametrize("command", ["equiv", "oracle"])
    def test_reordered_copy_is_equivalent(self, runner, tmp_path, kind,
                                          command):
        model = self.MODELS[kind](random.Random(3))
        x = self.write(tmp_path, "x", model)
        y = self.write(tmp_path, "y", g.reverse_alphabet(model))
        res = runner.invoke(main, [command, x, y])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("kind", sorted(MODELS))
    @pytest.mark.parametrize("command", [["equiv"], ["oracle", "-L", "3"]])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_differing_pair_reports_as_in_one_order(self, runner, tmp_path,
                                                    kind, command, fmt):
        rng = random.Random(4)
        model_x, model_y = self.MODELS[kind](rng), self.MODELS[kind](rng)
        x = self.write(tmp_path, "x", model_x)
        y = self.write(tmp_path, "y", model_y)
        y_reordered = self.write(tmp_path, "y_ba", g.reverse_alphabet(model_y))
        plain = runner.invoke(main, [*command, x, y, "--format", fmt])
        reordered = runner.invoke(main, [*command, x, y_reordered,
                                         "--format", fmt])
        assert plain.exit_code == 1, plain.output
        assert (reordered.exit_code, reordered.stdout, reordered.stderr) == \
            (plain.exit_code, plain.stdout, plain.stderr)


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
        px = g.acceptance_probability(x, word)
        py = g.acceptance_probability(y, word)
        assert px != py
        assert payload["values"] == [str(px), str(py)]

    def test_every_command_agrees_with_equiv(self, runner, tmp_path):
        # dim, basis, prob and oracle read an automaton by the acceptance
        # series that equiv compares, and print no note about it
        texts = [(CORPUS_DIR / name).read_text() for name in corpus_names()
                 if name.endswith(".pfa")]
        rng = random.Random(6)
        texts += [serialize_model(g.random_pfa(rng, n, ns))
                  for n, ns in ((1, 1), (2, 2), (3, 3), (4, 2))]
        texts += [LOOP_A, QUARTER_THEN_TRAP]  # never stops; stops partly
        for index, text in enumerate(texts):
            path = tmp_path / f"m{index}.pfa"
            path.write_text(text)
            pfa = parse_model(text)

            def call(*args):
                res = runner.invoke(main, [args[0], str(path), *args[1:]])
                assert res.exit_code == 0 and res.stderr == "", (text, args)
                return res.stdout

            dim = json.loads(call("equiv", str(path), "--format",
                                  "json"))["dim_x"]
            assert call("dim") == f"{dim}\n", text
            assert json.loads(call("basis", "--format", "json"))["dim"] == dim
            table = json.loads(call("oracle", "-L", "3", "--format",
                                    "json"))["entries"]
            words = [w for t in range(4) for w in
                     itertools.product(range(len(pfa.alphabet)), repeat=t)]
            assert len(table) == len(words)
            for word in words:
                text_word = pfa.alphabet.format_word(word)
                want = format_scalar(g.acceptance_probability(pfa, word))
                assert call("prob", text_word) == want + "\n", (text, word)
                assert table[text_word] == want, (text, word)

    def test_dollar_is_an_ordinary_symbol(self, runner, tmp_path):
        x, y = tmp_path / "x.pfa", tmp_path / "y.pfa"
        head = "kind: pfa\nmode: exact\nalphabet: a $\nn: 1\npi: 1\nF: 1/2\n"
        x.write_text(head + "Ma a: 1/4\nMa $: 1/4\n")
        y.write_text(head + "Ma a: 1/2\nMa $: 0\n")
        res = runner.invoke(main, ["prob", str(x), "a$$"])
        assert (res.exit_code, res.stdout) == (0, "1/128\n")
        res = runner.invoke(main, ["equiv", str(x), str(x)])
        assert (res.exit_code, res.stdout) == (0, "equivalent (exact)\ndim: 1\n")
        res = runner.invoke(main, ["equiv", str(x), str(y)])
        assert res.exit_code == 1
        assert res.stdout == ("not equivalent: one-step-mismatch\n"
                              "dims: 1 vs 1\n"
                              "witness: a\n"
                              "left:  1/8\n"
                              "right: 1/4\n")


class TestFloatRowChoice:
    """Dense float HMMs on which a second tolerance judgement of the block
    rows, apart from the column scan's, used to disagree with it and end in
    an internal error."""

    @pytest.mark.parametrize("n, seed", [(6, 11), (8, 22), (10, 2)])
    def test_permuted_copy_is_equivalent(self, runner, tmp_path, n, seed):
        hmm = g.random_dense_float_hmm(random.Random(seed), n, 2)
        x, y = tmp_path / "x.hmm", tmp_path / "y.hmm"
        x.write_text(serialize_model(hmm))
        y.write_text(serialize_model(g.permute_hmm(random.Random(seed), hmm)))
        res = runner.invoke(main, ["equiv", str(x), str(y),
                                   "--format", "json"])
        assert res.exit_code == 0, res.output
        payload = json.loads(res.stdout)
        assert payload["equivalent"] is True
        assert payload["dim_x"] == payload["dim_y"] == n
        res = runner.invoke(main, ["basis", str(x), "--format", "json"])
        assert res.exit_code == 0, res.output
        assert len(json.loads(res.stdout)["row_words"]) == n


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

    def test_float_block_zero_is_a_float(self, runner, tmp_path):
        # a then b, alternating: p(a a) = 0 sits in the block
        path = tmp_path / "ab.hmm"
        path.write_text("kind: hmm\nmode: float\nalphabet: a b\nn: 2\n"
                        "pi: 1.0 0.0\nM: 0.0 1.0 1.0 0.0\n"
                        "E: 1.0 0.0 0.0 1.0\n")
        res = runner.invoke(main, ["basis", str(path)])
        assert res.stdout.endswith("block:\n  1.0 1.0\n  1.0 0.0\n")


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

    def test_pfa_acceptance_probability(self, runner):
        res = runner.invoke(main, ["prob", corpus("half_stop.pfa"), "a"])
        assert res.exit_code == 0
        assert res.stdout == "1/4\n"
        assert res.stderr == ""
        res = runner.invoke(main, ["prob", corpus("half_stop.pfa"), "a$"])
        assert res.exit_code == 2
        assert "unknown symbol" in res.stderr

    def test_float_zero_is_a_float(self, runner, tmp_path):
        path = tmp_path / "a.hmm"
        path.write_text(FLOAT_ALWAYS_A)
        res = runner.invoke(main, ["prob", str(path), "b"])
        assert res.stdout == "0.0\n"

    def test_unknown_symbol(self, runner):
        res = runner.invoke(main, ["prob", corpus("coin.hmm"), "xyz"])
        assert res.exit_code == 2
        assert "unknown symbol" in res.stderr

    def test_json(self, runner):
        res = runner.invoke(main, ["prob", corpus("coin.hmm"), "ab",
                                   "--decimal", "--format", "json"])
        assert json.loads(res.stdout) == {"word": "ab", "prob": "1/4",
                                          "decimal": 0.25}

    def test_a_value_beyond_the_digit_cap(self, runner):
        # (1/3)**9500 has a 4533-digit denominator, past Python's default
        # cap of 4300 digits for int -> str; the caller's cap is restored
        cap = getattr(sys, "get_int_max_str_digits", lambda: None)()
        res = runner.invoke(main, ["prob", corpus("biased.hmm"), "a" * 9500])
        assert (res.exit_code, res.stderr) == (0, "")
        num, den = res.stdout.rstrip("\n").split("/")
        assert num == "1" and len(den) == 4533
        assert int(den[:200]) == 3 ** 9500 // 10 ** (4533 - 200)
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == cap


class TestOracle:
    def test_single_model_table(self, runner):
        res = runner.invoke(main, ["oracle", corpus("coin.hmm"), "-L", "1"])
        assert res.exit_code == 0
        assert res.stdout == "□ 1\na 1/2\nb 1/2\n"

    def test_float_table_zero_is_a_float(self, runner, tmp_path):
        path = tmp_path / "a.hmm"
        path.write_text(FLOAT_ALWAYS_A)
        res = runner.invoke(main, ["oracle", str(path), "-L", "1"])
        assert res.stdout == "□ 1.0\na 1.0\nb 0.0\n"

    def test_table_longer_than_the_recursion_limit(self, runner, tmp_path):
        # one state, one symbol: 1201 words, far inside the budget
        path = tmp_path / "one.hmm"
        path.write_text("kind: hmm\nmode: exact\nalphabet: a\nn: 1\n"
                        "pi: 1\nM: 1\nE: 1\n")
        res = runner.invoke(main, ["oracle", str(path), "-L", "1200",
                                   "--format", "json"])
        assert res.exit_code == 0, res.output
        entries = json.loads(res.stdout)["entries"]
        assert len(entries) == 1201
        assert set(entries.values()) == {"1"}
        res = runner.invoke(main, ["oracle", str(path), str(path),
                                   "-L", "1200"])
        assert res.exit_code == 0, res.output
        assert res.stdout == "equal on all words up to length 1200\n"

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

    def test_automata_compared_by_acceptance(self, runner, tmp_path):
        # equal acceptance probabilities, different stop-symbol processes:
        # the oracle agrees with equiv and prints no stop-symbol note
        x, y = tmp_path / "x.pfa", tmp_path / "y.pfa"
        x.write_text(HALF_LOOP_A)
        y.write_text(HALF_CYCLE_AB)
        res = runner.invoke(main, ["oracle", str(x), str(y), "-L", "3"])
        assert res.exit_code == 0, res.output
        assert res.stdout == "equal on all words up to length 3\n"
        assert res.stderr == ""

    def test_automata_witness_is_an_acceptance_difference(self, runner,
                                                           tmp_path):
        x, y = tmp_path / "x.pfa", tmp_path / "y.pfa"
        x.write_text(QUARTER_STEPS)
        y.write_text(QUARTER_THEN_TRAP)
        res = runner.invoke(main, ["oracle", str(x), str(y), "-L", "2"])
        assert res.exit_code == 1, res.output
        assert res.stdout == "differs at b: 1/8 vs 0\n"
        assert res.stderr == ""

    def test_automaton_against_other_class_rejected(self, runner):
        for pair in (("half_stop.pfa", "coin.hmm"), ("coin.hmm", "half_stop.pfa")):
            res = runner.invoke(main, ["oracle", *map(corpus, pair)])
            assert res.exit_code == 2, pair
            assert res.stdout == ""
            assert res.stderr == ("error: cannot compare an automaton with a "
                                  "hidden Markov model or quantum walk\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_pair_mismatches_rejected(self, runner, tmp_path, fmt):
        renamed = tmp_path / "renamed.hmm"
        renamed.write_text((CORPUS_DIR / "coin.hmm").read_text()
                           .replace("alphabet: a b", "alphabet: x y"))
        for other, message in ((str(renamed), "alphabet mismatch"),
                               (corpus("hadamard.qrw"),
                                "scalar mode mismatch")):
            res = runner.invoke(main, ["oracle", corpus("coin.hmm"), other,
                                       "--format", fmt])
            assert res.exit_code == 2, message
            assert res.stdout == ""
            assert res.stderr == f"error: {message}\n"

    def test_budget_error(self, runner):
        res = runner.invoke(main, ["oracle", corpus("coin.hmm"),
                                   "-L", "10", "--budget", "100"])
        assert res.exit_code == 2
        assert res.stderr.startswith("error:")

    @pytest.mark.parametrize("model, length", [
        ("coin.hmm", 20000), ("coin.hmm", 60000), ("one state", 30000000)])
    def test_a_refusal_past_the_budget_is_quick(self, runner, tmp_path,
                                                 model, length):
        # the exact count of words up to 20000 has over 6000 digits
        if model == "one state":
            path = tmp_path / "one.hmm"
            path.write_text("kind: hmm\nmode: exact\nalphabet: a\nn: 1\n"
                            "pi: 1\nM: 1\nE: 1\n")
        else:
            path = corpus(model)
        start = time.perf_counter()
        res = runner.invoke(main, ["oracle", str(path), "-L", str(length)])
        elapsed = time.perf_counter() - start
        assert res.exit_code == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: probability table needs ")
        assert res.stderr.endswith(" entries, budget is 1000000\n")
        assert elapsed < 1.0

    def test_negative_length_rejected(self, runner):
        res = runner.invoke(main, ["oracle", corpus("coin.hmm"), "-L", "-1"])
        assert res.exit_code == 2
        assert res.stdout == ""

    def test_three_files_rejected(self, runner):
        res = runner.invoke(main, ["oracle", corpus("coin.hmm"),
                                   corpus("coin.hmm"), corpus("coin.hmm")])
        assert res.exit_code == 2
        assert "one or two" in res.stderr


# unitary, with denominators 5, 13 and 65 side by side
MIXED_WALK = ("kind: qrw\nmode: exact\nalphabet: a b\nk: 2\nlabels: a b\nU:\n"
              "3/5+0i -4/13-48/65i\n4/5+0i 3/13+36/65i\n"
              "psi0: 3/5+0i 0+4/5i\n")
FLOAT_WALK = ("kind: qrw\nmode: float\nalphabet: a b\nk: 2\nlabels: a b\nU:\n"
              "0.6+0.0i 0.8+0.0i\n0.8+0.0i -0.6+0.0i\n"
              "psi0: 1.0+0.0i 0.0+0.0i\n")


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

    @pytest.mark.parametrize("text,violations", [
        (MIXED_WALK, []),
        (MIXED_WALK.replace("4/5+0i 3/13", "81/100+0i 3/13"),
         ["unitarity violated at entry (0,1)",
          "unitarity violated at entry (1,0)",
          "unitarity violated at entry (1,1)"]),
        (MIXED_WALK.replace("psi0: 3/5+0i 0+4/5i", "psi0: 3/5+0i 1/65+4/5i"),
         ["psi0 has squared norm 4226/4225"]),
    ])
    def test_exact_walk(self, runner, tmp_path, text, violations):
        path = tmp_path / "walk.qrw"
        path.write_text(text)
        res = runner.invoke(main, ["validate", str(path)])
        assert res.exit_code == (2 if violations else 0)
        assert res.stdout == "".join(v + "\n" for v in violations or ["ok"])

    @pytest.mark.parametrize("text,violation", [
        (FLOAT_WALK.replace("0.6+0.0i 0.8", "0.6000001+0.0i 0.8"),
         "unitarity violated at entry (0,0)"),
        (FLOAT_WALK.replace("psi0: 1.0", "psi0: 1.00000005"),
         "psi0 has squared norm 1.0000001000000023"),
    ])
    def test_float_walk_off_by_1e_7(self, runner, tmp_path, text, violation):
        path = tmp_path / "walk.qrw"
        path.write_text(text)
        res = runner.invoke(main, ["validate", str(path)])
        assert res.exit_code == 2
        assert res.stdout.splitlines()[0] == violation
        res = runner.invoke(main, ["validate", str(path),
                                   "--tolerance", "1e-6"])
        assert res.exit_code == 0
        assert res.stdout == "ok\n"

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


# what a mutation puts in: malformed and out-of-range literals, the
# empty-word glyph, the symbol automata once reserved for stopping, header
# fields out of place, and ordinary tokens of every file kind
FUZZ_POOL = ("1+i", "1e400", "1/0", "□", "$", "kind:", "mode:", "alphabet:",
             "n:", "k:", "labels:", "pi:", "M:", "E:", "F:", "U:", "psi0:",
             "Ma", "hmm", "qrw", "pfa", "exact", "float", "0", "1", "-1",
             "1/2", "0.5", "-0.0", "nan", "3/5-4/5i", "1i", "a", "b", "#",
             ":", ",", "\n")


def _mutant(rng: random.Random, text: str) -> str:
    """``text`` without its comments and with 1-3 of its tokens replaced
    by a ``FUZZ_POOL`` token, deleted, or preceded by one."""
    text = "\n".join(line.partition("#")[0] for line in text.splitlines())
    parts = re.split(r"(\s+)", text)
    tokens = [i for i, part in enumerate(parts) if part and not part.isspace()]
    for i in rng.sample(tokens, rng.randint(1, 3)):
        op = rng.randrange(3)
        if op == 0:
            parts[i] = rng.choice(FUZZ_POOL)
        elif op == 1:
            parts[i] = ""
        else:
            parts[i] = rng.choice(FUZZ_POOL) + " " + parts[i]
    return "".join(parts)


def _call(args):
    """Exit code and combined output of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=args, prog_name="finitary")
            code = None  # standalone mode always exits
        except SystemExit as stop:
            code = stop.code
        except Exception as exc:  # escaped the command group's handler
            code = repr(exc)
    return code, out.getvalue() + err.getvalue()


def test_mutated_corpus_files_exit_0_1_or_2(tmp_path):
    # every command on 300 seeded mutants of the corpus files: malformed
    # input is a user error (exit 2), never a crash or an internal error.
    # This seed's mutants put a malformed complex literal and a zero
    # denominator where the reader parses them
    rng = random.Random(17)
    names = corpus_names()
    failures = []
    for index in range(300):
        name = names[index % len(names)]
        text = _mutant(rng, (CORPUS_DIR / name).read_text())
        path = tmp_path / f"mutant{index}.{name.rsplit('.', 1)[1]}"
        path.write_text(text, encoding="utf-8")
        x = str(path)
        for args in (["validate", x], ["dim", x],
                     ["basis", x, "--format", "json"],
                     ["equiv", x, corpus(name)], ["equiv", x, x],
                     ["prob", x, "a"], ["oracle", x, "-L", "2"]):
            code, output = _call(args)
            if code not in (0, 1, 2) or "internal error" in output:
                failures.append((args[0], name, code, output, text))
    assert not failures, failures[:3]
