"""Self-test of the decision benchmark on a tiny slice of each workload.

    python3 perfbench/selftest.py

Checks that
- every metric named in BENCHMARK.json is printed with its unit, untraced
  (end-to-end, plus the reported failed_share and wrong_verdicts) and traced
  (per-layer);
- the count metrics repeat exactly across two traced runs of one seed;
- the checker flags a planted wrong ground-truth label, a witness on which
  the two models agree and a witness whose reported values are wrong;
- the benchmark's own probabilities match ``finitary prob`` on short words;
- the benchmark exits non-zero, printing no result, without the program.

Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import truth  # noqa: E402
import workloads  # noqa: E402

SEED = 7
SLICE = 4


def run_slice(name: str, traced: bool) -> tuple[str, dict]:
    """One run on a tiny slice, in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--slice", name, "--trace", str(int(traced))],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise AssertionError(f"{name} slice exited {done.returncode}:\n"
                             + done.stderr)
    lines = done.stdout.splitlines()
    return "\n".join(lines[:-1]), json.loads(lines[-1])


def check_printed(name, traced, text, result, spec, failures):
    key = "per_layer" if traced else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        failures.append(f"{name} {key}: metrics {got} != {want}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{name} {key}: result keys {sorted(result)}")
    if not traced:
        want = {**want, **run.REPORTED_UNITS}
    for metric, unit in want.items():
        if not any(line.split()[:1] == [metric] and line.split()[-1] == unit
                   for line in text.splitlines()):
            failures.append(f"{name} {key}: {metric} [{unit}] not printed")


def check_metrics(failures):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in workloads.WORKLOADS:
        text, result = run_slice(name, traced=False)
        check_printed(name, False, text, result, spec, failures)
        first, second = (run_slice(name, traced=True) for _ in range(2))
        for text, result in (first, second):
            check_printed(name, True, text, result, spec, failures)
        for metric in run.EXACT_COUNTS:
            a = first[1]["metrics"][metric]["value"]
            b = second[1]["metrics"][metric]["value"]
            if a != b:
                failures.append(f"{name}: {metric} {a} then {b}")
        print(f"ok  {name}: metrics printed with units, counts repeat")


def check_checker(client, pairs, failures):
    equal = next(p for p in pairs if p.truth == workloads.EQUAL)
    differ = next(p for p in pairs if p.truth == workloads.DIFFER)

    # a planted wrong ground-truth label
    client.pairs[equal.pair_id] = dataclasses.replace(
        equal, truth=workloads.DIFFER)
    _, outcome = client.decide(equal.pair_id)
    client.pairs[equal.pair_id] = equal
    if not (outcome.wrong and outcome.failed and outcome.incorrect):
        failures.append(f"flipped label not flagged: {outcome}")

    code, stdout, _ = client.call(client.args[differ.pair_id])
    report = json.loads(stdout)
    if report["witness"] is None:
        failures.append("differing pair reported no witness")
        return
    if truth.check(differ.x, differ.y, False, code, stdout, None).failed:
        failures.append("a genuine witness did not certify")

    # a witness on which the two models agree
    value = str(truth.Series(equal.x).prob((0,)))
    fake = json.dumps({**report, "witness": "a", "values": [value, value]})
    outcome = truth.check(equal.x, equal.y, False, 1, fake, None)
    if not (outcome.failed and outcome.incorrect) or outcome.wrong:
        failures.append(f"agreeing witness not flagged: {outcome}")

    # the real witness with a wrong reported value
    values = report["values"]
    fake = json.dumps({**report, "values": [values[0], values[0]]})
    outcome = truth.check(differ.x, differ.y, False, 1, fake, None)
    if not (outcome.failed and outcome.incorrect):
        failures.append(f"wrong witness value not flagged: {outcome}")


def check_probabilities(client, pairs, failures):
    """The benchmark's exact values against ``finitary prob``."""
    for p in pairs[:2]:
        path = client.args[p.pair_id][1]
        series = truth.Series(p.x)
        for word in truth.words(p.x["ns"], 2, series, series):
            letters = "".join(truth.SYMBOLS[a] for a in word[0])
            if p.x["kind"] == "pfa":
                letters += "$"
            code, stdout, _ = client.call(["prob", path, letters,
                                            "--format", "json"])
            got = json.loads(stdout)["prob"]
            want = word[1]
            ok = (abs(float(got) - want) <= 1e-12 if series.float_mode
                  else Fraction(got) == want)
            if code != 0 or not ok:
                failures.append(f"{p.pair_id} {letters!r}: prob {got} != {want}")


def check_bare(failures):
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "pfa-exact",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        failures.append(f"without the program: exit {done.returncode}, "
                        f"stdout {done.stdout!r}")
    else:
        print("ok  exits non-zero without the program")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--slice", choices=list(workloads.WORKLOADS))
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    if args.slice:
        run.MIN_DECISIONS, run.MIN_PASSES = 1, 2
        result = run.run_workload(args.slice, SEED, 0, bool(args.trace), SLICE)
        print(json.dumps(result))
        return 0

    failures: list[str] = []
    check_bare(failures)
    run.WORK.mkdir(exist_ok=True)
    directory = run.WORK / "selftest"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    try:
        main_command = run.load_program()
        for name in workloads.WORKLOADS:
            pairs = workloads.build(name, SEED, SLICE)
            client = run.Client(main_command, pairs, directory)
            before = len(failures)
            check_probabilities(client, pairs, failures)
            if len(failures) == before:
                print(f"ok  {name}: exact values match finitary prob")
            if name == "hmm-exact":
                before = len(failures)
                check_checker(client, pairs, failures)
                if len(failures) == before:
                    print("ok  checker flags a wrong label and "
                          "uncertifiable witnesses")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    check_metrics(failures)
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
