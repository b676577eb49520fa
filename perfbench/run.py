"""Decision benchmark for ``finitary equiv``.

Closed loop, one client: the driver issues one ``finitary equiv X Y
--format json`` decision at a time, in-process through ``finitary.cli.main``,
on model files it generates from ``--seed``, and checks every verdict and
witness against the pair's ground truth.  The pair set is decided in whole
passes for about ``--seconds`` (a pass starts only while more than half a
pass of time is left), and at least ``MIN_PASSES`` passes and
``MIN_DECISIONS`` decisions.

    python3 perfbench/run.py --workload hmm-exact --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced pass with a traced pass and prints the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import truth  # noqa: E402
import workloads  # noqa: E402

MIN_DECISIONS = 100  # a p90 needs ten decisions beyond it
MIN_PASSES = 4  # each pair's time is its second-slowest pass
MIN_ROUNDS = 2  # traced counts must repeat from one traced pass to the next
SETUP_LAUNCHES = 7
REASONS = ("dimension-mismatch", "basic-matrix-mismatch",
           "initial-row-mismatch", "one-step-mismatch", "all-checks-passed")

END_TO_END_UNITS = {
    "decisions_per_s": "1/s",
    "decision_ms.p50": "ms",
    "decision_ms.p90": "ms",
    "equal_pairs_s": "s",
    "differ_pairs_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# printed in the report; zero on a healthy workload, so they travel as the
# result's "failed" count and as per-layer metrics rather than bounded ones
REPORTED_UNITS = {"failed_share": "share", "wrong_verdicts": "count"}

PER_LAYER_UNITS = {
    "cli.self_ms": "ms",
    "model_io.parse_ms": "ms",
    "model_io.file_kb": "KiB",
    "models.validate_ms": "ms",
    "models.pfa_reduce_ms": "ms",
    "representation.compile_ms": "ms",
    "representation.n": "count",
    "basis.compute_ms": "ms",
    "basis.row_scan_ms": "ms",
    "basis.col_scan_ms": "ms",
    "basis.row_reduce_ms": "ms",
    "basis.row_candidates": "count",
    "basis.row_accepted": "count",
    "basis.col_candidates": "count",
    "basis.dim": "count",
    "linalg.try_insert_calls": "count",
    "linalg.try_insert_ms": "ms",
    "linalg.accept_ratio": "ratio",
    "linalg.dot_calls": "count",
    "scalars.max_bits": "bits",
    "equivalence.check_ms": "ms",
    "equivalence.bilinear_calls": "count",
    "equivalence.pfa_self_ms": "ms",
    **{f"equivalence.reason.{r}": "count" for r in REASONS},
    "checker.failed_share": "share",
    "checker.wrong_verdicts": "count",
    "checker.known_defect_failed": "count",
    "trace.overhead_pct": "%",
}
# must repeat exactly from pass to pass and run to run of one seed
EXACT_COUNTS = ("basis.row_candidates", "basis.row_accepted",
                "basis.col_candidates", "basis.dim", "representation.n",
                "linalg.try_insert_calls", "linalg.dot_calls",
                "equivalence.bilinear_calls", "scalars.max_bits",
                "model_io.file_kb",
                *(f"equivalence.reason.{r}" for r in REASONS),
                "checker.wrong_verdicts", "checker.failed_share")


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    if not (SRC / "finitary" / "cli.py").is_file():
        raise BenchmarkError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import finitary.cli
    if Path(finitary.cli.__file__).resolve().parent != SRC / "finitary":
        raise BenchmarkError(f"imported finitary from {finitary.cli.__file__}")
    return finitary.cli.main


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing ``finitary.cli``."""
    command = [sys.executable, "-c", "import finitary.cli"]
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    times = []
    for launch in range(SETUP_LAUNCHES + 1):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise BenchmarkError("import finitary.cli failed: "
                                 + done.stderr.decode(errors="replace"))
        if launch:  # the first launch writes bytecode caches
            times.append(elapsed)
    return statistics.median(times)


class Client:
    """One closed-loop client: decides a pair, checks it, remembers it."""

    def __init__(self, main, pairs, directory: Path, recorder=None):
        self.main = main
        self.recorder = recorder
        self.pairs = {p.pair_id: p for p in pairs}
        self.args = {}
        self.file_bytes = {}
        for p in pairs:
            paths = []
            for side, model in (("x", p.x), ("y", p.y)):
                path = directory / f"{p.pair_id}-{side}.{model['kind']}"
                path.write_text(workloads.serialize(model))
                paths.append(str(path))
            self.args[p.pair_id] = ["equiv", *paths, "--format", "json"]
            self.file_bytes[p.pair_id] = sum(Path(f).stat().st_size for f in paths)
        self._checked = {}

    def call(self, args):
        out, err = io.StringIO(), io.StringIO()
        code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                self.main.main(args=args, prog_name="finitary")
            except SystemExit as stop:
                code = stop.code if isinstance(stop.code, int) else 1
            except Exception as exc:  # reported as a failed decision
                exception = type(exc).__name__
                code = 1
        return code, out.getvalue(), exception

    def decide(self, pair_id, traced=False):
        """Wall time of one call and its checked outcome."""
        gc.collect()
        args = self.args[pair_id]
        if traced:
            self.recorder.pair = pair_id
            with self.recorder.span(tracing.ROOT) as record:
                code, stdout, exception = self.call(args)
            elapsed = record[2] - record[1]
        else:
            start = time.perf_counter()
            code, stdout, exception = self.call(args)
            elapsed = time.perf_counter() - start
        key = (pair_id, code, stdout, exception)
        if key not in self._checked:
            p = self.pairs[pair_id]
            self._checked[key] = truth.check(p.x, p.y, p.truth == workloads.EQUAL,
                                             code, stdout, exception)
        return elapsed, self._checked[key]


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.wrong = self.incorrect = 0
        self.reasons = Counter()
        self.notes = Counter()

    def add(self, outcome):
        self.attempted += 1
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        self.incorrect += outcome.incorrect
        if outcome.reason:
            self.reasons[outcome.reason] += 1
        if outcome.note != "ok":
            self.notes[outcome.note] += 1

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.incorrect += other.incorrect
        self.reasons.update(other.reasons)
        self.notes.update(other.notes)


def run_pass(client, order, tally, times=None, traced=False) -> float:
    total = 0.0
    for pair_id in order:
        elapsed, outcome = client.decide(pair_id, traced)
        tally.add(outcome)
        total += elapsed
        if times is not None:
            times[pair_id].append(elapsed)
    return total


def _time_for_another(start, passes, seconds) -> bool:
    """More than half a pass of the time budget is left."""
    elapsed = time.perf_counter() - start
    return seconds - elapsed > elapsed / passes / 2


def end_to_end(client, pairs, order, seconds):
    times = {p.pair_id: [] for p in pairs}
    tally = Tally()
    start = time.perf_counter()
    passes = 0
    while True:
        run_pass(client, order, tally, times)
        passes += 1
        if (passes >= MIN_PASSES and tally.attempted >= MIN_DECISIONS
                and not _time_for_another(start, passes, seconds)):
            break
    every = [t for ts in times.values() for t in ts]
    # A pair's time is its second-slowest pass.  On a shared host the
    # program runs at one contended speed most of the time and faster in
    # bursts lasting seconds; the slow passes repeat from run to run, and
    # skipping the slowest one keeps a single stall out.
    typical = {pair_id: sorted(ts)[-2] for pair_id, ts in times.items()}

    def summed(kind):
        return sum(typical[p.pair_id] for p in pairs if p.truth == kind)

    metrics = {
        "decisions_per_s": len(typical) / sum(typical.values()),
        "decision_ms.p50": 1000 * statistics.median(every),
        "decision_ms.p90": 1000 * statistics.quantiles(every, n=10)[-1],
        "equal_pairs_s": summed(workloads.EQUAL),
        "differ_pairs_s": summed(workloads.DIFFER),
    }
    reported = {"failed_share": tally.failed / tally.attempted,
                "wrong_verdicts": tally.wrong}
    return metrics, reported, tally, passes


def per_layer(client, order, seconds, recorder):
    rounds = []
    tally = Tally()
    start = time.perf_counter()
    while True:
        untraced = run_pass(client, order, Tally())
        first = len(recorder.spans)
        recorder.counts.clear()
        traced_tally = Tally()
        with recorder.installed():
            traced = run_pass(client, order, traced_tally, traced=True)
        figures = tracing.summarize(recorder.spans, first, len(order))
        figures["linalg.dot_calls"] = recorder.counts["dot"]
        figures["equivalence.bilinear_calls"] = recorder.counts["prob_bilinear"]
        for r in REASONS:
            figures[f"equivalence.reason.{r}"] = traced_tally.reasons[r]
        figures["checker.failed_share"] = traced_tally.failed / len(order)
        figures["checker.wrong_verdicts"] = traced_tally.wrong
        figures["model_io.file_kb"] = (sum(client.file_bytes.values())
                                       / 1024 / len(order))
        figures["trace.overhead_pct"] = 100 * (traced - untraced) / untraced
        rounds.append(figures)
        tally.merge(traced_tally)
        if (len(rounds) >= MIN_ROUNDS
                and not _time_for_another(start, len(rounds), seconds)):
            break
    unsteady = [name for name in EXACT_COUNTS
                if len({r[name] for r in rounds}) > 1]
    if unsteady:
        print("warning: counts differ between traced passes: "
              + ", ".join(unsteady), file=sys.stderr)
    metrics = {name: (rounds[0][name] if name in EXACT_COUNTS
                      else statistics.median(r[name] for r in rounds))
               for name in rounds[0]}
    return metrics, tally, len(rounds)


def run_workload(name, seed, seconds, traced, limit=None) -> dict:
    main = load_program()
    setup_s = measure_setup()
    pairs = workloads.build(name, seed, limit)
    timed = [p for p in pairs if not p.known_defect]
    probes = [p.pair_id for p in pairs if p.known_defect]
    order = [p.pair_id for p in timed]
    random.Random(f"order:{name}:{seed}").shuffle(order)
    WORK.mkdir(exist_ok=True)
    directory = WORK / f"{name}-{seed}-{id(pairs):x}"
    directory.mkdir()
    recorder = tracing.Recorder() if traced else None
    try:
        client = Client(main, pairs, directory, recorder)
        smallest = min(order, key=client.file_bytes.get)
        for _ in range(2):  # warm-up, not counted
            client.decide(smallest)
        if traced:
            metrics, tally, passes = per_layer(client, order, seconds, recorder)
            units = PER_LAYER_UNITS
            recorder.write(WORK / f"trace-{name}-{seed}.jsonl")
        else:
            metrics, reported, tally, passes = end_to_end(client, timed, order,
                                                          seconds)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                                      .ru_maxrss / 1024)
            units = END_TO_END_UNITS
        known = Tally()
        run_pass(client, probes, known)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if traced:
        metrics["checker.known_defect_failed"] = known.failed

    equal = sum(p.truth == workloads.EQUAL for p in timed)
    print(f"workload {name}, seed {seed}: {len(timed)} timed pairs ({equal} "
          f"equal, {len(timed) - equal} differ), {passes} "
          f"{'traced rounds' if traced else 'passes'}, {tally.attempted} "
          "decisions, closed loop, one client")
    for metric, value in metrics.items():
        print(f"  {metric:40s} {value:14.6g} {units[metric]}")
    if not traced:
        for metric, value in reported.items():
            print(f"  {metric:40s} {value:14.6g} {REPORTED_UNITS[metric]}")
    for note, count in sorted(tally.notes.items()):
        print(f"  failure: {note} x{count}")
    if probes:
        print(f"known-defect pairs ({', '.join(workloads.KNOWN_DEFECTS)}), "
              f"decided once, untimed: {known.attempted} decisions, "
              f"{known.failed} failed, {known.wrong} wrong verdicts")
        for note, count in sorted(known.notes.items()):
            print(f"  failure: {note} x{count}")
    return {"correct": tally.incorrect == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}


def run_all(args) -> dict:
    """Every workload, each in its own interpreter so peak RSS is its own."""
    results = {}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise BenchmarkError(f"workload {name} exited {done.returncode}")
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
