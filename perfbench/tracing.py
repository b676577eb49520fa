"""Spans and counts around calls into each layer of ``finitary``.

The benchmark installs wrappers on module-level names only for a traced run,
so untraced timings carry no instrumentation.  A span records its name,
start, end, parent span and the pair being decided, plus an optional note
(a returned dimension, an insert's acceptance).  Spans stay in memory and
are written out when the run ends.  A layer's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter, defaultdict
from fractions import Fraction

# span name -> (module, attribute); a class attribute is "Class.method"
SPANS = {
    "cli.parse_model": ("finitary.cli", "parse_model"),
    "cli.compile_model": ("finitary.cli", "compile_model"),
    "cli.test_equivalence": ("finitary.cli", "test_equivalence"),
    "cli.test_equivalence_pfa": ("finitary.cli", "test_equivalence_pfa"),
    "model_io.validate": ("finitary.model_io", "validate"),
    "equivalence.test_equivalence": ("finitary.equivalence", "test_equivalence"),
    "equivalence.compute_basis": ("finitary.equivalence", "compute_basis"),
    "equivalence.pfa_to_hmm": ("finitary.equivalence", "pfa_to_hmm"),
    "equivalence.compile_hmm": ("finitary.equivalence", "compile_hmm"),
    "basis.row_generator": ("finitary.basis", "row_generator"),
    "basis.column_basis": ("finitary.basis", "column_basis"),
    "basis.reduce_rows": ("finitary.basis", "reduce_rows"),
    "linalg.try_insert": ("finitary.linalg", "IndependenceTester.try_insert"),
}
# counted, not timed: these run thousands of times per decision
COUNTS = {
    "dot": [("finitary.basis", "dot"), ("finitary.equivalence", "dot")],
    "prob_bilinear": [("finitary.representation",
                       "LinearRepresentation.prob_bilinear")],
}
ROOT = "cli.main"
CHECK = "trace.scan"  # the recorder's own work, excluded from self times


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def _max_bits(result) -> int:
    """Largest numerator/denominator bit length in a returned basis."""
    best = 0
    rows = [result.matrix] + [[v.coords for v in result.backwards],
                              [v.coords for v in result.forwards]]
    for block in rows:
        for row in block:
            for x in row:
                if isinstance(x, Fraction):
                    best = max(best, x.numerator.bit_length(),
                               x.denominator.bit_length())
    return best


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, pair, note]
        self.counts: Counter = Counter()
        self.pair: str | None = None
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.pair, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name, fn):
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            self._note(name, record, result)
            return result
        return wrapper

    def _note(self, name, record, result):
        if name == "linalg.try_insert":
            record[5] = bool(result)
        elif name.endswith("compile_model") or name.endswith("compile_hmm"):
            record[5] = result.dimension
        elif name.endswith("compute_basis"):
            with self.span(CHECK):
                record[5] = [result.dim, _max_bits(result)]

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name for the duration of the block."""
        saved = []
        try:
            for name, (module, attr) in SPANS.items():
                owner, attr = _resolve(module, attr)
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._timed(name, getattr(owner, attr)))
            for name, places in COUNTS.items():
                for module, attr in places:
                    owner, attr = _resolve(module, attr)
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, self._counted(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as out:
            for name, start, end, parent, pair, note in self.spans:
                out.write(json.dumps([name, start, end, parent, pair, note]) + "\n")


def summarize(spans: list[list], first: int, decisions: int) -> dict:
    """Per-layer figures for the traced pass whose spans start at index
    ``first``.  Times are the mean per decision in ms; counts are totals
    over the pass."""
    pass_spans = spans[first:]
    child_time = defaultdict(float)
    for name, start, end, parent, _, _ in pass_spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive = defaultdict(float)
    own = defaultdict(float)
    for index, (name, start, end, _, _, _) in enumerate(pass_spans, first):
        inclusive[name] += end - start
        own[name] += end - start - child_time[index]

    def per_decision(total):
        return 1000.0 * total / decisions

    def parent_name(span):
        return spans[span[3]][0] if span[3] >= 0 else None

    inserts = [s for s in pass_spans if s[0] == "linalg.try_insert"]
    by_stage = Counter((parent_name(s), s[5]) for s in inserts)
    compiles = [s[5] for s in pass_spans
                if s[0] in ("cli.compile_model", "equivalence.compile_hmm")]
    bases = [s[5] for s in pass_spans
             if s[0] == "equivalence.compute_basis" and s[5] is not None]
    accepted = sum(1 for s in inserts if s[5])
    return {
        "cli.self_ms": per_decision(own[ROOT]),
        "model_io.parse_ms": per_decision(own["cli.parse_model"]),
        "models.validate_ms": per_decision(inclusive["model_io.validate"]),
        "models.pfa_reduce_ms": per_decision(inclusive["equivalence.pfa_to_hmm"]),
        "representation.compile_ms": per_decision(
            own["cli.compile_model"] + own["equivalence.compile_hmm"]),
        "representation.n": sum(compiles) / len(compiles) if compiles else 0,
        "basis.compute_ms": per_decision(inclusive["equivalence.compute_basis"]),
        "basis.row_scan_ms": per_decision(inclusive["basis.row_generator"]),
        "basis.col_scan_ms": per_decision(inclusive["basis.column_basis"]),
        "basis.row_reduce_ms": per_decision(inclusive["basis.reduce_rows"]),
        "basis.row_candidates": sum(v for (p, _), v in by_stage.items()
                                    if p == "basis.row_generator"),
        "basis.row_accepted": by_stage[("basis.row_generator", True)],
        "basis.col_candidates": sum(v for (p, _), v in by_stage.items()
                                    if p == "basis.column_basis"),
        "basis.dim": sum(b[0] for b in bases) / len(bases) if bases else 0,
        "linalg.try_insert_calls": len(inserts),
        "linalg.try_insert_ms": per_decision(inclusive["linalg.try_insert"]),
        "linalg.accept_ratio": accepted / len(inserts) if inserts else 0,
        "scalars.max_bits": max((b[1] for b in bases), default=0),
        "equivalence.check_ms": per_decision(
            own["cli.test_equivalence"] + own["equivalence.test_equivalence"]),
        "equivalence.pfa_self_ms": per_decision(own["cli.test_equivalence_pfa"]),
    }
