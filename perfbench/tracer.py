"""Spans and counters for the traced benchmark run.

The package has no tracing of its own, so spans are recorded from outside:
`patched` swaps the names the engine looks up at call time (for example
``xorsatlab.experiments.solve``) for wrappers that record a span, and puts
the originals back afterwards.  Spans nest by call order on one thread; a
span's self time is its duration minus the durations of its direct
children.  `layer_metrics` turns the spans of a traced phase into the
per-layer metrics listed in README.md.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)  # quantities read at the boundary: bytes, steps, ...

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans kept in memory, in start order, plus plain event counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, note=None):
        """`fn` recording one span per call; note(args, result) -> dict fills Span.info."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                self.spans[idx].info = note(args, out)
            return out

        return traced

    def count(self, fn, counter):
        """`fn` that adds counter(result) to self.counts after each call (no span)."""

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.counts.update(counter(out))
            return out

        return counted


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set owner.attr = make(original) for each (owner, attr, make).

    A name the owner no longer has is skipped with a note on stderr, so its
    spans are simply missing (their metrics read 0).
    """
    saved = []
    try:
        for owner, attr, make in replacements:
            if attr not in vars(owner):
                print(f"perfbench: {owner.__name__}.{attr} not found; not traced", file=sys.stderr)
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics


PER_LAYER_UNITS = {
    "kernel.eliminate_ms_p50": "ms",
    "kernel.eliminate_ms_p95": "ms",
    "kernel.self_frac": "fraction",
    "kernel.word_xors": "count_computed",
    "kernel.word_xors_per_s": "1/s",
    "instances.sample_ms_p50": "ms",
    "instances.sample_ms_p95": "ms",
    "instances.self_frac": "fraction",
    "instances.chip_attempts_per_instance": "count",
    "instances.accept_ratio": "fraction",
    "instances.degree_retries_per_attempt": "count",
    "peel.self_ms_p50": "ms",
    "peel.self_ms_p95": "ms",
    "peel.self_frac": "fraction",
    "peel.steps_per_s": "1/s",
    "peel.core_vars_frac": "fraction",
    "gf2.pack_ms_p50": "ms",
    "gf2.pack_bytes": "B_computed",
    "gf2.solve_overhead_ms_p50": "ms",
    "gf2.self_frac": "fraction",
    "experiments.trial_ms_p50": "ms",
    "experiments.trial_ms_p95": "ms",
    "experiments.overhead_frac": "fraction",
    "certify.cell_evals": "count",
    "certify.cell_eval_ms_p50": "ms",
    "certify.accept_ratio": "fraction",
    "certify.search_frac": "fraction",
    "certify.replay_s": "s",
    "trace.overhead_frac": "fraction",
}

STAGES = ("sample", "peel", "pack", "solve")


def _pct(values, q: float, scale: float = 1.0) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, trials: int, rounds: int, overhead_frac: float, cell_target: float) -> dict:
    """Per-layer metrics of one traced phase.

    `trials` counts campaign trials and `rounds` certify rounds in the phase.
    Fractions named *self_frac* and *overhead_frac* are shares of the summed
    "op" spans; a layer the workload never reaches reads 0.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.dur
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def durs(name):
        return [spans[i].dur for i in by_name.get(name, [])]

    def selfs(name):
        return [spans[i].dur - child_time[i] for i in by_name.get(name, [])]

    def infos(name, key):
        return [spans[i].info[key] for i in by_name.get(name, [])]

    ops_total = sum(durs("op"))
    trial_ms = durs("trial")
    if not trial_ms and trials:  # engine without a per-task entry point: whole op over its trials
        trial_ms = [ops_total / trials]
    counts = tracer.counts
    word_xors = sum(infos("eliminate", "word_xors"))
    peeled = [core / n for core, n in zip(infos("peel", "core_vars"), infos("peel", "n")) if n]

    build_ids = set(by_name.get("certify.build", []))
    search_evals = [i for i in by_name.get("cell_eval", []) if spans[i].parent in build_ids]
    replays = durs("certify.replay")

    return {
        "kernel.eliminate_ms_p50": _pct(durs("eliminate"), 50, 1e3),
        "kernel.eliminate_ms_p95": _pct(durs("eliminate"), 95, 1e3),
        "kernel.self_frac": _ratio(sum(selfs("eliminate")), ops_total),
        "kernel.word_xors": _ratio(word_xors, trials),
        "kernel.word_xors_per_s": _ratio(word_xors, sum(selfs("eliminate"))),
        "instances.sample_ms_p50": _pct(durs("sample"), 50, 1e3),
        "instances.sample_ms_p95": _pct(durs("sample"), 95, 1e3),
        "instances.self_frac": _ratio(sum(selfs("sample")), ops_total),
        "instances.chip_attempts_per_instance": _ratio(counts["chip_attempts"], counts["constrained_instances"]),
        "instances.accept_ratio": _ratio(counts["constrained_instances"], counts["chip_attempts"]),
        "instances.degree_retries_per_attempt": _ratio(counts["degree_retries"], counts["chip_attempts"]),
        "peel.self_ms_p50": _pct(selfs("peel"), 50, 1e3),
        "peel.self_ms_p95": _pct(selfs("peel"), 95, 1e3),
        "peel.self_frac": _ratio(sum(selfs("peel")), ops_total),
        "peel.steps_per_s": _ratio(sum(infos("peel", "steps")), sum(selfs("peel"))),
        "peel.core_vars_frac": float(np.mean(peeled)) if peeled else 0.0,
        "gf2.pack_ms_p50": _pct(durs("pack"), 50, 1e3),
        "gf2.pack_bytes": float(np.mean(infos("pack", "bytes"))) if by_name.get("pack") else 0.0,
        "gf2.solve_overhead_ms_p50": _pct(selfs("solve"), 50, 1e3),
        "gf2.self_frac": _ratio(sum(selfs("pack")) + sum(selfs("solve")), ops_total),
        "experiments.trial_ms_p50": _pct(trial_ms, 50, 1e3),
        "experiments.trial_ms_p95": _pct(trial_ms, 95, 1e3),
        "experiments.overhead_frac": _ratio(ops_total - sum(sum(durs(s)) for s in STAGES), ops_total) if trials else 0.0,
        "certify.cell_evals": _ratio(len(by_name.get("cell_eval", [])), rounds),
        "certify.cell_eval_ms_p50": _pct(durs("cell_eval"), 50, 1e3),
        "certify.accept_ratio": _ratio(sum(spans[i].info["bound"] < cell_target for i in search_evals), len(search_evals)),
        "certify.search_frac": _ratio(sum(durs("certify.build")), sum(durs("certify.build")) + sum(replays)),
        "certify.replay_s": _ratio(sum(replays), rounds),
        "trace.overhead_frac": overhead_frac,
    }
