"""Spans around rangevar's public functions, recorded from outside the package.

The tracer replaces module attributes of rangevar with wrappers while a
traced iteration runs. rangevar's modules look their collaborators up as
module attributes at call time (``ingest.parse_profile_csv``,
``preprocess.detect_outliers``, ...), so a wrapper installed here sees every
call the package makes. The one exception is ``evaluate.evaluate_model``,
which ``evaluate.py`` binds with ``from .fit import``; it is wrapped under
that name as well and feeds the same metric.

Each span is ``[name, start, end, parent, iteration]``: ``parent`` is the
index of the enclosing span in the same list (-1 for an iteration's root),
``iteration`` the id of the timed iteration. A span's self time is its
duration minus the durations of its direct children; the calls are
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
from collections import defaultdict
from time import perf_counter

ROOT = "iteration"


def _count_simulate(counts, args, result):
    counts["simulate.obs"] += len(result[0])


def _count_parse(counts, args, result):
    counts["ingest.rows_parsed"] += len(result) + result.skipped_rows


def _count_serialize(counts, args, result):
    # The format is ASCII, so characters are bytes.
    counts["ingest.bytes_serialized"] += len(result)


def _count_group(counts, args, result):
    counts["preprocess.ticks_formed"] += len(result)


def _count_screen(counts, args, result):
    counts["preprocess.screen_calls"] += 1


def _count_preprocess(counts, args, result):
    counts["preprocess.kept_obs"] += sum(s.count for s in result)
    counts["preprocess.input_obs"] += len(args[0])


def _count_fit(counts, args, result):
    counts["fit.iterations"] += result.iterations
    counts["fit.points"] += len(args[0])


def _count_eval(counts, args, result):
    counts["fit.eval_calls"] += 1


def _count_vcm(counts, args, result):
    counts["evaluate.vcm_bytes"] += len(result)


# (module, function, metric its self time adds to, counter or None).
# Every function that cli.py calls in another module is listed (the smoke
# test checks this), so cli.self_s is the time spent in cli.py itself:
# argument parsing, the config reader, _write_atomic and the formatting in
# its private helpers. What lies outside every span is the harness's own
# glue, reported as trace.unattributed_ratio; on workloads that go through
# cli.run that share is near 0 by construction, so its check guards the
# library-call chain of many_ticks.
TIMED = (
    ("simulate", "simulate_profiles", "simulate.self_s", _count_simulate),
    ("simulate", "ground_truth_to_csv", "simulate.self_s", None),
    ("ingest", "parse_profile_csv", "ingest.parse_s", _count_parse),
    ("ingest", "validate_dataset", "ingest.validate_s", None),
    ("ingest", "serialize_dataset", "ingest.serialize_s", _count_serialize),
    ("preprocess", "group_by_vertical_tick", "preprocess.group_s", _count_group),
    ("preprocess", "detect_outliers", "preprocess.screen_s", _count_screen),
    ("preprocess", "preprocess", "preprocess.reduce_s", _count_preprocess),
    ("preprocess", "tick_stats_to_csv", "preprocess.codec_s", None),
    ("preprocess", "read_tick_stats_csv", "preprocess.codec_s", None),
    ("calibrate", "calibrate_ticks", "calibrate.self_s", None),
    ("calibrate", "calibrated_ticks_to_csv", "calibrate.codec_s", None),
    ("calibrate", "read_calibrated_ticks_csv", "calibrate.codec_s", None),
    ("fit", "fit_model", "fit.self_s", _count_fit),
    ("fit", "fit_general_model", "fit.self_s", None),
    ("fit", "fit_report_to_json", "fit.self_s", None),
    ("fit", "read_fit_report_json", "fit.self_s", None),
    ("fit", "evaluate_model", "fit.eval_s", _count_eval),
    ("evaluate", "evaluate_model", "fit.eval_s", _count_eval),
    ("evaluate", "evaluate_against_ticks", "evaluate.residuals_s", None),
    ("evaluate", "evaluation_report_to_csv", "evaluate.residuals_s", None),
    ("evaluate", "compare_models", "evaluate.residuals_s", None),
    ("evaluate", "build_vcm", "evaluate.vcm_build_s", None),
    ("evaluate", "vcm_to_csv", "evaluate.vcm_write_s", _count_vcm),
    ("cli", "run", "cli.self_s", None),
)

TIME_METRICS = tuple(dict.fromkeys(metric for _, _, metric, _ in TIMED))

# Counts that must repeat exactly from one iteration (and run) to the next.
COUNT_METRICS = (
    "simulate.obs",
    "ingest.rows_parsed",
    "ingest.bytes_serialized",
    "preprocess.ticks_formed",
    "preprocess.screen_calls",
    "fit.iterations",
    "fit.points",
    "fit.eval_calls",
    "evaluate.vcm_bytes",
    "cli.bytes_written",
)


class Tracer:
    """Spans and counts of traced iterations, kept in memory until the run ends."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.counts: dict[int, defaultdict] = {}
        self._stack: list[int] = []
        self._iteration = -1
        self._originals: list[tuple] = []

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1], tracer._iteration]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer._stack.pop()
            if counter is not None:
                counter(tracer.counts[tracer._iteration], args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, _, counter in TIMED:
            module = self.modules[module_name]
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", fn, counter))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def run(self, iteration: int, call):
        """Run call() as one traced iteration; returns (result, wall seconds)."""
        root = [ROOT, 0.0, 0.0, -1, iteration]
        self._stack = [len(self.spans)]
        self.spans.append(root)
        self.counts[iteration] = defaultdict(int)
        self._iteration = iteration
        self.install()
        root[1] = perf_counter()
        try:
            result = call()
        finally:
            root[2] = perf_counter()
            self.uninstall()
        return result, root[2] - root[1]


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def nesting_errors(spans: list[list]) -> list[str]:
    """Spans that do not lie inside their parent's interval."""
    errors = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            if start < p_start or end > p_end:
                errors.append(f"span {i} ({name}) leaves its parent {parent}")
    return errors


def iteration_summaries(spans: list[list], counts: dict) -> dict[int, dict]:
    """Per iteration: wall, unattributed share, self time per metric, and counts."""
    metric_of = {f"{m}.{a}": metric for m, a, metric, _ in TIMED}
    own = self_times(spans)
    out: dict[int, dict] = {}
    for (name, start, end, _, iteration), self_s in zip(spans, own):
        summary = out.setdefault(
            iteration, {"times": dict.fromkeys(TIME_METRICS, 0.0), "wall": 0.0, "root_self": 0.0}
        )
        if name == ROOT:
            summary["wall"] = end - start
            summary["root_self"] = self_s
        else:
            summary["times"][metric_of[name]] += self_s
    for iteration, summary in out.items():
        summary["counts"] = dict(counts.get(iteration, {}))
    return out


def per_layer_metrics(summaries: dict[int, dict], untraced_walls: list[float]) -> dict[str, float]:
    """Median self time per metric over traced iterations, plus counts and ratios."""
    rows = list(summaries.values())
    metrics = {
        name: statistics.median(row["times"][name] for row in rows) for name in TIME_METRICS
    }
    first = rows[0]["counts"]
    for name in COUNT_METRICS:
        metrics[name] = first.get(name, 0)
    seen = first.get("preprocess.input_obs", 0)
    metrics["preprocess.keep_ratio"] = first.get("preprocess.kept_obs", 0) / seen if seen else 0.0
    # Fastest against fastest, as for wall_s: the least disturbed pair.
    traced_wall = min(row["wall"] for row in rows)
    metrics["trace.overhead_ratio"] = traced_wall / min(untraced_walls) - 1.0
    metrics["trace.unattributed_ratio"] = statistics.median(
        row["root_self"] / row["wall"] for row in rows
    )
    return metrics
