"""Run the prioradapt CLI in-process with timing wrappers at each layer boundary.

Usage: python3 bench/traced.py TRACE_JSON -- CLI_ARGS...

The wrappers replace the names each caller module bound at import (for
example ``prioradapt.cli.decide_adapted`` and ``prioradapt.fileio.format_float``),
so the package itself is untouched and its output bytes do not change.
Per-row calls are summed into count, total and self time; solves also get
one span each carrying K and the solver's report.  The per-call cost of a
wrapper is measured on a no-op before the run, and ``trace.overhead_s``
is that cost times the number of wrapped calls, plus the measured time of
the bookkeeping done after some calls.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter


class Tracer:
    """Call statistics per span name: [calls, total_s, child_s, child_calls, raised]."""

    def __init__(self):
        self.times = [0.0]
        self.counts = [0]
        self.stats: dict[str, list] = {}
        self.solves: list[dict] = []
        self.linear_ms: list[float] = []
        self.adapted = 0
        self.fallbacks = 0
        self.changed = 0
        self.baseline_of: dict[int, int] = {}
        self.inner = 0.0
        self.outer = 0.0
        self.hook_s = 0.0

    def wrap(self, name: str, fn, on_return=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])
        times, counts = self.times, self.counts

        def wrapper(*args, **kwargs):
            times.append(0.0)
            counts.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat[4] += 1
                raise
            finally:
                dt = clock() - t0
                child = times.pop()
                nchild = counts.pop()
                times[-1] += dt
                counts[-1] += 1
                stat[0] += 1
                stat[1] += dt
                stat[2] += child
                stat[3] += nchild
            if on_return is None:
                return result
            # Bookkeeping after the span is tracing cost, not the caller's.
            t1 = clock()
            result = on_return(args, kwargs, result, dt)
            hook = clock() - t1
            times[-1] += hook
            self.hook_s += hook
            return result

        return wrapper

    def wrap_iterator(self, name: str, iterator):
        step = self.wrap(name, iterator.__next__)

        def generate():
            while True:
                try:
                    yield step()
                except StopIteration:
                    return

        return generate()

    def calibrate(self, n: int = 20000, repeats: int = 5) -> None:
        """Measure the wrapper's added cost inside its own span and in its caller's."""
        def noop():
            return None

        best = None
        for _ in range(repeats):
            t0 = clock()
            for _ in range(n):
                noop()
            bare = (clock() - t0) / n
            stat = [0, 0.0, 0.0, 0, 0]
            self.stats["_calibration"] = stat
            wrapped = self.wrap("_calibration", noop)
            self.times.append(0.0)
            self.counts.append(0)
            t0 = clock()
            for _ in range(n):
                wrapped()
            loop = (clock() - t0) / n
            self.times.pop()
            self.counts.pop()
            inner = stat[1] / n - bare
            outer = loop - bare - inner
            if best is None or inner + outer < sum(best):
                best = (inner, outer)
        del self.stats["_calibration"]
        self.inner, self.outer = best

    def self_time(self, name: str) -> float:
        """Self time with the calibrated wrapper cost taken out."""
        calls, total, child, nchild, _ = self.stats.get(name, (0, 0.0, 0.0, 0, 0))
        return total - child - calls * self.inner - nchild * self.outer

    def overhead(self) -> float:
        calls = sum(s[0] for s in self.stats.values())
        return calls * (self.inner + self.outer) + self.hook_s


def install(tracer: Tracer) -> None:
    from prioradapt import cli, estimators, fileio, harness, monitor

    def patch(owner, attr, span, on_return=None):
        setattr(owner, attr, tracer.wrap(span, getattr(owner, attr), on_return))

    def remember_baseline(args, kwargs, decision, dt):
        tracer.baseline_of[id(args[0])] = decision
        return decision

    def count_adapted(args, kwargs, result, dt):
        decision, fell_back = result
        tracer.adapted += 1
        tracer.fallbacks += fell_back
        if tracer.baseline_of.get(id(args[0]), decision) != decision:
            tracer.changed += 1
        return result if kwargs.get("return_fallback") else decision

    def decide_adapted_with_flag(fn):
        def call(record, policy, return_fallback=False):
            return fn(record, policy, return_fallback=True)
        return call

    def solved(args, kwargs, result, dt):
        report = result[1]
        tracer.solves.append({
            "k": int(args[0].shape[0]),
            "ms": dt * 1e3,
            "iterations": report.iterations,
            "kkt": report.kkt_violation,
            "converged": report.converged,
        })
        return result

    def linear(args, kwargs, result, dt):
        tracer.linear_ms.append(dt * 1e3)
        return result

    def rows_iterator(args, kwargs, result, dt):
        catalog, records = result
        return catalog, tracer.wrap_iterator("fileio.read_rows", records)

    def decisions_iterator(args, kwargs, result, dt):
        return tracer.wrap_iterator("fileio.read_rows", result)

    for owner in (cli, harness, monitor):
        patch(owner, "decide_baseline", "core.decide", remember_baseline)
    for owner in (cli, harness):
        owner.decide_adapted = tracer.wrap(
            "core.decide", decide_adapted_with_flag(owner.decide_adapted), count_adapted
        )
    patch(cli, "reweight", "core.reweight")
    patch(cli, "reweight_normalized", "core.reweight")
    patch(fileio, "ScoreRecord", "core.validate")
    patch(harness, "ScoreRecord", "core.validate")

    patch(fileio, "format_float", "fileio.format")
    patch(fileio, "read_confusion_csv", "fileio.side_load")
    patch(fileio, "read_priors_json", "fileio.side_load")
    patch(fileio, "read_score_records", "fileio.other", rows_iterator)
    patch(fileio, "read_decision_stream", "fileio.other", decisions_iterator)
    for attr in ("stream_kind", "priors_document", "write_json"):
        patch(fileio, attr, "fileio.other")

    patch(monitor.StreamMonitor, "ingest", "monitor.ingest")
    patch(monitor.StreamMonitor, "ingest_scored", "monitor.ingest_scored")
    patch(monitor.StreamMonitor, "snapshot", "monitor.snapshot")

    for owner in (cli, harness):
        patch(owner, "estimate_qp", "estimators.qp")
        patch(owner, "estimate_matrix_inverse", "estimators.inverse")
        for attr in ("estimate_naive", "estimate_precision_recall", "precision_recall"):
            patch(owner, attr, "estimators.other")
    patch(harness, "estimate_ground_truth", "estimators.other")
    patch(estimators, "solve_simplex_lsq", "solver.lsq", solved)
    patch(estimators, "solve_linear", "solver.linear", linear)
    patch(estimators, "condition_estimate", "solver.linear", linear)

    patch(harness, "generate_record", "harness.generate")
    patch(harness, "estimate_confusion", "harness.confusion_measure")
    for attr in ("default_suite", "evaluate_suite"):
        patch(cli, attr, "harness.cv")
    patch(harness, "cross_validate", "harness.cv")
    patch(harness, "_evaluate_split", "harness.cv")


def main() -> int:
    trace_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: traced.py TRACE_JSON -- CLI_ARGS...")
    t0 = clock()
    import prioradapt.cli
    import_s = clock() - t0

    tracer = Tracer()
    install(tracer)
    tracer.calibrate()
    run = tracer.wrap("cli.main", prioradapt.cli.main)
    code = run(argv)
    doc = {
        "module": prioradapt.cli.__file__,
        "exit": code,
        "import_s": import_s,
        "main_s": tracer.stats["cli.main"][1],
        "inner_s": tracer.inner,
        "outer_s": tracer.outer,
        "overhead_s": tracer.overhead(),
        "spans": {
            name: {"calls": s[0], "total_s": s[1], "self_s": tracer.self_time(name), "raised": s[4]}
            for name, s in tracer.stats.items()
        },
        "solves": tracer.solves,
        "linear_ms": tracer.linear_ms,
        "adapted": tracer.adapted,
        "fallbacks": tracer.fallbacks,
        "changed": tracer.changed,
    }
    with open(trace_path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)
    return code


if __name__ == "__main__":
    sys.exit(main())
