"""Benchmark of the prioradapt command line.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--workload all`` interleaves every workload round by round, so slow
drift of the host's speed is shared across them.  Inputs are generated
from ``--seed`` by ``bench/gen.py`` and cached under ``.bench_cache/``.
Each round runs one command per workload in a fresh process, checks its
output with ``bench/checks.py`` and times a fixed calibration loop.

With ``--trace 0`` every command runs untraced and the end-to-end metrics
are reported.  With ``--trace 1`` each round runs the command untraced and
then under ``bench/traced.py``; the two outputs must be byte-identical, and
the traced run's spans give the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 1 when any output check
failed, and 2 when the checkout holds no ``src/prioradapt`` to run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import checks
import gen

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".bench_cache")
CHILD_TIMEOUT_S = 60.0
#: No new round starts after max(--seconds, this), whatever the minimum round count.
ROUNDS_STOP_S = 120.0
MIN_ROUNDS = 3
#: Set-up probes per workload and run; the rounds after them run the command only.
SETUP_PROBES = 3
CALIBRATION_LOOP = 300_000
#: Environment variables recorded as found: thread counts, and the hash seed
#: that orders ``evaluate``'s JSON output.
RECORDED_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PRIOR_ADAPT_THREADS",
    "PYTHONHASHSEED",
)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Variant:
    """One generated input set: file paths, the arrays checks need, sha256 per file."""

    index: int
    files: dict[str, str]
    data: dict[str, np.ndarray]
    sha256: dict[str, str]
    checked: dict[str, checks.Verdict] = field(default_factory=dict)


class Workload:
    """A single CLI command on generated files, one process, run to completion."""

    name = ""
    variants = 1
    items = 0  # score rows, decision lines or scenario-folds per command

    def build(self, rng: np.random.Generator, vdir: str) -> dict[str, np.ndarray]:
        """Write the input files into ``vdir``; return the arrays the checks need."""
        raise NotImplementedError

    def argv(self, v: Variant, out: str) -> list[str]:
        raise NotImplementedError

    def probe_argv(self, v: Variant, out: str) -> list[str]:
        """The same command on a one-item input, for set-up time."""
        raise NotImplementedError

    def check(self, v: Variant, out: str) -> checks.Verdict:
        raise NotImplementedError


def _head(src: str, dst: str, lines: int) -> None:
    with open(src, encoding="utf-8") as fp, open(dst, "w", encoding="utf-8", newline="\n") as out:
        for _ in range(lines):
            out.write(fp.readline())


class ReweightStatic(Workload):
    """reweight --priors on a K=36 scores CSV with a truth column: I/O path, no solver."""

    name = "reweight-static"
    variants = 5
    k, rows, active = 36, 6_000, 8
    items = rows

    def build(self, rng, vdir):
        labels = gen.class_labels(self.k)
        conf = gen.confusion_rows(rng, self.k)
        priors = gen.sparse_priors(rng, self.k, self.active)
        truth, decisions = gen.draw_stream(rng, conf, [(self.rows, priors)])
        scores = gen.draw_scores(rng, truth, decisions, self.k)
        gen.write_scores_csv(f"{vdir}/scores.csv", labels, scores, truth)
        gen.write_priors_json(f"{vdir}/priors.json", labels, priors)
        _head(f"{vdir}/scores.csv", f"{vdir}/probe.csv", 2)
        return {"scores": scores, "truth": truth, "priors": priors}

    def argv(self, v, out):
        return ["reweight", v.files["scores.csv"], "--priors", v.files["priors.json"], "--output", out]

    def probe_argv(self, v, out):
        return ["reweight", v.files["probe.csv"], "--priors", v.files["priors.json"], "--output", out]

    def check(self, v, out):
        d = v.data
        return checks.check_reweight(
            out, gen.class_labels(self.k), d["scores"], d["truth"], priors=d["priors"]
        )


class ReweightLive(Workload):
    """reweight --confusion with re-estimation on a K=1000 stream whose priors switch halfway."""

    name = "reweight-live-k1000"
    variants = 3
    k, rows, active, window, cadence = 1000, 1000, 10, 500, 10
    items = rows

    def build(self, rng, vdir):
        labels = gen.class_labels(self.k)
        conf = gen.confusion_rows(rng, self.k)
        half = self.rows // 2
        segments = [
            (half, gen.sparse_priors(rng, self.k, self.active)),
            (self.rows - half, gen.sparse_priors(rng, self.k, self.active)),
        ]
        truth, decisions = gen.draw_stream(rng, conf, segments)
        scores = gen.draw_scores(rng, truth, decisions, self.k)
        gen.write_confusion_csv(f"{vdir}/confusion.csv", labels, conf)
        gen.write_scores_csv(f"{vdir}/scores.csv", labels, scores, truth)
        _head(f"{vdir}/scores.csv", f"{vdir}/probe.csv", 2)
        generating = np.repeat([p for _, p in segments], [n for n, _ in segments], axis=0)
        return {"scores": scores, "truth": truth, "generating": generating}

    def _args(self, v, scores, out):
        return [
            "reweight", scores, "--confusion", v.files["confusion.csv"],
            "--reestimate-every", str(self.cadence), "--window", str(self.window), "--output", out,
        ]

    def argv(self, v, out):
        return self._args(v, v.files["scores.csv"], out)

    def probe_argv(self, v, out):
        return self._args(v, v.files["probe.csv"], out)

    def check(self, v, out):
        d = v.data
        return checks.check_reweight(
            out, gen.class_labels(self.k), d["scores"], d["truth"],
            confusion=checks.read_confusion(v.files["confusion.csv"]),
            cadence=self.cadence, window=self.window, generating=d["generating"],
        )


class EstimateDecisions(Workload):
    """estimate --method all --window W on a K=200 decisions-only stream."""

    name = "estimate-decisions"
    variants = 8
    k, lines, active, window = 200, 600_000, 20, 200_000
    items = lines

    def build(self, rng, vdir):
        labels = gen.class_labels(self.k)
        conf = gen.confusion_rows(rng, self.k)
        half = self.lines // 2
        segments = [
            (half, gen.sparse_priors(rng, self.k, self.active)),
            (self.lines - half, gen.sparse_priors(rng, self.k, self.active)),
        ]
        truth, decisions = gen.draw_stream(rng, conf, segments)
        gen.write_confusion_csv(f"{vdir}/confusion.csv", labels, conf)
        gen.write_decisions(f"{vdir}/decisions.txt", decisions)
        gen.write_decisions(f"{vdir}/probe.txt", decisions[:1])
        return {"truth": truth, "decisions": decisions}

    def _args(self, v, stream, out):
        return [
            "estimate", v.files["confusion.csv"], stream,
            "--method", "all", "--window", str(self.window), "--output", out,
        ]

    def argv(self, v, out):
        return self._args(v, v.files["decisions.txt"], out)

    def probe_argv(self, v, out):
        return self._args(v, v.files["probe.txt"], out)

    def check(self, v, out):
        d = v.data
        return checks.check_estimate(
            out, gen.class_labels(self.k), checks.read_confusion(v.files["confusion.csv"]),
            d["decisions"], d["truth"], self.window,
        )


class EvaluateSuite(Workload):
    """--format json evaluate --folds F on the built-in 12-context K=36 suite, in memory."""

    name = "evaluate-suite"
    variants = 6
    folds = 20
    items = len(checks.SUITE_SCENARIOS) * folds

    def build(self, rng, vdir):
        suite_seed = int(rng.integers(0, 2**31 - 1))
        with open(f"{vdir}/suite_seed.txt", "w", encoding="utf-8") as fp:
            fp.write(f"{suite_seed}\n")
        return {"suite_seed": np.array(suite_seed)}

    def _args(self, v, folds, out):
        seed = str(int(v.data["suite_seed"]))
        return ["--format", "json", "--seed", seed, "--output", out, "evaluate", "--folds", str(folds)]

    def argv(self, v, out):
        return self._args(v, self.folds, out)

    def probe_argv(self, v, out):
        return self._args(v, 2, out)

    def check(self, v, out):
        return checks.check_evaluate(out, self.folds)


WORKLOADS = {w.name: w for w in (ReweightStatic(), ReweightLive(), EstimateDecisions(), EvaluateSuite())}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fp:
        for chunk in iter(lambda: fp.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _generator_stamp() -> str:
    h = hashlib.sha256()
    for name in ("gen.py", "run.py"):
        with open(os.path.join(BENCH, name), "rb") as fp:
            h.update(fp.read())
    return h.hexdigest()[:12]


class Inputs:
    """A workload's input variants for one seed, generated on first use and cached on disk.

    Caches of other seeds of the same workload are dropped, so the cache
    holds one seed per workload.
    """

    def __init__(self, workload: Workload, seed: int, code: int):
        self.workload = workload
        wdir = os.path.join(CACHE, workload.name)
        self.dir = os.path.join(wdir, f"seed-{seed}-{_generator_stamp()}")
        os.makedirs(wdir, exist_ok=True)
        for entry in os.listdir(wdir):
            if os.path.join(wdir, entry) != self.dir and entry != "out":
                shutil.rmtree(os.path.join(wdir, entry))
        self.streams = np.random.SeedSequence([seed, code]).spawn(workload.variants)
        self.loaded: dict[int, Variant] = {}

    def __len__(self) -> int:
        return len(self.streams)

    def __getitem__(self, i: int) -> Variant:
        if i not in self.loaded:
            self.loaded[i] = self._load(i)
        return self.loaded[i]

    def _load(self, i: int) -> Variant:
        vdir = os.path.join(self.dir, f"v{i}")
        done = os.path.join(vdir, "inputs.json")
        if not os.path.exists(done):
            tmp = vdir + ".tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(tmp)
            data = self.workload.build(np.random.default_rng(self.streams[i]), tmp)
            np.savez(os.path.join(tmp, "arrays.npz"), **data)
            names = sorted(f for f in os.listdir(tmp) if f != "arrays.npz")
            with open(os.path.join(tmp, "inputs.json"), "w", encoding="utf-8") as fp:
                json.dump({f: _sha256(os.path.join(tmp, f)) for f in names}, fp)
            # Flush the new files now, so their write-back does not overlap timed commands.
            for name in os.listdir(tmp):
                with open(os.path.join(tmp, name), "rb") as fp:
                    os.fsync(fp.fileno())
            shutil.rmtree(vdir, ignore_errors=True)
            os.rename(tmp, vdir)
        with open(done, encoding="utf-8") as fp:
            hashes = json.load(fp)
        with np.load(os.path.join(vdir, "arrays.npz")) as arrays:
            data = {name: arrays[name] for name in arrays.files}
        files = {f: os.path.relpath(os.path.join(vdir, f), ROOT) for f in hashes}
        return Variant(i, files, data, hashes)


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update(extra or {})
    return env


class Launcher:
    """Starts children from ``bench/launch.py`` so their peak RSS is their own."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.join(BENCH, "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def spawn(self, argv: list[str], env: dict[str, str], stderr_path: str) -> Proc:
        """Run to completion; wall time from spawn to reaping, usage from wait4."""
        request = {"argv": argv, "env": env, "cwd": ROOT, "stderr": stderr_path,
                   "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("process launcher exited")
        return Proc(**json.loads(reply))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def cli(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "prioradapt"] + args


def calibration_s() -> float:
    """A fixed pure-Python loop, timed each round as a record of host speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOP):
        x += i * i
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class Record:
    """Everything measured for one workload in one run."""

    workload: Workload
    variants: Inputs
    launcher: Launcher
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    items_per_s: list[float] = field(default_factory=list)
    cpu_s_per_kitem: list[float] = field(default_factory=list)
    rss_mb: list[float] = field(default_factory=list)
    cpu_util: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)
    quality: dict[int, checks.Verdict] = field(default_factory=dict)

    def out_dir(self) -> str:
        path = os.path.join(CACHE, self.workload.name, "out")
        os.makedirs(path, exist_ok=True)
        return path

    def fail(self, count: int, message: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        if len(self.problems) < 10:
            self.problems.append(message)

    def verify(self, v: Variant, out: str, proc: Proc) -> None:
        """Check one output; identical bytes to an output already checked reuse its verdict."""
        items = self.workload.items
        self.attempted += items
        if proc.code != 0:
            self.fail(items, f"exit code {proc.code} on variant {v.index}")
            return
        digest = _sha256(out)
        verdict = v.checked.get(digest)
        if verdict is None:
            verdict = self.workload.check(v, out)
            v.checked[digest] = verdict
        self.quality.setdefault(v.index, verdict)
        if verdict.failed:
            self.fail(verdict.failed, f"variant {v.index}: " + "; ".join(verdict.problems))

    def probe(self) -> float:
        """The command on a one-item input; its wall time is the set-up time."""
        w, out_dir = self.workload, self.out_dir()
        probe = os.path.join(out_dir, "probe.out")
        p = self.launcher.spawn(cli(w.probe_argv(self.variants[0], probe)), child_env(),
                                os.path.join(out_dir, "probe.err"))
        if p.code != 0:
            self.fail(0, f"set-up probe exited with {p.code}")
        return p.wall_s

    def timed_round(self, v: Variant) -> None:
        """The command, preceded by a set-up probe in the run's first SETUP_PROBES rounds."""
        w, out_dir = self.workload, self.out_dir()
        if len(self.setup_s) < SETUP_PROBES:
            self.setup_s.append(self.probe())
        out = os.path.join(out_dir, "main.out")
        proc = self.launcher.spawn(cli(w.argv(v, out)), child_env(), os.path.join(out_dir, "main.err"))
        self.verify(v, out, proc)
        items = w.items
        self.items_per_s.append(items / proc.wall_s)
        self.cpu_s_per_kitem.append(proc.cpu_s / items * 1000.0)
        self.rss_mb.append(proc.rss_mb)

    def traced_round(self, v: Variant, hash_seed: int) -> None:
        """Untraced then traced run of one command under one PYTHONHASHSEED."""
        w, out_dir = self.workload, self.out_dir()
        env = child_env({"PYTHONHASHSEED": str(hash_seed)})
        plain, traced = os.path.join(out_dir, "plain.out"), os.path.join(out_dir, "traced.out")
        proc = self.launcher.spawn(cli(w.argv(v, plain)), env, os.path.join(out_dir, "plain.err"))
        self.verify(v, plain, proc)
        if proc.code != 0:
            return
        self.cpu_util.append(proc.cpu_s / proc.wall_s)
        trace_json = os.path.join(out_dir, "trace.json")
        tracer = [sys.executable, os.path.join(BENCH, "traced.py"), trace_json, "--"]
        tproc = self.launcher.spawn(tracer + w.argv(v, traced), env, os.path.join(out_dir, "traced.err"))
        if tproc.code != 0:
            self.fail(w.items, f"traced run exited with {tproc.code}")
            return
        with open(plain, "rb") as a, open(traced, "rb") as b:
            if a.read() != b.read():
                self.fail(w.items, f"traced output differs from untraced on variant {v.index}")
        with open(trace_json, encoding="utf-8") as fp:
            doc = json.load(fp)
        if not os.path.abspath(doc["module"]).startswith(SRC + os.sep):
            self.fail(w.items, f"traced run imported prioradapt from {doc['module']}")
        doc["wall_s"], doc["plain_wall_s"] = tproc.wall_s, proc.wall_s
        self.traces.append(doc)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(rec: Record) -> dict[str, tuple[float, str, list[float]]]:
    """name -> (value, unit, samples).  Quality is averaged over the run's variants."""
    q = [rec.quality[i] for i in sorted(rec.quality)]
    gain = [v.accuracy_gain_pts for v in q]
    l1 = [v.prior_l1_error for v in q]
    ok = (rec.attempted - rec.failed) / rec.attempted if rec.attempted else 0.0
    return {
        "items_per_s": (_median(rec.items_per_s), "1/s", rec.items_per_s),
        "setup_s": (_median(rec.setup_s), "s", rec.setup_s),
        "peak_rss_mb": (_median(rec.rss_mb), "MB", rec.rss_mb),
        "cpu_s_per_kitem": (_median(rec.cpu_s_per_kitem), "s", rec.cpu_s_per_kitem),
        "pass_ratio": (ok, "ratio", [ok]),
        "accuracy_gain_pts": (float(np.mean(gain)) if gain else 0.0, "pts", gain),
        "prior_l1_error": (float(np.mean(l1)) if l1 else 0.0, "1", l1),
    }


def _span(doc: dict, name: str, key: str = "self_s") -> float:
    return doc["spans"].get(name, {}).get(key, 0)


def _layer_self(doc: dict, layer: str) -> float:
    return sum(s["self_s"] for name, s in doc["spans"].items() if name.split(".")[0] == layer)


def _percentile_with_tail(samples: list[float], tail: int = 10) -> tuple[float, float]:
    """The highest whole percentile with at least ``tail`` samples beyond it, and its value."""
    n = len(samples)
    if n <= tail:
        return 0.0, 0.0
    pct = float(np.floor(100.0 * (1.0 - tail / n)))
    return pct, float(np.percentile(samples, pct))


def trace_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced process.  Times are self times, wrapper cost removed."""
    solves = doc["solves"]
    calls = lambda name: _span(doc, name, "calls")  # noqa: E731
    rows = calls("fileio.read_rows") - _span(doc, "fileio.read_rows", "raised")
    return {
        "cli.import_s": doc["import_s"],
        "cli.main_s": doc["main_s"],
        "cli.self_s": _layer_self(doc, "cli"),
        "fileio.side_load_s": _span(doc, "fileio.side_load"),
        "fileio.read_rows_s": _span(doc, "fileio.read_rows"),
        "fileio.read_rows": rows,
        "fileio.format_s": _span(doc, "fileio.format"),
        "fileio.format_calls": calls("fileio.format"),
        "fileio.self_s": _layer_self(doc, "fileio"),
        "core.validate_s": _span(doc, "core.validate"),
        "core.validate_calls": calls("core.validate"),
        "core.decide_s": _span(doc, "core.decide"),
        "core.decide_calls": calls("core.decide"),
        "core.reweight_s": _span(doc, "core.reweight"),
        "core.changed_ratio": doc["changed"] / doc["adapted"] if doc["adapted"] else 0.0,
        "core.fallback_rows": doc["fallbacks"],
        "core.self_s": _layer_self(doc, "core"),
        "monitor.ingest_s": _span(doc, "monitor.ingest") + _span(doc, "monitor.ingest_scored"),
        "monitor.ingest_calls": calls("monitor.ingest"),
        "monitor.snapshot_s": _span(doc, "monitor.snapshot"),
        "monitor.self_s": _layer_self(doc, "monitor"),
        "estimators.qp_s": _span(doc, "estimators.qp"),
        "estimators.qp_calls": calls("estimators.qp"),
        "estimators.inverse_s": _span(doc, "estimators.inverse"),
        "estimators.other_s": _span(doc, "estimators.other"),
        "estimators.failures": sum(
            s["raised"] for name, s in doc["spans"].items() if name.startswith("estimators.")
        ),
        "estimators.self_s": _layer_self(doc, "estimators"),
        "solver.lsq_s": _span(doc, "solver.lsq"),
        "solver.lsq_calls": calls("solver.lsq"),
        "solver.lsq_first_ms": solves[0]["ms"] if solves else 0.0,
        "solver.linear_s": _span(doc, "solver.linear"),
        "solver.linear_first_ms": doc["linear_ms"][0] if doc["linear_ms"] else 0.0,
        "solver.iterations_mean": float(np.mean([s["iterations"] for s in solves])) if solves else 0.0,
        "solver.kkt_max": max((s["kkt"] for s in solves), default=0.0),
        "solver.self_s": _layer_self(doc, "solver"),
        "harness.generate_s": _span(doc, "harness.generate"),
        "harness.generate_calls": calls("harness.generate"),
        "harness.confusion_measure_s": _span(doc, "harness.confusion_measure"),
        "harness.cv_self_s": _span(doc, "harness.cv"),
        "harness.self_s": _layer_self(doc, "harness"),
        "trace.overhead_s": doc["overhead_s"],
    }


#: Per-layer metrics taken as the maximum over a run's traced processes, so
#: cold-call spikes and worst-case solver defects are never filtered out.
WORST_CASE = ("solver.lsq_first_ms", "solver.linear_first_ms", "solver.kkt_max")


def per_layer(rec: Record) -> tuple[dict[str, float], dict]:
    per_doc = [trace_metrics(doc) for doc in rec.traces]
    values = {}
    for name in per_doc[0] if per_doc else ():
        column = [m[name] for m in per_doc]
        values[name] = max(column) if name in WORST_CASE else _median(column)
    warm = [s["ms"] for doc in rec.traces for s in doc["solves"][1:]]
    pct, top = _percentile_with_tail(warm)
    values["solver.lsq_warm_p50_ms"] = _median(warm)
    values["solver.lsq_warm_ptop_ms"] = top
    values["solver.lsq_warm_n"] = len(warm)
    gaps = [v.objective_gap_max for v in rec.quality.values() if np.isfinite(v.objective_gap_max)]
    values["solver.objective_gap_max"] = max(gaps, default=0.0)
    values["proc.cpu_util"] = _median(rec.cpu_util)
    info = {
        "traced_processes": len(rec.traces),
        "lsq_first_ms_each": [m["solver.lsq_first_ms"] for m in per_doc],
        "linear_first_ms_each": [m["solver.linear_first_ms"] for m in per_doc],
        "lsq_warm_ptop_percentile": pct,
        "self_sum_minus_main_plus_overhead_s": [
            sum(s["self_s"] for s in doc["spans"].values()) - doc["main_s"] + doc["overhead_s"]
            for doc in rec.traces
        ],
        "traced_minus_untraced_wall_s": [doc["wall_s"] - doc["plain_wall_s"] for doc in rec.traces],
        "overhead_s_each": [doc["overhead_s"] for doc in rec.traces],
    }
    return values, info


PER_LAYER_UNITS = {
    "_s": "s", "_ms": "ms", "_calls": "count", "_ratio": "ratio", "_rows": "count",
    "_mean": "iterations", "_max": "1", "_n": "count", "_util": "ratio", "failures": "count",
}


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


# ---------------------------------------------------------------------------
# metadata
# ---------------------------------------------------------------------------

def _openblas_threads() -> int | None:
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "prioradapt")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fp:
                h.update(fp.read())
    return h.hexdigest()


def metadata(records: list[Record], calibration: list[float]) -> dict:
    import scipy
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads_default": _openblas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "environment": {k: os.environ.get(k) for k in RECORDED_ENV},
        "calibration_loop_s": calibration,
        "inputs_sha256": {
            rec.workload.name: {f"v{i}": v.sha256 for i, v in sorted(rec.variants.loaded.items())}
            for rec in records
        },
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def measure(names: list[str], seed: int, seconds: float, trace: bool) -> tuple[list[Record], list[float]]:
    launcher = Launcher()
    try:
        records = []
        for code, name in enumerate(WORKLOADS):
            if name in names:
                w = WORKLOADS[name]
                records.append(Record(w, Inputs(w, seed, code), launcher))
        # Inputs are generated, and the package's bytecode compiled, before timing starts.
        for rec in records:
            for i in range(len(rec.variants)):
                rec.variants[i]
            rec.probe()
        calibration, round_s = [], []
        start = time.perf_counter()
        min_rounds = 1 if trace else max([MIN_ROUNDS] + [r.workload.variants for r in records])
        rounds = 0
        stop = start + max(seconds, ROUNDS_STOP_S)
        # A round starts only if one as long as the last would end by --seconds.
        while time.perf_counter() < stop and (
            rounds < min_rounds
            or time.perf_counter() + (round_s[-1] if round_s else 0.0) <= start + seconds
        ):
            t0 = time.perf_counter()
            calibration.append(calibration_s())
            for rec in records:
                v = rec.variants[rounds % len(rec.variants)]
                if trace:
                    rec.traced_round(v, hash_seed=(seed * 7919 + rounds) % 4294967296)
                else:
                    rec.timed_round(v)
            round_s.append(time.perf_counter() - t0)
            rounds += 1
    finally:
        launcher.close()
    return records, calibration


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "prioradapt", "__main__.py")):
        print(f"error: no prioradapt package under {SRC}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records, calibration = measure(names, args.seed, args.seconds, bool(args.trace))

    metrics, details = {}, {}
    prefix = (lambda rec: rec.workload.name + ".") if args.workload == "all" else (lambda rec: "")
    for rec in records:
        if args.trace:
            values, info = per_layer(rec)
            for name, value in values.items():
                metrics[prefix(rec) + name] = {"value": value, "unit": unit_of(name)}
            details[rec.workload.name] = info
            continue
        print(f"{rec.workload.name}: {rec.attempted} items attempted, {rec.failed} failed")
        for name, (value, unit, samples) in end_to_end(rec).items():
            q1, q3 = _quartiles(samples)
            print(f"  {name:18s} {value:14.6g} {unit:6s} q1 {q1:.6g} q3 {q3:.6g} n={len(samples)}")
            metrics[prefix(rec) + name] = {"value": value, "unit": unit}
    for rec in records:
        for problem in rec.problems:
            print(f"{rec.workload.name}: check failed: {problem}")
    meta = metadata(records, calibration)
    meta["trace_details"] = details
    print(json.dumps({"meta": meta}))
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    correct = attempted > 0 and failed == 0 and not any(r.problems for r in records)
    for metric in metrics.values():
        if not np.isfinite(metric["value"]):
            metric["value"] = 0.0  # only after a failed check; keeps the line valid JSON
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
