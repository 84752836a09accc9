"""Command-line surface.

Five commands: ``normalize`` a confusion CSV, ``estimate`` priors from a
decision or score stream, ``reweight`` a score stream with priors,
``simulate`` a synthetic deployment stream, and ``evaluate`` scenarios
into a comparison table.

Exit codes: 0 success, 2 parse or validation failure, 3 solver failure,
4 I/O failure or an allocation that failed.  All outputs are UTF-8 with
LF line endings.  For fixed seeds and inputs they are byte-stable on one
numpy/BLAS build at any thread setting of the caller: importing this
module loads numpy with ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` set to 1, over any value the caller set, because
the last digits of a solve can depend on the BLAS thread count.  It then
gives the three variables back their earlier values, or unsets them, so
processes the caller starts later inherit its own setting.  Across
numpy/BLAS builds the last digits of the solver-based estimates may
differ.  A caller that imports this module after numpy has loaded keeps
its own BLAS threads, and so does its in-process :func:`main`.

``reweight`` parses its scores body in a forked reader process when the
command may use more than one CPU, while this process decides, solves and
writes.  Under ``--lenient`` the reader yields each skipped row's error in
that row's place, so the warnings come out in file order between the
blocks around them; the bytes, the warnings and the exit codes are the
same as when it reads in process.

``evaluate`` without a scenario file cross-validates the built-in suite in
up to one process per CPU the command may run on, and at most one per
context.  The output bytes do not depend on that number; ``taskset -c 0``
runs the suite in one process.  A cgroup CPU quota below the affinity set
is not read.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import stat
import sys
import tempfile
from functools import partial
from typing import Iterator, Optional

# One BLAS thread, whatever the caller set: the last digits of a solve can
# depend on the thread count, and so would the output bytes.  OpenBLAS reads
# these once, when numpy loads it, so they are set for that import only and
# then given back, so that the caller's child processes inherit its own.
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_callers = {name: os.environ.get(name) for name in _BLAS_THREADS}
os.environ.update(dict.fromkeys(_BLAS_THREADS, "1"))
try:
    import numpy as np
finally:
    for name, value in _callers.items():
        if value is None:
            del os.environ[name]
        else:
            os.environ[name] = value

from . import fileio
from .core import (
    METHODS,
    AdaptedPolicy,
    PriorEstimate,
    reweight_batch,
)
# Bound here, though unused, because bench/traced.py patches these names.
from .core import decide_adapted, decide_baseline, reweight, reweight_normalized
from .errors import (
    ConvergenceError,
    IllConditionedError,
    ParseError,
    PriorAdaptError,
    SingularMatrixError,
    ValidationError,
)
# Bound here, though unused, because bench/traced.py patches these names.
from .estimators import (
    estimate_matrix_inverse,
    estimate_naive,
    estimate_precision_recall,
    estimate_qp,
    precision_recall,
)
from .harness import (
    EvaluationRow,
    adapt,
    cross_validate,
    default_suite,
    estimator,
    evaluate_suite,
    read_ahead,
    run_drift_scenario,
    simulate_stream,
)
from .monitor import StreamMonitor

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_IO = 4

_SOLVER_ERRORS = (ConvergenceError, IllConditionedError, SingularMatrixError)

_METHOD_BY_FLAG = {m.flag: m.name for m in METHODS if m.flag is not None}

DEFAULT_FOLDS = 10


def _add_global_options(parser: argparse.ArgumentParser, for_subcommand: bool) -> None:
    # Sub-parsers share the namespace with the main parser and would clobber
    # already-parsed values with their defaults, so they suppress instead.
    default = argparse.SUPPRESS if for_subcommand else None
    parser.add_argument(
        "--seed", type=int, default=default,
        help="override the scenario seeds of simulate and evaluate",
    )
    parser.add_argument(
        "--output",
        default=default,
        help="output path (default: stdout)",
    )
    parser.add_argument(
        "--format",
        choices=("markdown", "csv", "json"),
        default=argparse.SUPPRESS if for_subcommand else "markdown",
        help="table format for evaluate (default: markdown)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        default=argparse.SUPPRESS if for_subcommand else False,
        help="suppress progress messages",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prioradapt",
        description=(
            "Estimate deployment class priors from a classifier's decision "
            "stream and re-weight its scores."
        ),
    )
    _add_global_options(parser, for_subcommand=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, for_subcommand=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", parents=[common], help="row-normalize a confusion CSV")
    p.add_argument("confusion", help="confusion CSV (counts or rates)")

    p = sub.add_parser("estimate", parents=[common], help="estimate class priors from a stream")
    p.add_argument("confusion", help="row-normalized confusion CSV")
    p.add_argument("stream", help="decision indices (one per line) or scores CSV")
    p.add_argument(
        "--method",
        choices=(*_METHOD_BY_FLAG, "all"),
        default="all",
        help="estimator to run (default: all)",
    )
    p.add_argument("--window", type=int, default=None, help="sliding-window length")

    p = sub.add_parser("reweight", parents=[common], help="re-weight a score stream with priors")
    p.add_argument("scores", help="scores CSV")
    p.add_argument("--priors", default=None, help="priors JSON (static re-weighting)")
    p.add_argument(
        "--confusion", default=None,
        help="confusion CSV for live re-estimation instead of --priors",
    )
    p.add_argument(
        "--method",
        choices=tuple(_METHOD_BY_FLAG),
        default=None,
        help="method to pick from the priors JSON, or the live estimator",
    )
    p.add_argument(
        "--reestimate-every", type=int, default=None,
        help="with --confusion: re-estimate priors every N records",
    )
    p.add_argument("--window", type=int, default=None, help="sliding-window length")
    p.add_argument(
        "--lenient", action="store_true",
        help="skip malformed rows with a warning instead of failing",
    )

    p = sub.add_parser("simulate", parents=[common], help="synthesize a deployment stream")
    p.add_argument("scenario", help="scenario JSON with a classifier section")

    p = sub.add_parser("evaluate", parents=[common], help="compare estimators across scenarios")
    p.add_argument(
        "scenario", nargs="?", default=None,
        help="scenario JSON; omit for the built-in 12-scenario suite",
    )
    p.add_argument(
        "--folds", type=int, default=None,
        help=f"cross-validation folds (default: {DEFAULT_FOLDS}); not for drift scenarios",
    )
    p.add_argument("--window", type=int, default=None, help="window for drift scenarios")
    p.add_argument(
        "--reestimate-every", type=int, default=None,
        help="re-estimation cadence for drift scenarios (default: 50; no validated "
        "default exists, 50 is just a starting point)",
    )
    return parser


@contextlib.contextmanager
def _open_output(path: Optional[str]):
    """Yield a text handle on ``path``, or on stdout when it is None.

    A regular file is written under a temporary name in its directory and
    renamed onto ``path`` only when the block succeeds, so a failing
    command leaves no partial file and an existing one untouched.  The
    file gets the mode a plain ``open(path, "w")`` would give it.  Other
    targets, such as a device or a pipe, are written in place.
    """
    if path is None:
        yield sys.stdout
        return
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)  # the umask can only be read by setting it
        os.umask(umask)
        mode = stat.S_IFREG | (0o666 & ~umask)
    if not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8", newline="\n") as fp:
            yield fp
        return
    target = os.path.realpath(path)  # through a symbolic link, as open() writes
    try:
        fd, tmp = tempfile.mkstemp(
            prefix=f".{os.path.basename(target)}.", suffix=".tmp", dir=os.path.dirname(target)
        )
    except OSError as exc:
        # Name the path asked for, not the random temporary name.
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fp:
            yield fp
        os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _exit_code(exc: BaseException) -> int:
    """3 for a solver failure, 2 for any other package error, 4 for I/O and allocation failures."""
    if isinstance(exc, _SOLVER_ERRORS):
        return EXIT_SOLVER
    return EXIT_VALIDATION if isinstance(exc, PriorAdaptError) else EXIT_IO


def _describe(exc: PriorAdaptError, best_iterate_format: str) -> str:
    """``Type: message``, then a convergence failure's best iterate put into ``best_iterate_format``."""
    text = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, ConvergenceError) and exc.best_iterate is not None:
        text += best_iterate_format.format(", ".join(fileio.format_float(v) for v in exc.best_iterate))
    return text


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_normalize(args) -> int:
    conf = fileio.read_confusion_csv(args.confusion)
    with _open_output(args.output) as fp:
        fileio.write_confusion_csv(conf, fp)
    return EXIT_OK


def _ingest_stream(args, conf) -> StreamMonitor:
    monitor = StreamMonitor(conf.catalog, window=args.window)
    with fileio.TextInput(args.stream) as stream:
        if fileio.stream_kind(stream) == "decisions":
            blocks = fileio.read_decision_stream(stream, conf.k)
        else:
            catalog, rows = fileio.read_score_records(stream)
            if catalog != conf.catalog:
                raise ValidationError(
                    "scores CSV classes do not match the confusion matrix classes"
                )
            blocks = (scores.argmax(axis=1) for scores in rows)
        for block in blocks:
            monitor.ingest_many(block)
    return monitor


def cmd_estimate(args) -> int:
    conf = fileio.read_confusion_csv(args.confusion)
    monitor = _ingest_stream(args, conf)
    hist = monitor.snapshot()

    wanted = list(_METHOD_BY_FLAG.values()) if args.method == "all" else [_METHOD_BY_FLAG[args.method]]
    estimate = estimator(conf)
    estimates, failures = {}, {}
    for method in wanted:
        try:
            estimates[method] = estimate(method, hist)
        except PriorAdaptError as exc:
            failures[method] = exc

    doc = fileio.priors_document(
        conf.catalog, estimates,
        {method: _describe(exc, " (best iterate: {})") for method, exc in failures.items()},
        total_decisions=hist.total,
    )
    with _open_output(args.output) as fp:
        fileio.write_json(doc, fp)
    return EXIT_OK if estimates else max(map(_exit_code, failures.values()))


def _reweight_header(catalog) -> str:
    raw = ",".join(f"raw_{l}" for l in catalog.labels)
    norm = ",".join(f"norm_{l}" for l in catalog.labels)
    return f"baseline,adapted,{raw},{norm}\n"


def _reweight_rows(scores, policy) -> str:
    adapted, raw, norm = reweight_batch(scores, policy)
    # Class indices are exact in float64, and %.17g prints them as integers.
    return fileio.format_rows(np.column_stack([scores.argmax(axis=1), adapted, raw, norm]))


def _blocks_of(items, args) -> Iterator[np.ndarray]:
    """The score arrays of the reader's ``items``, noting each skipped row's error where it falls."""
    for item in items:
        if isinstance(item, ParseError):
            _note(args, f"warning: {item}")
        else:
            yield item


def cmd_reweight(args) -> int:
    if (args.priors is None) == (args.confusion is None):
        raise ValidationError("reweight needs exactly one of --priors or --confusion")
    if args.priors is not None and (args.window, args.reestimate_every) != (None, None):
        raise ValidationError("--window and --reestimate-every apply only with --confusion")
    if args.confusion is not None:
        if args.reestimate_every is None or args.reestimate_every < 1:
            raise ValidationError("--confusion requires --reestimate-every N (N >= 1)")
        conf = fileio.read_confusion_csv(args.confusion)
    with fileio.TextInput(args.scores) as stream:
        if stream.empty():
            # An empty stream re-weights to an empty stream.  With no header the
            # priors' class labels cannot be checked, but the file must be JSON.
            if args.priors is not None:
                fileio.read_json(args.priors)
            with _open_output(args.output) as fp:
                pass
            return EXIT_OK

        catalog, items = fileio.read_score_records(stream, args.lenient)
        if args.priors is not None:
            method = _METHOD_BY_FLAG[args.method] if args.method else None
            values, tag = fileio.read_priors_json(args.priors, catalog, method)
            policy = AdaptedPolicy.from_priors(PriorEstimate(values / values.sum(), method=tag))
        elif conf.catalog != catalog:
            raise ValidationError("scores CSV classes do not match the confusion matrix classes")
        # The body is parsed ahead, in a second process where one can run,
        # while this one decides and writes; it holds no handle on the output.
        with read_ahead(lambda: items) as ahead:
            blocks = _blocks_of(ahead, args)
            if args.priors is not None:
                parts = ((scores, policy) for scores in blocks)
            else:
                # Live mode: re-estimate from the running histogram every N records.
                parts = adapt(
                    blocks, StreamMonitor(catalog, window=args.window),
                    partial(estimator(conf), _METHOD_BY_FLAG[args.method or "qp"]), args.reestimate_every,
                    lambda exc: _note(args, f"warning: keeping previous priors: {exc}"),
                )
            with _open_output(args.output) as fp:
                fp.write(_reweight_header(catalog))
                for scores, policy in parts:
                    fp.write(_reweight_rows(scores, policy))
    return EXIT_OK


def cmd_simulate(args) -> int:
    if args.output is None:
        raise ValidationError("simulate requires --output PREFIX for its two files")
    spec, clf = fileio.read_scenario_json(args.scenario, seed_override=args.seed)
    if clf is None:
        raise ValidationError("scenario JSON needs a classifier section to simulate")

    scores_path = args.output + ".scores.csv"
    truth_path = args.output + ".truth.csv"
    labels = spec.catalog.labels

    segments = [(0, spec.true_priors)] + [(d.start, d.priors) for d in (spec.drift or ())]
    with _open_output(scores_path) as scores_fp, _open_output(truth_path) as truth_fp:
        scores_fp.write(",".join(f"s_{l}" for l in labels) + "\n")
        truth_fp.write("# true priors per segment; each segment begins at the named row index\n")
        for seg_no, (start, priors) in enumerate(segments):
            nonzero = {labels[i]: float(p) for i, p in enumerate(priors) if p > 0.0}
            truth_fp.write(f"# segment {seg_no} from row {start}: {json.dumps(nonzero)}\n")
        truth_fp.write("index,label,segment\n")
        index = 0
        for scores, truth, segment in simulate_stream(spec, clf):
            scores_fp.write(fileio.format_rows(scores))
            truth_fp.write("".join(f"{i},{labels[t]},{segment}\n" for i, t in enumerate(truth, index)))
            index += len(truth)
    _note(args, f"wrote {scores_path} and {truth_path}")
    return EXIT_OK


def _best_by_scenario(rows: list[EvaluationRow]) -> dict[str, Optional[str]]:
    best: dict[str, Optional[str]] = {}
    for scenario in _scenario_order(rows):
        candidates = {
            r.method: r.accuracy
            for r in rows
            if r.scenario == scenario and r.method in _METHOD_BY_FLAG.values()
            and r.accuracy is not None
        }
        if not candidates:
            best[scenario] = None
            continue
        top = max(candidates.values())
        best[scenario] = next(m.name for m in METHODS if candidates.get(m.name) == top)
    return best


def _scenario_order(rows: list[EvaluationRow]) -> list[str]:
    seen: dict[str, None] = {}
    for r in rows:
        seen.setdefault(r.scenario, None)
    return list(seen)


def _cell(row: EvaluationRow) -> str:
    if row.accuracy is None:
        return "N/A"
    text = f"{row.accuracy:.3f}"
    if row.folds > 1 and row.accuracy_std is not None:
        text += f"±{row.accuracy_std:.3f}"
    return text


def render_markdown(rows: list[EvaluationRow]) -> str:
    scenarios = _scenario_order(rows)
    best = _best_by_scenario(rows)
    by = {(r.scenario, r.method): r for r in rows}
    methods = [m for m in METHODS if any((s, m.name) in by for s in scenarios)]
    lines = ["| Method | " + " | ".join(scenarios) + " |"]
    lines.append("| --- |" + " --- |" * len(scenarios))
    for method in methods:
        cells = []
        for scenario in scenarios:
            row = by.get((scenario, method.name))
            if row is None:
                cells.append("N/A")
                continue
            text = _cell(row)
            if best.get(scenario) == method.name and row.accuracy is not None:
                text = f"**{text}**"
            cells.append(text)
        lines.append(f"| {method.display} | " + " | ".join(cells) + " |")
    if any("/segment-" in s for s in scenarios):
        lines.append("")
        lines.append(
            "Per-segment rows come from the windowed drift extension, "
            "not the validated batch protocol."
        )
    return "\n".join(lines) + "\n"


def _csv_cell(text: str) -> str:
    """Quote a cell holding a comma, a quote or a line break, bare ``\\r`` included."""
    if any(c in text for c in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(rows: list[EvaluationRow]) -> str:
    best = _best_by_scenario(rows)
    lines = ["scenario,method,accuracy_mean,accuracy_std,folds,prior_l1_error,best,error\n"]
    for r in rows:
        cells = [
            r.scenario,
            r.method,
            fileio.format_float(r.accuracy) if r.accuracy is not None else "",
            fileio.format_float(r.accuracy_std) if r.accuracy_std is not None else "",
            str(r.folds),
            fileio.format_float(r.prior_l1_error) if r.prior_l1_error is not None else "",
            "1" if best.get(r.scenario) == r.method else "0",
            r.error or "",
        ]
        lines.append(",".join(_csv_cell(c) for c in cells) + "\n")
    return "".join(lines)


def render_json(rows: list[EvaluationRow]) -> str:
    best = _best_by_scenario(rows)
    doc = {
        "scenarios": _scenario_order(rows),
        "best": best,
        "rows": [
            {
                "scenario": r.scenario,
                "method": r.method,
                "accuracy_mean": r.accuracy,
                "accuracy_std": r.accuracy_std,
                "folds": r.folds,
                "prior_l1_error": r.prior_l1_error,
                "error": r.error,
            }
            for r in rows
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def cmd_evaluate(args) -> int:
    spec = None
    if args.scenario is not None:
        spec, clf = fileio.read_scenario_json(args.scenario, seed_override=args.seed)
        if clf is None:
            raise ValidationError("scenario JSON needs a classifier section to evaluate")
    if spec is not None and spec.drift:
        if args.folds is not None:
            raise ValidationError("--folds applies only to cross-validation, not to drift scenarios")
        rows = run_drift_scenario(
            spec, clf,
            window=args.window if args.window is not None else spec.transfer_size,
            reestimate_every=50 if args.reestimate_every is None else args.reestimate_every,
        )
    elif (args.window, args.reestimate_every) != (None, None):
        raise ValidationError("--window and --reestimate-every apply only to drift scenarios")
    else:
        folds = DEFAULT_FOLDS if args.folds is None else args.folds
        if folds < 2:
            raise ValidationError(f"--folds must be >= 2, got {folds}")
        if spec is not None:
            rows = cross_validate(spec, clf, folds=folds)
        else:
            suite = default_suite() if args.seed is None else default_suite(args.seed)
            smallest = min(s.transfer_size + s.test_size for s in suite.scenarios)
            if folds > smallest:
                raise ValidationError(f"--folds {folds} exceeds the smallest pool, {smallest} records")
            rows = evaluate_suite(suite, folds=folds)
    renderer = {"markdown": render_markdown, "csv": render_csv, "json": render_json}
    with _open_output(args.output) as fp:
        fp.write(renderer[args.format](rows))
    if all(r.accuracy is None for r in rows):
        return EXIT_SOLVER
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "normalize": cmd_normalize,
    "estimate": cmd_estimate,
    "reweight": cmd_reweight,
    "simulate": cmd_simulate,
    "evaluate": cmd_evaluate,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed is not None and args.seed < 0:
            raise ValidationError(f"--seed must be a non-negative integer, got {args.seed}")
        return _COMMANDS[args.command](args)
    except (PriorAdaptError, OSError, MemoryError) as exc:
        code = _exit_code(exc)
        # A MemoryError that Python itself raises carries no message.
        message = _describe(exc, "\nbest iterate: {}") if code == EXIT_SOLVER else str(exc) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
