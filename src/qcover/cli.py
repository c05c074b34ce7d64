"""
Command-line entry point.

    qcover cover       parse -> transpile -> instrument -> run -> report
    qcover mutate      mutation campaign per circuit, optional CSV export
    qcover instrument  dump the transpiled or instrumented form of a circuit

Global flags (also settable via QCOVER_* environment variables), given
before or after the subcommand: --seed, --epsilon, --qubit-limit, --jobs,
--quiet, --time-limit.  Exit codes:
0 success, 1 any per-file failure, engine-error verdict, unwritable
output path (--json, --csv) or stdout closed early, 2 usage error.
All randomness is seeded (default 0) and a mutant times out by its gate
count, not by a clock, so identical inputs and flags give identical
outputs.  `cover` and `mutate` share one batch loop: each input file is one
job (in a process pool with --jobs above 1), and each result prints as soon
as it and every earlier one are ready, in input order; `cover --json` writes
each report's file then too.  A failed file prints one error line.  An
interval timer (SIGALRM) interrupts a circuit wherever it is when its
--time-limit runs out; it is skipped with a warning, not failed.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import signal
import statistics
import sys
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path

from . import coverage, mutation, qasm, simulator
from .probes import instrument, render
from .transpiler import provenance_report, transpile

_METRICS = ("condition", "decision", "path")
_FAMILIES = ("coverage", "jain", "probabilistic")


def _env_default(name: str, fallback, convert):
    raw = os.environ.get(f"QCOVER_{name}")
    if raw is None:
        return fallback
    try:
        return convert(raw)
    except ValueError:
        raise SystemExit(f"qcover: invalid QCOVER_{name}={raw!r}")


def _common_flags(parser: argparse.ArgumentParser) -> None:
    """Add the global flags with no defaults of their own.

    Only the root parser sets their defaults: a subparser default would
    overwrite a flag given before the subcommand.
    """
    parser.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for every random choice (default 0)")
    parser.add_argument("--epsilon", type=float, default=argparse.SUPPRESS,
                        help="certainty threshold for classifying expectations as +/-1")
    parser.add_argument("--qubit-limit", type=int, default=argparse.SUPPRESS,
                        help="refuse circuits beyond this many qubits")
    parser.add_argument("--jobs", type=int, default=argparse.SUPPRESS,
                        help="worker processes for batch runs")
    parser.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="suppress per-circuit output")
    parser.add_argument("--time-limit", type=float, metavar="SECONDS",
                        default=argparse.SUPPRESS,
                        help="interrupt a single circuit past this budget, "
                             "parse included, and skip it without failing the "
                             "batch")


def _operator_list(raw: str) -> tuple[str, ...]:
    return tuple(op.strip() for op in raw.split(",") if op.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcover",
        description="Controlled-gate coverage and mutation analysis for OpenQASM 2 circuits")
    _common_flags(parser)
    parser.set_defaults(
        seed=_env_default("SEED", 0, int),
        epsilon=_env_default("EPSILON", coverage.DEFAULT_EPSILON, float),
        qubit_limit=_env_default("QUBIT_LIMIT", simulator.DEFAULT_QUBIT_LIMIT, int),
        jobs=_env_default("JOBS", 1, int),
        quiet=_env_default("QUIET", False, lambda s: s not in ("", "0")),
        time_limit=_env_default("TIME_LIMIT", None, float))
    sub = parser.add_subparsers(dest="command", required=True)

    cover = sub.add_parser("cover", help="compute coverage metrics")
    _common_flags(cover)
    cover.add_argument("paths", nargs="+", help=".qasm files or directories")
    cover.add_argument("--summary", action="store_true",
                       help="aggregate min/max/median/avg over all circuits")
    cover.add_argument("--json", metavar="DIR", help="write one JSON report per circuit")

    mutate = sub.add_parser("mutate", help="run a mutation campaign")
    _common_flags(mutate)
    mutate.add_argument("paths", nargs="+", help=".qasm files or directories")
    mutate.add_argument("--operators", default="qgr,qgd,qgi", type=_operator_list,
                        help="comma-separated subset of qgr,qgd,qgi")
    mutate.add_argument("--budget", type=int, default=None,
                        help="cap mutants per circuit (seeded subsample)")
    mutate.add_argument("--timeout-factor", type=float,
                        default=mutation.DEFAULT_TIMEOUT_FACTOR,
                        help="gate-count ratio, mutant to original, beyond "
                             "which a mutant times out")
    mutate.add_argument("--tolerance", type=float, default=mutation.DEFAULT_TOLERANCE,
                        help="statevector equivalence tolerance")
    mutate.add_argument("--csv", metavar="PATH", help="write the campaign table")

    instr = sub.add_parser("instrument", help="dump transpiled/instrumented circuit")
    _common_flags(instr)
    instr.add_argument("path", help="one .qasm file")
    instr.add_argument("--stage", choices=("transpiled", "instrumented"),
                       default="instrumented")
    instr.add_argument("--provenance", action="store_true",
                       help="also print the cx provenance table")

    return parser


class _TimeLimit(BaseException):
    """A circuit ran past --time-limit; not an Exception, so that judge()
    does not take it for an engine error."""


def _limited(worker, path: Path, args):
    """worker(path, args), interrupted by ITIMER_REAL past args.time_limit.

    A zero limit skips before the parse (a zero interval would disarm the
    timer), and one the timer cannot hold is no limit.  On the way out the
    timer is disarmed and the previous SIGALRM handler restored.
    """
    limit = args.time_limit
    if limit is None:
        return worker(path, args)

    def expire(*_):
        raise _TimeLimit(f"time limit of {limit}s exceeded")

    if limit == 0:
        expire()
    previous = signal.signal(signal.SIGALRM, expire)
    try:
        with contextlib.suppress(OverflowError):
            signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            return worker(path, args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    finally:  # apart: the alarm may go off just before it is disarmed
        signal.signal(signal.SIGALRM, previous)


def _expand_paths(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.extend(sorted(p.glob("*.qasm")))
        else:
            out.append(p)
    return out


def _load(path: Path):
    # parse checks what ir.validate would: operand and parameter counts,
    # distinct operands (of barriers too), qubit and clbit ranges and ids
    return qasm.parse_file(str(path))


def _analyze_circuit(circuit, name: str, args):
    transpiled = transpile(circuit)
    probed = instrument(transpiled)
    result = simulator.run(probed, seed=args.seed, qubit_limit=args.qubit_limit)
    return coverage.analyze(result.probes, transpiled, epsilon=args.epsilon,
                            circuit_name=name)


def _cover_one(path: Path, args) -> coverage.CoverageReport:
    """Worker for the cover pipeline."""
    return _analyze_circuit(_load(path), path.name, args)


def _run_batch(paths: list[Path], args, worker, show) -> int:
    """Run worker(path, args) over the input paths and show each result.

    With --jobs above 1 the inputs run in a process pool of at most one
    worker per input.  Either way each result is shown as soon as it and
    every earlier one are ready, in input order, and nothing of it is kept
    after show returns.  Each input runs under _limited in the process
    that runs it.  A failed input prints one error line and makes the exit
    code 1; one past the time limit prints a skip line and does not.
    """
    if not paths:
        print("qcover: no input files", file=sys.stderr)
        return 1
    failed = False

    def settle(path: Path, call) -> None:
        nonlocal failed
        try:
            result = call()
        except _TimeLimit as exc:
            print(f"qcover: {path}: skipped ({exc})", file=sys.stderr)
        except Exception as exc:
            failed = True
            print(f"qcover: {path}: {exc}", file=sys.stderr)
        else:
            show(path, result)

    if args.jobs > 1 and len(paths) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(paths))) as pool:
            try:
                # a shown future is dropped, and its result with it
                pending = deque(pool.submit(_limited, worker, path, args)
                                for path in paths)
                for path in paths:
                    settle(path, pending.popleft().result)
            except BaseException:
                # a raise in show (a closed stdout, Ctrl-C) runs no queued input
                pool.shutdown(cancel_futures=True)
                raise
    else:
        for path in paths:
            settle(path, partial(_limited, worker, path, args))
    return 1 if failed else 0


def _print_report(report: coverage.CoverageReport) -> None:
    print(f"{report.circuit}: {report.num_qubits} qubit(s), "
          f"{report.controlled_gates} controlled gate(s), "
          f"{report.cx_conditions} cx condition(s)")
    if report.controlled_gates == 0:
        print("  fully sequential: no controlled gates, all metrics 100% by definition")
    print(f"  {'metric':<10} {'coverage':>9} {'jain':>9} {'probabilistic':>14}")
    for metric in _METRICS:
        row = [report.metric(fam, metric) for fam in _FAMILIES]
        print(f"  {metric:<10} {row[0]:>9.2f} {row[1]:>9.2f} {row[2]:>14.2f}")


def _summary_row(report: coverage.CoverageReport) -> tuple[float, ...]:
    """The nine metrics of one report, in _print_summary's order."""
    return tuple(report.metric(family, metric)
                 for metric in _METRICS for family in _FAMILIES)


def _print_summary(rows: list[tuple[float, ...]]) -> None:
    print(f"summary over {len(rows)} circuit(s)")
    print(f"  {'metric':<26} {'min':>9} {'max':>9} {'median':>9} {'avg':>9}")
    labels = (f"{metric} {family}" for metric in _METRICS for family in _FAMILIES)
    for label, values in zip(labels, zip(*rows)):
        print(f"  {label:<26} {min(values):>9.2f} {max(values):>9.2f} "
              f"{statistics.median(values):>9.2f} {statistics.mean(values):>9.2f}")


def _write_json(directory: str, report: coverage.CoverageReport) -> None:
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    name = Path(report.circuit).stem + ".json"
    with open(out_dir / name, "w", encoding="utf-8") as fh:
        fh.write(report.to_json_text() + "\n")


def _unwritable(exc: OSError) -> int:
    """Report an output path (--json, --csv) that cannot be written."""
    print(f"qcover: {exc.filename}: {exc.strerror}", file=sys.stderr)
    return 1


def cmd_cover(args) -> int:
    paths = _expand_paths(args.paths)
    if args.json:
        # each report is written to DIR/<file stem>.json
        seen: dict[str, Path] = {}
        for path in paths:
            if path.stem in seen:
                print(f"qcover: --json: {seen[path.stem]} and {path} would both "
                      f"write {path.stem}.json", file=sys.stderr)
                return 2
            seen[path.stem] = path
    rows = []
    json_error: OSError | None = None

    def show(path: Path, report: coverage.CoverageReport) -> None:
        nonlocal json_error
        if not args.quiet:
            _print_report(report)
        if args.json and json_error is None:
            try:
                _write_json(args.json, report)
            except OSError as exc:
                # reported after the summary, and no later report is written;
                # its traceback would keep this report alive
                json_error = exc.with_traceback(None)
        rows.append(_summary_row(report))

    code = _run_batch(paths, args, _cover_one, show)
    if rows and args.summary and not args.quiet:
        _print_summary(rows)
    if json_error is not None:
        return _unwritable(json_error)
    return code


def _mutate_one(path: Path, args):
    """Worker for a mutation campaign; returns (result, mutant lines)."""
    circuit = _load(path)
    report = _analyze_circuit(circuit, path.name, args)
    mutants = mutation.generate_mutants(circuit, args.operators, seed=args.seed,
                                        budget=args.budget)
    result = mutation.campaign(circuit, report, args.operators,
                               circuit_name=path.name, mutants=mutants,
                               tolerance=args.tolerance,
                               timeout_factor=args.timeout_factor,
                               qubit_limit=args.qubit_limit)
    mutant_lines = tuple(
        f"[{m.mutant_id}] {m.operator} {m.detail} @ {m.site} -> {v.status}"
        + (f" (fidelity {v.fidelity:.6f})" if v.fidelity is not None else "")
        for m, v in zip(mutants, result.verdicts))
    return result, mutant_lines


def cmd_mutate(args) -> int:
    for op in args.operators:
        if op not in mutation.OPERATORS:
            print(f"qcover: unknown mutation operator {op!r}", file=sys.stderr)
            return 2
    if not args.operators:
        print("qcover: --operators needs at least one of qgr,qgd,qgi", file=sys.stderr)
        return 2
    rows = []
    engine_error = False

    def show(path: Path, outcome) -> None:
        nonlocal engine_error
        campaign_result, mutant_lines = outcome
        rows.append(campaign_result.csv_row())
        engine_error = engine_error or campaign_result.errors > 0
        if args.quiet:
            return
        score = ("none" if campaign_result.score is None
                 else f"{campaign_result.score:.4f}")
        print(f"{campaign_result.circuit_name}: {campaign_result.mutants} mutant(s), "
              f"killed {campaign_result.killed}, survived {campaign_result.survived}, "
              f"timeout {campaign_result.timeout}, errors {campaign_result.errors}, "
              f"score {score}")
        for op in campaign_result.operators:
            total, k, s, t = campaign_result.per_operator[op]
            print(f"  {op}: {total} mutant(s), {k} killed, {s} survived, {t} timeout")
        for line in mutant_lines:
            print(f"  {line}")

    code = _run_batch(_expand_paths(args.paths), args, _mutate_one, show)
    if args.csv:
        # header-only when no input succeeded, so no older table survives
        try:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write(mutation.csv_header() + "\n")
                for row in rows:
                    fh.write(row + "\n")
        except OSError as exc:
            return _unwritable(exc)
    return 1 if engine_error else code


def cmd_instrument(args) -> int:
    path = Path(args.path)
    try:
        circuit = _load(path)
        transpiled = transpile(circuit)
    except Exception as exc:
        print(f"qcover: {path}: {exc}", file=sys.stderr)
        return 1
    if not transpiled.origins:
        print("// fully sequential circuit: no controlled gates, "
              "coverage is 100% by definition")
    if args.stage == "transpiled":
        sys.stdout.write(qasm.serialize(transpiled.circuit))
    else:
        sys.stdout.write(render(instrument(transpiled)))
    if args.provenance:
        sys.stdout.write("\n" + provenance_report(transpiled))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # written as "not (valid)" so that a NaN is rejected too
    if not 0.0 < args.epsilon < 0.5:
        parser.error("--epsilon must lie in (0, 0.5)")
    if not args.qubit_limit >= 1:
        parser.error("--qubit-limit must be at least 1")
    if not args.jobs >= 1:
        parser.error("--jobs must be at least 1")
    # a zero budget is allowed: it skips every circuit before its parse
    if args.time_limit is not None and not args.time_limit >= 0:
        parser.error("--time-limit must not be negative")
    if getattr(args, "budget", None) is not None and args.budget < 0:
        parser.error("--budget must not be negative")
    if not 0 <= getattr(args, "tolerance", 0.0) < 1:
        parser.error("--tolerance must lie in [0, 1)")
    if not getattr(args, "timeout_factor", 1.0) > 0:
        parser.error("--timeout-factor must be positive")
    command = {"cover": cmd_cover, "mutate": cmd_mutate}.get(args.command, cmd_instrument)
    try:
        code = command(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed early (`| head`): the rest goes to devnull, so
        # the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
