"""qcover benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload cover_wide --seed 1 --seconds 20 --trace 0

With --trace 0 the run measures untraced passes and reports the end-to-end
metrics; with --trace 1 it makes a traced run and reports the per-layer
metrics.  The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Every output check runs outside the timed passes; `failed / attempted` is
the error rate.  perfbench/README.md describes the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cover_wide", "mutate_mid", "cli_batch")
SETUP_PROBES = 7
# seeds whose outputs are frozen in digests.json; other seeds are checked
# against the frozen seed they equal modulo this count, in an extra pass
FROZEN_SEEDS = 32

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "circuits_per_s": "1/s",
    "circuit_p50_s": "s",
    "peak_rss_mib": "MiB",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must not be negative")
    return args


def preflight() -> None:
    # One BLAS thread, set before numpy loads: with two, OpenBLAS's idle
    # worker spins on the second CPU, and runs get noisier, not faster.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    needed = ("src/qcover/__init__.py", "corpus", "tests/oracle.py")
    missing = [p for p in needed if not (ROOT / p).exists()]
    if missing:
        raise SystemExit(f"perfbench: {ROOT} is not a qcover checkout "
                         f"(missing {', '.join(missing)})")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


def blas_threads() -> int | None:
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": blas_threads()}


def measure_setup() -> float:
    """Median set-up time over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                             capture_output=True, text=True, timeout=120,
                             check=True, cwd=ROOT)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def one_pass(run_pass, rec):
    start = time.perf_counter()
    p = run_pass(rec)
    p.elapsed_s = time.perf_counter() - start
    return p


def measure(seconds: float, step) -> None:
    """Call step() until `seconds` have passed, at least once."""
    start = time.perf_counter()
    while True:
        step()
        if time.perf_counter() - start >= seconds:
            return


def keep(passes: list, p) -> None:
    """Add a pass; all but the first keep only their digest."""
    if passes:
        p.compact()
    passes.append(p)


def op_medians(passes: list) -> list[tuple[object, float]]:
    """Each operation of a pass, with its median time over the passes.

    Taking every call into qcover at its median filters the bursts of load
    that a shared machine puts on single operations.
    """
    return [(ops[0][1], statistics.median(op[2] for op in ops))
            for ops in zip(*(p.ops for p in passes))]


def pass_time(passes: list) -> float:
    return sum(t for _, t in op_medians(passes))


def circuit_p50(wl, passes: list) -> float:
    """Median over circuits of each circuit's time, from the operation medians."""
    per_circuit: dict[object, float] = {}
    for circuit, t in op_medians(passes):
        per_circuit[circuit] = per_circuit.get(circuit, 0.0) + t
    return statistics.median(total / wl.circuits_in(circuit)
                             for circuit, total in per_circuit.items()
                             if wl.circuits_in(circuit))


def check_against_frozen(name: str, seed: int, workdir: Path, first, checks) -> None:
    """Compare a pass's outputs with the digests frozen from the seed commit."""
    import workloads
    from checks import check_frozen
    from tracing import OpTimer
    if seed < FROZEN_SEEDS:
        check_frozen(name, seed, first, checks)
        return
    ref = workloads.make(name, seed % FROZEN_SEEDS, workdir / "frozen")
    try:
        check_frozen(name, ref.seed, ref.run_pass(OpTimer()), checks)
    finally:
        ref.close()


def timed_run(name: str, seed: int, seconds: float, workdir: Path):
    import workloads
    from checks import (Checks, check_determinism, check_oracle, check_transparency,
                        oracle_sample)
    from tracing import OpTimer
    setup_s = measure_setup()
    checks = Checks()
    wl = workloads.make(name, seed, workdir / "inputs")
    try:
        wl.warm_up()
        passes = []
        measure(seconds, lambda: keep(passes, one_pass(wl.run_pass, OpTimer())))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        check_determinism(passes, checks)
        check_against_frozen(name, seed, workdir, passes[0], checks)
        if name == "cover_wide":
            check_transparency(passes[0], checks)
        if name == "cli_batch":
            check_oracle(oracle_sample(wl.files, seed), dict(passes[0].outputs), checks)
        wall_s = pass_time(passes)
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "circuits_per_s": passes[0].circuits / wall_s,
            "circuit_p50_s": circuit_p50(wl, passes),
            "peak_rss_mib": peak_rss_mib,
        }
    finally:
        wl.close()
    return passes, checks, {k: (v, END_TO_END[k]) for k, v in metrics.items()}


def traced_run(name: str, seed: int, seconds: float, workdir: Path):
    import perlayer
    import workloads
    from checks import Checks, check_determinism
    from tracing import OpTimer, Tracer
    checks = Checks()
    wl = workloads.make(name, seed, workdir / "inputs")
    # (pass function, recorder class, passes, recorders) per kind of pass
    kinds = {"untraced": (wl.run_pass, OpTimer, [], []),
             "traced": (wl.run_pass, Tracer, [], [])}
    if name == "cli_batch":
        # cli.main hides its layers, so the same files also go through the
        # library calls it makes, traced; cli.overhead_s is the difference
        kinds["library"] = (wl.library_pass, Tracer, [], [])
    order = list(kinds)

    def step():
        for kind in order:
            run_pass, make_recorder, passes, recorders = kinds[kind]
            recorders.append(make_recorder())
            keep(passes, one_pass(run_pass, recorders[-1]))
        order.append(order.pop(0))   # rotate, so order effects cancel

    def layer_medians(kind: str) -> dict[str, float]:
        _, _, passes, tracers = kinds[kind]
        return perlayer.median_metrics(
            [perlayer.span_metrics(t, p.elapsed_s) for p, t in zip(passes, tracers)])

    try:
        wl.warm_up()
        measure(seconds, step)
        untraced, traced, tracers = kinds["untraced"][2], kinds["traced"][2], kinds["traced"][3]
        check_determinism(untraced + traced, checks)
        check_against_frozen(name, seed, workdir, traced[0], checks)
        passes = untraced + traced

        m = perlayer.zero_metrics()
        m.update(layer_medians("traced"))
        m["trace.wall_s"] = statistics.median(p.elapsed_s for p in traced)
        m["trace.untraced_wall_s"] = statistics.median(p.elapsed_s for p in untraced)
        m["trace.overhead_s"] = m["trace.wall_s"] - m["trace.untraced_wall_s"]

        basis, tracer = traced[0], tracers[0]
        if "library" in kinds:
            library, library_tracers = kinds["library"][2], kinds["library"][3]
            check_determinism(library, checks)
            passes += library
            basis, tracer = library[0], library_tracers[0]
            cli_json = {k: v for k, v in traced[0].outputs if k.startswith("json/")}
            checks.check(dict(basis.outputs) == cli_json,
                         "library reports differ from the cli.main reports")
            m.update({k: v for k, v in layer_medians("library").items()
                      if k.startswith(perlayer.LIBRARY_LAYERS)})
            m["cli.overhead_s"] = m["cli.main_s"] - statistics.median(
                sum(t for _, _, t in p.ops) for p in library)
        m.update(perlayer.count_metrics(basis, wl.source_bytes()))
        m.update(perlayer.verdict_metrics(basis))
        m.update(perlayer.kernel_metrics(basis, checks))
        m.update(perlayer.noprobe_metrics(basis, checks))
        m["simulator.peak_alloc_mib"] = perlayer.peak_alloc_mib(basis)
        m["mutation.sim_equiv_per_mutant"] = perlayer.sim_equiv_per_mutant(basis, tracer)
        if m["mutation.judge_s"]:
            m["mutation.mutants_per_s"] = m["mutation.mutants"] / m["mutation.judge_s"]
    finally:
        wl.close()
    return passes, checks, {k: (m[k], unit) for k, unit in perlayer.METRICS.items()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    preflight()
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    print(json.dumps({"machine": machine_facts(), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace}), flush=True)
    run_fn = traced_run if args.trace else timed_run
    try:
        passes, checks, metrics = run_fn(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    errors = [e for p in passes for e in p.errors]
    for problem in errors + checks.failures:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    attempted = sum(len(p.ops) for p in passes) + checks.attempted
    failed = len(errors) + len(checks.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
