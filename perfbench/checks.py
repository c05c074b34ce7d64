"""Output checks.  They run outside the timed passes; each failure counts in
the run's `failed` and so in its error rate."""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from qcover import analyze, instrument, parse_file, statevector_of, strip_probes, transpile

import oracle  # tests/oracle.py: the independent dense-matrix simulator
from workloads import Pass, state_digest

DIGESTS = Path(__file__).resolve().parent / "digests.json"
ORACLE_MAX_QUBITS = 8


class Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def frozen_digests() -> dict[str, dict[str, str]]:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def check_determinism(passes: list[Pass], checks: Checks) -> None:
    """Every pass over the same inputs gives byte-identical outputs."""
    first = passes[0].digest()
    for i, p in enumerate(passes[1:], start=1):
        checks.check(p.digest() == first, f"pass {i} output differs from pass 0")


def check_frozen(workload: str, seed: int, p: Pass, checks: Checks) -> None:
    """A pass's outputs match the digest frozen from the seed commit."""
    want = frozen_digests().get(workload, {}).get(str(seed))
    checks.check(want is not None and p.digest() == want,
                 f"{workload} seed {seed}: output digest {p.digest()[:16]} "
                 f"does not match the frozen {str(want)[:16]}")


def check_transparency(p: Pass, checks: Checks) -> None:
    """run(probed).state equals statevector_of(strip_probes(probed)) bit for bit."""
    for name, _, probed, digest in p.runs:
        bare = statevector_of(strip_probes(probed))
        checks.check(state_digest(bare) == digest,
                     f"{name}: probes changed the final state")


def _close(want, got, path: str = "") -> str | None:
    """Where two JSON values differ beyond float rounding, or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(want) != set(got):
            return path or "/"
        for key in want:
            bad = _close(want[key], got[key], f"{path}/{key}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return path
        for i, (a, b) in enumerate(zip(want, got)):
            bad = _close(a, b, f"{path}/{i}")
            if bad:
                return bad
        return None
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not math.isclose(
                want, got, rel_tol=1e-9, abs_tol=1e-9):
            return path
        return None
    return None if want == got else path


def check_oracle(paths: list[Path], outputs: dict[str, bytes], checks: Checks) -> None:
    """Each CLI report agrees with one recomputed from the oracle's probe values."""
    for path in paths:
        circuit = parse_file(str(path))
        if circuit.num_qubits > ORACLE_MAX_QUBITS:
            continue
        transpiled = transpile(circuit)
        _, log = oracle.simulate(instrument(transpiled))
        want = analyze(log, transpiled, circuit_name=path.name).to_json_dict()
        raw = outputs.get(f"json/{path.stem}.json")
        bad = "missing report" if raw is None else _close(want, json.loads(raw))
        checks.check(bad is None, f"{path.name}: report differs from the oracle at {bad}")


def oracle_sample(files: list[Path], seed: int) -> list[Path]:
    """The corpus files plus one generated circuit of each width, chosen by seed."""
    rng = np.random.default_rng([seed, 7])
    corpus = [f for f in files if not f.name.startswith("gen_")]
    generated = [f for f in files if f.name.startswith("gen_")]
    picked = []
    for width in range(5):
        group = generated[width::5]
        if group:
            picked.append(group[int(rng.integers(len(group)))])
    return corpus + sorted(picked)
