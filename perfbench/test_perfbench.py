"""Tests of the benchmark itself: the kernel replay, the output checks and the
digests.  They use small versions of the workloads so they run in seconds."""
import json
from pathlib import Path

import pytest

import run as bench
bench.preflight()

import checks  # noqa: E402
import perlayer  # noqa: E402
import workloads  # noqa: E402
from tracing import OpTimer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


class SmallCover(workloads.CoverWide):
    sizes = ((6, 40), (5, 30))


class SmallMutate(workloads.MutateMid):
    sizes = ((5, 12),)


class SmallCli(workloads.CliBatch):
    generated = 5


@pytest.fixture(scope="module")
def cover_pass():
    return SmallCover(0).run_pass(OpTimer())


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    wl = SmallCli(0, tmp_path_factory.mktemp("cli") / "work")
    yield wl
    wl.close()


@pytest.fixture(scope="module")
def cli_pass(cli):
    return cli.run_pass(OpTimer())


def corrupted(p: workloads.Pass, index: int = 0) -> workloads.Pass:
    """A copy of a pass with one byte of one output flipped."""
    name, data = p.outputs[index]
    flipped = bytes([data[0] ^ 1]) + data[1:]
    outputs = list(p.outputs)
    outputs[index] = (name, flipped)
    return workloads.Pass(outputs=outputs, runs=list(p.runs))


def with_state_digest(p: workloads.Pass, digest: str) -> workloads.Pass:
    name, original, probed, _ = p.runs[0]
    return workloads.Pass(outputs=list(p.outputs),
                          runs=[(name, original, probed, digest)] + p.runs[1:])


def test_replay_equals_run(cover_pass, cli):
    for p in (cover_pass, cli.library_pass(OpTimer())):   # cli circuits measure
        found = checks.Checks()
        metrics = perlayer.kernel_metrics(p, found)
        assert found.attempted == len(p.runs) and not found.failures
        assert metrics["simulator.probe_reads"] == sum(
            len(probed.probes) for _, _, probed, _ in p.runs)


def test_replay_check_catches_a_different_state(cover_pass):
    found = checks.Checks()
    perlayer.kernel_metrics(with_state_digest(cover_pass, "0" * 64), found)
    assert len(found.failures) == 1


def test_determinism_check_catches_a_corrupted_output(cover_pass):
    found = checks.Checks()
    checks.check_determinism([cover_pass, cover_pass], found)
    assert not found.failures
    checks.check_determinism([cover_pass, corrupted(cover_pass)], found)
    assert len(found.failures) == 1


def test_frozen_check_catches_a_corrupted_output(cover_pass, tmp_path, monkeypatch):
    table = tmp_path / "digests.json"
    table.write_text(json.dumps({"small": {"0": cover_pass.digest()}}))
    monkeypatch.setattr(checks, "DIGESTS", table)
    found = checks.Checks()
    checks.check_frozen("small", 0, cover_pass, found)
    assert not found.failures
    checks.check_frozen("small", 0, corrupted(cover_pass), found)
    checks.check_frozen("small", 1, cover_pass, found)   # nothing frozen
    assert len(found.failures) == 2


def test_transparency_check_catches_a_changed_state(cover_pass):
    found = checks.Checks()
    checks.check_transparency(cover_pass, found)
    assert found.attempted == 2 and not found.failures
    checks.check_transparency(with_state_digest(cover_pass, "0" * 64), found)
    assert len(found.failures) == 1


def test_oracle_check_catches_a_corrupted_report(cli, cli_pass):
    assert not cli_pass.errors
    outputs = dict(cli_pass.outputs)
    assert len(checks.oracle_sample(cli.files, 0)) == 12 + 5
    # the oracle is slow: check a 3-qubit corpus circuit and a 4-qubit one
    sample = [f for f in cli.files if f.name in ("swap_test.qasm", "gen_000.qasm")]
    found = checks.Checks()
    checks.check_oracle(sample, outputs, found)
    assert found.attempted == len(sample) and not found.failures

    key = f"json/{sample[-1].stem}.json"
    report = json.loads(outputs[key])
    report["coverage"]["condition"] += 1e-6
    outputs[key] = json.dumps(report).encode()
    checks.check_oracle(sample, outputs, found)
    assert found.failures == [f"{sample[-1].name}: report differs from the oracle "
                              f"at /coverage/condition"]


def test_library_pass_reproduces_the_cli_reports(cli, cli_pass):
    cli_json = {k: v for k, v in cli_pass.outputs if k.startswith("json/")}
    assert dict(cli.library_pass(OpTimer()).outputs) == cli_json


@pytest.mark.parametrize("make", [SmallCover, SmallMutate])
def test_digests_are_stable_for_two_seeds(make):
    digests = [make(seed).run_pass(OpTimer()).digest() for seed in (0, 0, 1, 1)]
    assert digests[0] == digests[1] and digests[2] == digests[3]
    assert digests[0] != digests[2]


def test_cli_digest_is_stable_for_two_seeds(tmp_path):
    digests = []
    for seed in (0, 1):
        wl = SmallCli(seed, tmp_path / str(seed))
        try:
            digests += [wl.run_pass(OpTimer()).digest(), wl.run_pass(OpTimer()).digest()]
        finally:
            wl.close()
    assert digests[0] == digests[1] and digests[2] == digests[3]
    assert digests[0] != digests[2]


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == perlayer.METRICS
    frozen = checks.frozen_digests()
    for name in bench.WORKLOADS:
        assert sorted(map(int, frozen[name])) == list(range(bench.FROZEN_SEEDS))
