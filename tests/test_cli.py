"""Command-line interface: commands, flags, exit codes, file outputs."""
import argparse
import gc
import json
import os
import signal
import subprocess
import sys
import time
import weakref
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from corpus_util import random_circuit
from qcover import cli, coverage, mutation, qasm, simulator
from qcover.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
SWAP = str(CORPUS / "swap_test.qasm")
BELL = str(CORPUS / "bell_pair.qasm")


def test_cover_swap_test_table(capsys):
    assert main(["cover", SWAP]) == 0
    out = capsys.readouterr().out
    assert "swap_test.qasm: 3 qubit(s), 1 controlled gate(s), 7 cx condition(s)" in out
    assert "decision      100.00    100.00         100.00" in out
    assert "condition      85.71     77.78          66.67" in out
    assert "path           25.00     25.00           6.25" in out


def test_cover_full_corpus_summary(capsys):
    assert main(["cover", str(CORPUS), "--summary", "--quiet"]) == 0
    # quiet still allows nothing to be printed; rerun without quiet
    assert main(["cover", str(CORPUS), "--summary"]) == 0
    out = capsys.readouterr().out
    assert "summary over 12 circuit(s)" in out
    for metric in ("condition", "decision", "path"):
        for family in ("coverage", "jain", "probabilistic"):
            assert f"{metric} {family}" in out


def test_cover_missing_file(capsys):
    assert main(["cover", "missing.qasm"]) == 1
    err = capsys.readouterr().err
    assert "missing.qasm" in err


def test_cover_rejects_a_repeated_barrier_operand(tmp_path, capsys):
    bad = tmp_path / "barrier.qasm"
    bad.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nbarrier q, q[0];\n')
    assert main(["cover", str(bad)]) == 1
    assert "duplicate qubit operand in barrier" in capsys.readouterr().err


def test_cover_partial_failure(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 9.9;\n")
    assert main(["cover", SWAP, str(bad)]) == 1
    captured = capsys.readouterr()
    assert "swap_test.qasm" in captured.out  # good file still analyzed
    assert "bad.qasm" in captured.err


def test_cover_json_schema(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert main(["cover", SWAP, "--json", str(out_dir), "--quiet"]) == 0
    data = json.loads((out_dir / "swap_test.json").read_text())
    assert data["schema_version"] == 1
    assert data["coverage"]["decision"] == pytest.approx(100.0)
    assert len(data["per_cx"]) == 7
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((ROOT / "schema" / "coverage_report.schema.json").read_text())
    jsonschema.validate(data, schema)


def test_cover_json_validates_for_whole_corpus(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    out_dir = tmp_path / "reports"
    assert main(["cover", str(CORPUS), "--json", str(out_dir), "--quiet"]) == 0
    schema = json.loads((ROOT / "schema" / "coverage_report.schema.json").read_text())
    files = sorted(out_dir.glob("*.json"))
    assert len(files) == 12
    for f in files:
        jsonschema.validate(json.loads(f.read_text()), schema)


def test_cover_deterministic_output(capsys):
    assert main(["cover", SWAP, "--seed", "0"]) == 0
    first = capsys.readouterr().out
    assert main(["cover", SWAP, "--seed", "0"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cover_jobs_parallel(capsys):
    assert main(["cover", str(CORPUS), "--jobs", "3", "--summary"]) == 0
    parallel = capsys.readouterr().out
    assert main(["cover", str(CORPUS), "--jobs", "1", "--summary"]) == 0
    serial = capsys.readouterr().out
    assert parallel == serial


def test_jobs_pool_is_capped_at_the_inputs(monkeypatch, capsys):
    # a pool forks all its workers at the first submit: two inputs need two
    sizes = []

    class InlinePool:
        """Records its size and runs each call at once in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            try:
                future.set_result(fn(*args))
            except Exception as exc:
                future.set_exception(exc)
            return future

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    inputs = [SWAP, str(CORPUS / "bell_pair.qasm")]
    assert main(["cover", *inputs, "--jobs", "64"]) == 0
    pooled = capsys.readouterr().out
    assert sizes == [2]
    assert main(["cover", *inputs]) == 0
    assert capsys.readouterr().out == pooled


@pytest.mark.parametrize("command, copies, jobs", [("cover", 4, "1"), ("mutate", 2, "2")])
def test_a_closed_stdout_ends_the_batch_quietly(command, copies, jobs):
    # `qcover cover corpus/ | head -n 1`; mutate's output over two copies of
    # the corpus is larger than a pipe holds, so it must write after the close
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "qcover.cli", command, *[str(CORPUS)] * copies,
         "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env)
    assert proc.stdout.readline().startswith(b"bell_pair.qasm: ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


def _mark_and_wait(path: Path, args) -> str:
    (Path(args.marks) / path.name).touch()
    time.sleep(0.05)
    return path.name


def test_a_raise_in_show_runs_no_queued_input(tmp_path):
    # without the cancel, leaving the pool would run all 40 inputs first
    args = argparse.Namespace(jobs=2, time_limit=None, marks=str(tmp_path))

    def show(path, result):
        raise BrokenPipeError

    with pytest.raises(BrokenPipeError):
        cli._run_batch([Path(str(i)) for i in range(40)], args, _mark_and_wait, show)
    assert len(list(tmp_path.iterdir())) < 12


def test_mutate_swap_test_qgd(capsys):
    assert main(["mutate", SWAP, "--operators", "qgd"]) == 0
    out = capsys.readouterr().out
    assert "3 mutant(s)" in out
    assert out.count("-> killed") == 2   # both superposition hadamards
    assert out.count("-> survived") == 1


def test_mutate_bad_operator(capsys):
    assert main(["mutate", SWAP, "--operators", "bogus"]) == 2


def test_mutate_csv(tmp_path, capsys):
    csv_path = tmp_path / "out.csv"
    assert main(["mutate", str(CORPUS), "--operators", "qgd,qgr",
                 "--csv", str(csv_path), "--quiet"]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("circuit,qubits,operator,mutants,killed,survived,timeout,"
                        "score,condition_cov,decision_cov,path_cov,"
                        "prob_condition,prob_decision,prob_path")
    assert len(lines) == 13
    assert lines[1].startswith("bell_pair.qasm,2,qgd+qgr,")

    again = tmp_path / "again.csv"
    assert main(["mutate", str(CORPUS), "--operators", "qgd,qgr",
                 "--csv", str(again), "--quiet"]) == 0
    assert csv_path.read_bytes() == again.read_bytes()


def test_instrument_transpiled_swap_test(capsys):
    assert main(["instrument", SWAP, "--stage", "transpiled"]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 24
    assert lines[0] == "OPENQASM 2.0;"
    assert sum(1 for l in lines if l.startswith("cx ")) == 7
    assert "u(pi/2,pi/2,-pi/2) q[1];" in lines


def test_instrument_instrumented_swap_test(capsys):
    assert main(["instrument", SWAP]) == 0
    out = capsys.readouterr().out
    assert out.count("// probe") == 16
    assert "cswap_1_value_1" in out


def test_instrument_sequential_note(capsys):
    path = str(CORPUS / "no_controls.qasm")
    assert main(["instrument", path, "--stage", "transpiled"]) == 0
    out = capsys.readouterr().out
    assert "fully sequential" in out
    assert "100%" in out


def test_instrument_provenance_table(capsys):
    assert main(["instrument", SWAP, "--stage", "transpiled", "--provenance"]) == 0
    out = capsys.readouterr().out
    assert "origin  kind" in out
    assert "cswap" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["cover"])  # missing paths
    assert excinfo.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--qubit-limit", "2", "cover", SWAP],
    ["cover", SWAP, "--qubit-limit", "2"],
], ids=["before", "after"])
def test_global_flag_either_side_of_subcommand(argv, capsys):
    assert main(argv) == 1
    assert "exceeds the limit of 2" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["mutate", SWAP, "--budget", "-1"],
    ["--epsilon", "0.7", "cover", SWAP],
    ["mutate", SWAP, "--operators", "qgd", "--tolerance", "-1"],
    ["mutate", SWAP, "--operators", "qgd", "--tolerance", "1"],
    ["mutate", SWAP, "--timeout-factor", "-1"],
    ["--qubit-limit", "-3", "cover", SWAP],
    ["cover", SWAP, "--time-limit", "-1"],
    # rejected before any worker starts: no pool is created for jobs=0
    ["--jobs", "0", "cover", SWAP, SWAP],
], ids=["budget", "epsilon", "tolerance", "tolerance-one", "timeout-factor",
        "qubit-limit", "time-limit", "jobs"])
def test_bad_flag_value_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error:") == 1


def test_bad_env_value_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("QCOVER_TIME_LIMIT", "-1")
    with pytest.raises(SystemExit) as excinfo:
        main(["cover", SWAP])
    assert excinfo.value.code == 2
    assert "--time-limit must not be negative" in capsys.readouterr().err


def test_env_override(monkeypatch, capsys):
    monkeypatch.setenv("QCOVER_QUBIT_LIMIT", "2")
    assert main(["cover", SWAP]) == 1
    err = capsys.readouterr().err
    assert "exceeds" in err


def test_console_script_entry():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "qcover.cli", "cover", SWAP],
        capture_output=True, text=True, check=False, env=env)
    assert result.returncode == 0
    assert "swap_test.qasm" in result.stdout


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # GateKind hashes by identity, and no set of kinds or of strings is ever
    # iterated into an output, so the string hash seed must not show
    outputs = []
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        got = []
        for argv in (["cover", str(CORPUS), "--summary", "--json", str(out / "json")],
                     ["mutate", str(CORPUS), "--csv", str(out / "campaign.csv")]):
            result = subprocess.run([sys.executable, "-m", "qcover.cli", *argv],
                                    capture_output=True, check=False, env=env)
            assert result.returncode == 0, result.stderr
            got.append((argv[0], result.stdout))
        files = sorted((out / "json").glob("*.json")) + [out / "campaign.csv"]
        got += [(path.name, path.read_bytes()) for path in files]
        outputs.append(got)
    assert len(outputs[0]) == 2 + 12 + 1
    assert outputs[0] == outputs[1]


def test_time_limit_skips_without_failing(capsys):
    # a zero budget trips immediately; the batch still succeeds
    assert main(["cover", SWAP, str(CORPUS / "bell_pair.qasm"),
                 "--time-limit", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("skipped") == 2
    assert main(["mutate", SWAP, "--time-limit", "0",
                 "--operators", "qgd"]) == 0
    assert "skipped" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cover", "mutate"])
def test_time_limit_counts_the_parse(command, monkeypatch, capsys):
    # a parse that would take a minute is cut off by a 0.2 s budget in both
    # commands
    real_load = cli._load

    def slow_load(path):
        time.sleep(60)
        return real_load(path)

    monkeypatch.setattr(cli, "_load", slow_load)
    start = time.perf_counter()
    assert main([command, SWAP, "--time-limit", "0.2"]) == 0
    assert time.perf_counter() - start < 30
    captured = capsys.readouterr()
    assert captured.err == f"qcover: {SWAP}: skipped (time limit of 0.2s exceeded)\n"


def _slow_on_the_swap_test(real):
    """real, but on a three-qubit circuit (the swap test, not the Bell pair)
    it first sleeps for a minute."""
    def slow(circuit, *args, **kwargs):
        if circuit.num_qubits == 3:
            time.sleep(60)
        return real(circuit, *args, **kwargs)
    return slow


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command, module, stage",
                         [("cover", simulator, "run"), ("mutate", mutation, "judge")],
                         ids=["cover", "mutate"])
def test_time_limit_interrupts_a_stage(command, module, stage, jobs, monkeypatch,
                                       capsys):
    # the limit cuts into a simulation or a judge, in the worker process too,
    # and the next input runs as if there were no limit
    assert main([command, BELL]) == 0
    expected = capsys.readouterr().out
    monkeypatch.setattr(module, stage, _slow_on_the_swap_test(getattr(module, stage)))
    start = time.perf_counter()
    assert main([command, SWAP, BELL, "--time-limit", "0.3", "--jobs", jobs]) == 0
    assert time.perf_counter() - start < 30
    captured = capsys.readouterr()
    assert captured.err == f"qcover: {SWAP}: skipped (time limit of 0.3s exceeded)\n"
    assert captured.out == expected


@pytest.mark.parametrize("slow", [False, True], ids=["finished", "skipped"])
def test_time_limit_leaves_the_alarm_as_it_was(slow, monkeypatch, capsys):
    if slow:
        monkeypatch.setattr(simulator, "run", _slow_on_the_swap_test(simulator.run))

    def handler(signum, frame):
        raise AssertionError("the alarm went off after main returned")

    previous = signal.signal(signal.SIGALRM, handler)
    start = time.perf_counter()
    try:
        assert main(["cover", SWAP, "--time-limit", "0.3" if slow else "30"]) == 0
        assert time.perf_counter() - start < 30
        assert signal.getsignal(signal.SIGALRM) is handler
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert capsys.readouterr().err.count("skipped") == int(slow)


@pytest.mark.parametrize("limit", ["inf", "1e12"])
@pytest.mark.parametrize("command", ["cover", "mutate"])
def test_time_limit_past_the_timer_is_no_limit(command, limit, capsys):
    # the interval timer cannot hold these; the run goes on without a limit
    assert main([command, SWAP, BELL]) == 0
    expected = capsys.readouterr()
    assert main([command, SWAP, BELL, "--time-limit", limit]) == 0
    assert capsys.readouterr() == expected


def test_timing_flag_is_gone(capsys):
    # mutants time out by their gate count only, never by a clock
    with pytest.raises(SystemExit) as excinfo:
        main(["mutate", SWAP, "--timing", "cost"])
    assert excinfo.value.code == 2
    assert "--timing" in capsys.readouterr().err


def test_shots_flag_is_gone(capsys):
    # coverage needs one probed run; measurement histograms are not sampled
    with pytest.raises(SystemExit) as excinfo:
        main(["cover", SWAP, "--shots", "64"])
    assert excinfo.value.code == 2
    assert "--shots" in capsys.readouterr().err


def test_json_dir_that_is_a_file_fails_cleanly(tmp_path, capsys):
    target = tmp_path / "afile"
    target.write_text("")
    assert main(["cover", SWAP, "--json", str(target), "--quiet"]) == 1
    assert capsys.readouterr().err == f"qcover: {target}: File exists\n"


def test_json_write_failing_mid_batch_stops_the_json_only(tmp_path, capsys):
    inputs = [str(CORPUS / "bell_pair.qasm"), SWAP, str(CORPUS / "ghz4.qasm")]
    assert main(["cover", *inputs, "--summary"]) == 0
    printed = capsys.readouterr().out
    out_dir = tmp_path / "reports"
    blocked = out_dir / "swap_test.json"
    blocked.mkdir(parents=True)
    assert main(["cover", *inputs, "--summary", "--json", str(out_dir)]) == 1
    captured = capsys.readouterr()
    # every report and the summary still print; the one error line comes last
    assert captured.out == printed
    assert "swap_test.qasm: " in printed and "summary over 3 circuit(s)" in printed
    assert captured.err == f"qcover: {blocked}: Is a directory\n"
    assert sorted(p.name for p in out_dir.iterdir()) == ["bell_pair.json", "swap_test.json"]
    assert json.loads((out_dir / "bell_pair.json").read_text())["circuit"] == "bell_pair.qasm"
    assert not any(blocked.iterdir())


@pytest.mark.parametrize("command, output", [
    (["cover", "--summary", "--json"], "reports"),
    (["mutate", "--csv"], "campaign.csv"),
], ids=["cover", "mutate"])
def test_batch_keeps_no_finished_circuit(command, output, tmp_path, monkeypatch, capsys):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    for seed in range(6):
        circuit = random_circuit(np.random.default_rng(seed), num_qubits=3, num_gates=8)
        (inputs / f"c{seed}.qasm").write_text(qasm.serialize(circuit))
    finished = []  # a weak reference to every report and campaign result
    alive = []  # how many of them are alive as each circuit starts
    real_analyze, real_campaign = coverage.analyze, mutation.campaign

    def analyze(*args, **kwargs):
        # the first library result of each circuit, in both commands
        gc.collect()
        alive.append(sum(ref() is not None for ref in finished))
        report = real_analyze(*args, **kwargs)
        finished.append(weakref.ref(report))
        return report

    def campaign(*args, **kwargs):
        result = real_campaign(*args, **kwargs)
        finished.append(weakref.ref(result))
        return result

    monkeypatch.setattr(coverage, "analyze", analyze)
    monkeypatch.setattr(mutation, "campaign", campaign)
    assert main([command[0], str(inputs), *command[1:], str(tmp_path / output),
                 "--jobs", "1"]) == 0
    assert "c5.qasm" in capsys.readouterr().out
    assert len(alive) == 6
    assert max(alive) <= 1, alive


def test_csv_path_that_is_a_dir_fails_cleanly(tmp_path, capsys):
    assert main(["mutate", SWAP, "--operators", "qgd", "--quiet",
                 "--csv", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"qcover: {tmp_path}: Is a directory\n"


def test_mutate_csv_is_rewritten_when_no_input_succeeds(tmp_path, capsys):
    csv_path = tmp_path / "campaign.csv"
    csv_path.write_text("old,stale\n")
    assert main(["mutate", str(tmp_path / "missing.qasm"), "--csv", str(csv_path)]) == 1
    header = csv_path.read_text().splitlines()
    assert header == [mutation.csv_header()]


def test_cover_json_rejects_inputs_sharing_a_stem(tmp_path, capsys):
    a, b = tmp_path / "a" / "x.qasm", tmp_path / "b" / "x.qasm"
    for path, source in ((a, "swap_test.qasm"), (b, "bell_pair.qasm")):
        path.parent.mkdir()
        path.write_text((CORPUS / source).read_text())
    out_dir = tmp_path / "out"
    assert main(["cover", str(a), str(b), "--json", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"qcover: --json: {a} and {b} would both write x.json\n"
    assert not out_dir.exists()
    assert main(["cover", str(a), str(b), "--quiet"]) == 0
