"""The benchmark's set-up probe still runs against the public API."""
import math
import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parent.parent / "perfbench" / "setup_probe.py"


def test_setup_probe_prints_its_seconds():
    # the probe calls one entry point of every layer in a fresh process, so a
    # removed or renamed public name fails it here
    result = subprocess.run([sys.executable, str(PROBE)], capture_output=True,
                            text=True, timeout=120, check=False)
    assert result.returncode == 0, result.stderr
    seconds = float(result.stdout.splitlines()[-1])
    assert math.isfinite(seconds) and seconds > 0
