"""Frozen `qcover cover` and `qcover mutate` output over the corpus.

Each run's exit code, stdout, stderr and written files (the JSON reports,
the campaign CSV) are hashed.  A refactor of the command-line batch code
must leave every digest unchanged, and `--jobs 2` must print and write
exactly what `--jobs 1` does; change a digest only for a deliberate change
of output.
"""
import hashlib
from pathlib import Path

import pytest

from qcover.cli import main

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

COVER_DIGEST = "6f52d929b590ed1ef1a8b808475b50674ab48f2c379008f20b9382e176eede7d"
MUTATE_DIGEST = "fc7c906cc7f30aa1fc2d3013b9f3506b6e10aa745756f56e7b957538adf85907"


def _digest(code: int, captured, files: list[Path]) -> str:
    parts = [str(code), captured.out, captured.err]
    for path in files:
        parts += [path.name, path.read_text(encoding="utf-8")]
    return hashlib.sha256("\v".join(parts).encode()).hexdigest()


def test_cover_corpus_output_is_frozen(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    code = main(["cover", str(CORPUS), "--json", str(out_dir), "--summary"])
    files = sorted(out_dir.glob("*.json"))
    assert len(files) == 12
    assert _digest(code, capsys.readouterr(), files) == COVER_DIGEST


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_mutate_corpus_output_is_frozen(jobs, tmp_path, capsys):
    csv_path = tmp_path / "campaign.csv"
    code = main(["mutate", str(CORPUS), "--csv", str(csv_path), "--jobs", jobs])
    assert _digest(code, capsys.readouterr(), [csv_path]) == MUTATE_DIGEST
