"""Print each metric's change between two sets of benchmark results.

    python3 perfbench/run.py --workload cli_batch --seed 1 --seconds 12 >> old.txt
    ...                                                                  >> new.txt
    python3 perfbench/compare.py old.txt new.txt

A results file holds the stdout of one or more runs; every result line in it
counts, and each side is summarised by its median per metric.  End-to-end
metrics are judged against their bound in BENCHMARK.json; the exit code is 1
when one of them got worse by more than its bound.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_results(path: str) -> dict[str, tuple[float, str, int]]:
    """Median, unit and sample count per metric over the result lines of a file."""
    samples: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            result = json.loads(line)
            for name, metric in result.get("metrics", {}).items():
                samples.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
    if not samples:
        raise SystemExit(f"compare: no result lines in {path}")
    return {name: (statistics.median(values), units[name], len(values))
            for name, values in samples.items()}


def compare(old: dict, new: dict, spec: dict) -> tuple[list[str], bool]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    lines = [f"{'metric':42} {'unit':>6} {'old':>12} {'new':>12} {'change':>9}  verdict"]
    regressed = False
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            side = "old" if name in old else "new"
            lines.append(f"{name:42} only in {side}")
            continue
        (a, unit, _), (b, _, _) = old[name], new[name]
        change = (b - a) / a if a else float("inf") if b else 0.0
        verdict = ""
        if name in bounds:
            worse = change if better[name] == "lower" else -change
            if worse > bounds[name]["bound"]:
                verdict = f"WORSE beyond bound {bounds[name]['bound']}"
                regressed = True
            else:
                verdict = "within bound" if worse > 0 else "not worse"
        lines.append(f"{name:42} {unit:>6} {a:12.6g} {b:12.6g} {change:+9.2%}  {verdict}")
    return lines, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    lines, regressed = compare(load_results(argv[0]), load_results(argv[1]), spec)
    print("\n".join(lines))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
