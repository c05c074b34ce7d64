"""Freeze the digests of one pass's outputs for seeds 0..31 into digests.json.

    python3 perfbench/freeze.py [WORKLOAD ...]

The frozen digests are the reference every benchmark run checks its outputs
against.  Refreeze only when a change alters qcover's outputs on purpose,
and say so where the change is described.
"""
import json
import shutil
import sys

from run import FROZEN_SEEDS, ROOT, WORKLOADS, preflight


def main(names: list[str]) -> int:
    preflight()
    import workloads
    from tracing import OpTimer
    from checks import DIGESTS, frozen_digests
    table = frozen_digests() if DIGESTS.exists() else {}
    workdir = ROOT / ".bench_tmp" / "freeze"
    for name in names or WORKLOADS:
        digests = {}
        for seed in range(FROZEN_SEEDS):
            wl = workloads.make(name, seed, workdir)
            try:
                p = wl.run_pass(OpTimer())
            finally:
                wl.close()
            if p.errors:
                raise SystemExit(f"{name} seed {seed}: {p.errors}")
            digests[str(seed)] = p.digest()
            print(name, seed, digests[str(seed)], flush=True)
        table[name] = digests
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
    shutil.rmtree(workdir.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
