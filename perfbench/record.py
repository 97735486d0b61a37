"""Record the reference digests the benchmark checks outputs against.

    python3 perfbench/record.py

Runs every operation of the finite grids (the 602 verifier calls of
verify_sweep and every argv solve_scan can draw) against the dimeq in
./src, and writes the sha256 of each output to perfbench/digests.json.
Run it only on a commit whose outputs are known to be right: the
benchmark treats these digests as the truth.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import one_pass
import workloads

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    dimeq = one_pass.import_dimeq(str(ROOT / "src"))
    sweep_op = one_pass.operation("verify_sweep", dimeq)
    solve_op = one_pass.operation("solve_scan", dimeq)
    verify = {}
    for func, kwargs in workloads.verify_grid():
        verify[one_pass.verify_key(func, kwargs)] = one_pass.sha256(
            sweep_op([None, func, kwargs]))
    solve = {}
    for argv in workloads.solve_grid():
        code, stdout = solve_op([None, argv])
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}")
        solve[" ".join(argv)] = one_pass.sha256(stdout)
    with open(one_pass.HERE / "digests.json", "w", encoding="utf-8") as fh:
        json.dump({"verify_sweep": verify, "solve_scan": solve}, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(verify)} verify_sweep and {len(solve)} solve_scan digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
