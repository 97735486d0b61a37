"""The dimeq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a dimeq checkout; it imports dimeq from the
checkout's src/.  Workloads: verify_sweep, vanish_census, vanish_large,
solve_scan (see NOTES.md).

One run generates the workload's inputs from the seed, then runs passes
over them for about S seconds, each pass in a fresh interpreter, one after
another (no threads, no pools).  Every output is checked.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones, measured with tracing
off; with --trace 1 they are the per-layer ones from traced passes, with
untraced passes in between for the tracing overhead.
"""

from __future__ import annotations

import argparse
import bisect
import json
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MIN_PASSES = 3  # untraced passes every --trace 0 run makes, whatever --seconds says
LAST_START_S = 120  # no pass starts later than this into a run...
PASS_TIMEOUT_S = 170  # ...and none runs past this, so a run ends within 180 s
SETUP_PER_PASS = 3  # set-up timings taken before each untraced pass
# Tail percentiles to choose from; see tail_percentile.
TAIL_LADDER = (99.99, 99.95, 99.9, 99.5, 99, 95, 90, 80, 75, 70, 50)
SETUP_CODE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:]\n"
    "import calibrate\n"
    "calibrate.probe()\n"  # warms the probe's code in this fresh interpreter
    "before = calibrate.probe()\n"
    "t = time.perf_counter()\n"
    "import dimeq.cli\n"
    "dimeq.cli.build_parser()\n"
    "t = time.perf_counter() - t\n"
    "print(repr(t * 2 * calibrate.REFERENCE_S / (before + calibrate.probe())))\n"
)
# Workloads whose latencies are reported unscaled.  vanish_large streams
# through rank-length tuples: while the probe slowed by 2x its operations
# slowed by about 10%, so scaling them by the probe would add noise.
UNSCALED = ("vanish_large",)
UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ns_per_case"):
        return "ns"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    if name.endswith(".calls_per_spec"):
        return "calls/spec"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def make_inputs(workload: str, seed: int, workdir: Path) -> Path:
    """Write the operations for one run to a file in workdir."""
    ops = getattr(workloads, workload)(seed)
    if workload == "vanish_large":
        # `dimeq vanish FILE` reads its spec from disk, so the files are
        # written here, during set-up.
        for k, op in enumerate(ops):
            path = workdir / f"spec-{k}.json"
            path.write_text(json.dumps(op[1]), encoding="utf-8")
            op[1] = str(path)
    path = workdir / "inputs.json"
    path.write_text(json.dumps(ops), encoding="utf-8")
    return path


def measure_setup(n: int) -> list[float]:
    """n timings, each in a fresh interpreter, of importing dimeq.cli and
    building its parser: what every `dimeq` invocation pays before it does
    any work.  Each is scaled by the machine's speed around it, as in
    scaled_latencies."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)]
    times = []
    for _ in range(n):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing dimeq failed:\n{proc.stderr[-2000:]}")
        times.append(float(proc.stdout))
    return times


def run_pass(workload: str, inputs: Path, workdir: Path, k: int, timeout: float,
             traced: bool) -> dict:
    result = workdir / f"pass-{k}.json"
    cmd = [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
           "--inputs", str(inputs), "--src", str(SRC), "--result", str(result)]
    if traced:
        cmd += ["--spans", str(WORK / f"spans-{workload}.bin")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {k} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"pass {k} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(result.read_text(encoding="utf-8"))


def run_passes(workload: str, inputs: Path, workdir: Path, seconds: int,
               trace: bool) -> tuple[list[dict], list[float]]:
    """Passes for about `seconds`, and the set-up timings taken between them.

    A pass starts only if, at the pace so far, it ends in time.  Untraced
    runs make at least MIN_PASSES passes; traced runs alternate untraced
    and traced passes, at least one of each.  Set-up is timed before each
    untraced pass rather than all at once, so that a burst of load on the
    machine cannot skew all of it.
    """
    measure_setup(1)  # warms the file cache and writes bytecode; not counted
    t0 = time.monotonic()
    passes: list[dict] = []
    setup: list[float] = []
    durations: dict[bool, list[float]] = {False: [], True: []}
    need = 2 if trace else MIN_PASSES
    while True:
        elapsed = time.monotonic() - t0
        traced = trace and len(passes) % 2 == 1
        if len(passes) >= need and elapsed + max(durations[traced] or [0.0]) > seconds:
            break
        if elapsed > LAST_START_S:
            if len(passes) >= (2 if trace else 1):
                break
            raise BenchError(f"only {len(passes)} passes in {elapsed:.0f} s")
        start = time.monotonic()
        if not trace:
            setup += measure_setup(SETUP_PER_PASS)
        p = run_pass(workload, inputs, workdir, len(passes),
                     PASS_TIMEOUT_S - elapsed, traced)
        durations[traced].append(time.monotonic() - start)
        p["traced"] = traced
        passes.append(p)
    return passes, setup


def tail_percentile(samples: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if samples * (100 - p) >= 1000 - 1e-6:
            return p
    return TAIL_LADDER[-1]


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def scaled_latencies(p: dict) -> list[float]:
    """A pass's operation latencies at the reference machine speed.

    Load from elsewhere on a shared machine slows everything down by up to
    about 1.8x, for milliseconds to minutes at a time.  Each latency is
    multiplied by calibrate.REFERENCE_S over the median of the calibration
    probes that ran just before and just after the operation (the probes
    at the nearest position on each side).
    """
    groups: dict[int, list[float]] = {}
    for k, t in p["probes"]:
        groups.setdefault(k, []).append(t)
    positions = sorted(groups)
    out = []
    for j, x in enumerate(p["latencies_s"]):
        i = bisect.bisect_right(positions, j)  # positions[:i] are before operation j
        around = [t for pos in positions[i - 1:i + 1] for t in groups[pos]]
        out.append(x * calibrate.REFERENCE_S / statistics.median(around))
    return out


def end_to_end(passes: list[dict], setup: list[float], scaled: bool) -> tuple[dict, list[str]]:
    """Every pass runs the same operations in the same order, so each
    operation's latency is taken as the median of its latencies over the
    passes, scaled to the reference speed if `scaled`: what is left of the
    load, and the probes' own noise, then moves an operation only if it
    hits it in most passes.  wall_s sums these latencies; the percentiles
    are over them."""
    lats = (scaled_latencies(p) if scaled else p["latencies_s"] for p in passes)
    per_op = sorted(statistics.median(op) for op in zip(*lats))
    tail_p = tail_percentile(len(per_op))
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": percentile(per_op, tail_p) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    beyond = sum(x * 1e3 > values["op_tail_ms"] for x in per_op)
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in passes)
    notes = [f"op_tail_ms is p{tail_p:g} of {len(per_op)} operations, each the median "
             f"of {len(passes)} passes; {beyond} operations beyond it",
             f"machine speed: probe median {statistics.median(t for p in passes for _, t in p['probes']) * 1e3:.3f} ms "
             f"(reference {calibrate.REFERENCE_S * 1e3:.3f} ms)",
             f"raw operation time per pass (s): {walls}; "
             f"set-up is the median of {len(setup)} interpreters"]
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}, notes


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    for name in traced[0]["layers"]:
        value = statistics.median(p["layers"][name] for p in traced)
        metrics[name] = {"value": value, "unit": layer_unit(name)}
    ratio = (statistics.median(p["wall_s"] for p in traced)
             / statistics.median(p["wall_s"] for p in plain))
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    layers = {k: v["value"] for k, v in metrics.items()}
    notes = [
        f"prop4+prop5 self-time share of the traced pass: "
        f"{layers['theorems.prop4_prop5.self_share']:.1%}",
        f"order_splits {layers['theorems.vanishing_verdict.order_splits']:g}, "
        f"tracing overhead x{ratio:.2f} ({len(traced)} traced, {len(plain)} untraced passes)",
    ]
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # On SIGTERM, unwind like on Ctrl-C: subprocess.run then kills and
    # waits for the pass in flight, and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "dimeq" / "__init__.py").is_file():
        print(f"error: no dimeq sources under {SRC}", file=sys.stderr)
        return 2
    workdir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        inputs = make_inputs(args.workload, args.seed, workdir)
        passes, setup = run_passes(args.workload, inputs, workdir, args.seconds,
                                   bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and all(p["pass_ok"] for p in passes)
    if args.trace:
        metrics, notes = per_layer(passes)
    else:
        metrics, notes = end_to_end(passes, setup, args.workload not in UNSCALED)
    notes.append(f"error_rate {failed / attempted:g} ({failed} of {attempted} operations)")
    for p in passes:
        notes += [f"error: {e}" for e in p["errors"]]
    for line in notes:
        print(f"# {args.workload}: {line}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
