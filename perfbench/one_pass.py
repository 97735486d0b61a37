"""One pass over a workload's operations, in a fresh interpreter.

    python3 perfbench/one_pass.py --workload W --inputs OPS.json --src SRC \
        --result OUT.json [--spans SPANS.bin]

Imports dimeq from SRC, times each operation, then checks every output
(outside the timed loop) and writes a JSON summary to OUT.json.  With
--spans the pass runs under the tracer and the summary adds per-layer
numbers; the spans themselves go to SPANS.bin.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
# sha256 of `dimeq verify all` stdout at the commit the benchmark was defined on.
VERIFY_ALL_SHA256 = "283cc8e4761017d13f2a187bdef1eef329d1a1002abe7d842b4ecaac98f9453e"
SLUGS = ("lemma1", "lemma2", "lemma2_reduction", "prop3", "prop4", "prop5", "epsilon_orbit")
VERDICTS = ("vanishes", "equation_fails", "not_applicable", "not_concluded")
# Calibration probes run before the first operation, after the last, and
# after any operation that ends this long after the previous probe.
PROBE_EVERY_S = 0.05
PROBES_MAX = 8


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verify_key(func: str, kwargs: dict) -> str:
    return func + " " + json.dumps(kwargs, sort_keys=True, separators=(",", ":"))


def load_digests() -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_dimeq(src: str):
    sys.path.insert(0, src)
    import dimeq
    import dimeq.cli

    if not Path(dimeq.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"dimeq imported from {dimeq.__file__}, not from {src}")
    return dimeq


def operation(workload: str, dimeq):
    """The call one operation makes, resolved through dimeq's public names
    at call time so that a tracer's bindings are the ones used."""
    if workload == "verify_sweep":
        def op(item):
            _, func, kwargs = item
            report = getattr(dimeq, func)(**kwargs)
            return json.dumps(report.to_json(), separators=(",", ":"))
    elif workload == "vanish_census":
        def op(item):
            return dimeq.verdict_to_json(dimeq.vanishing_verdict(dimeq.spec_from_json(item[1])))
    else:
        def op(item):
            argv = ["vanish", item[1]] if workload == "vanish_large" else item[1]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = dimeq.cli.run(argv)
            return code, buf.getvalue()
    return op


def spec_of(workload: str, item: list) -> dict:
    """The spec an operation ran on: inline for the census, on disk for
    vanish_large (read only after the pass, so it stays out of peak RSS)."""
    if workload == "vanish_census":
        return item[1]
    with open(item[1], encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, ops: list, outs: list, digests: dict) -> tuple[int, bool, Counter]:
    """(failed operations, pass-level check ok, counts read off the outputs)."""
    import oracle

    failed = 0
    counts: Counter = Counter()
    ok_pass = True
    if workload == "verify_sweep":
        want = digests["verify_sweep"]
        canonical: list = [None] * len(ops)
        all_passed = True
        for (idx, func, kwargs), out in zip(ops, outs):
            if isinstance(out, Exception) or sha256(out) != want.get(verify_key(func, kwargs)):
                failed += 1
                continue
            canonical[idx] = out
            report = json.loads(out)
            all_passed = all_passed and report["passed"]
            counts[f"space.{report['statement']}"] += report["space_size"]
        if None in canonical:
            ok_pass = False
        else:
            text = ('{"all_passed":%s,"report_count":%d,"reports":[%s]}\n'
                    % (json.dumps(all_passed), len(canonical), ",".join(canonical)))
            ok_pass = sha256(text) == VERIFY_ALL_SHA256
    elif workload == "solve_scan":
        want = digests["solve_scan"]
        for (key, _), out in zip(ops, outs):
            if isinstance(out, Exception) or out[0] != 0 or sha256(out[1]) != want.get(key):
                failed += 1
            else:
                counts["stdout_bytes"] += len(out[1].encode())
    else:
        splits: dict[int, set] = {}
        for item, out in zip(ops, outs):
            verdict = out
            if workload == "vanish_large" and not isinstance(out, Exception):
                code, stdout = out
                counts["stdout_bytes"] += len(stdout.encode())
                try:
                    verdict = json.loads(stdout) if code == 0 else None
                except json.JSONDecodeError:
                    verdict = None
            if not isinstance(verdict, dict) or oracle.check_verdict(spec_of(workload, item), verdict):
                failed += 1
                continue
            counts[f"verdict.{verdict['verdict']}"] += 1
            splits.setdefault(item[0], set()).add(verdict["verdict"])
        counts["order_splits"] = sum(len(kinds) > 1 for kinds in splits.values())
    return failed, ok_pass, counts


def layer_metrics(tracer, counts: Counter, wall: float, specs: int) -> dict:
    """The per-layer numbers of one traced pass."""
    st = tracer.self_times()
    c = tracer.counters
    m: dict[str, float] = {}

    def span(name: str, calls: bool = True) -> None:
        n, self_s = st.get(name, (0, 0.0))
        if calls:
            m[name + ".calls"] = n
        m[name + ".self_s"] = self_s

    total_cases = 0
    for slug in SLUGS:
        name = f"theorems.verify_{slug}"
        span(name)
        cases = counts[f"space.{slug}"]
        total_cases += cases
        m[name + ".ns_per_case"] = m[name + ".self_s"] * 1e9 / cases if cases else 0.0
    m["theorems.space_cases"] = total_cases
    share = m["theorems.verify_prop4.self_s"] + m["theorems.verify_prop5.self_s"]
    m["theorems.prop4_prop5.self_share"] = share / wall
    span("theorems.vanishing_verdict")
    calls = m["theorems.vanishing_verdict.calls"]
    for v in VERDICTS:
        m[f"theorems.verdict.{v}"] = counts[f"verdict.{v}"]
    concluded = counts["verdict.vanishes"] + counts["verdict.equation_fails"]
    m["theorems.vanishing_verdict.concluded_ratio"] = concluded / calls if calls else 0.0
    m["theorems.vanishing_verdict.order_splits"] = counts["order_splits"]
    for f in ("spec_from_json", "attached_orbit", "dim_rep"):
        span(f"representations.{f}")
    m["representations.rank.calls"] = c["representations.rank.calls"]
    m["representations.attached_orbit.calls_per_spec"] = (
        m["representations.attached_orbit.calls"] / specs if specs else 0.0)
    for meth in ("init", "orbit_dim", "compare", "transpose", "add"):
        span(f"partitions.Partition.{meth}")
    span("partitions.enumerate_partitions", calls=False)
    m["partitions.enumerate_partitions.calls"] = c["partitions.enumerate_partitions.calls"]
    m["partitions.enumerate_partitions.yielded"] = c["partitions.enumerate_partitions.yielded"]
    span("partitions.partition_from_epsilon")
    m["partitions.parts_built"] = c["partitions.parts_built"]
    for f in ("check_dim_equation", "enumerate_orbit_solutions"):
        span(f"equation.{f}")
    m["equation.solutions"] = c["equation.solutions"]
    span("cli.run")
    span("cli.build_parser", calls=False)
    m["cli.stdout_bytes"] = counts["stdout_bytes"]
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    dimeq = import_dimeq(args.src)
    with open(args.inputs, encoding="utf-8") as fh:
        ops = json.load(fh)
    # The inputs live for the whole pass; keep the collector from rescanning
    # them, which would charge the harness's objects to dimeq's operations.
    gc.freeze()
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    op = operation(args.workload, dimeq)

    outs: list = []
    lat: list[float] = []
    probes: list[list] = [[0, calibrate.probe()]]
    clock = time.perf_counter
    last_probe = clock()
    for k, item in enumerate(ops):
        if tracer is not None:
            tracer.current_op = k
        t0 = clock()
        try:
            out = op(item)
        except Exception as exc:  # an operation failure is counted, not fatal
            out = exc
        t1 = clock()
        lat.append(t1 - t0)
        outs.append(out)
        if t1 - last_probe >= PROBE_EVERY_S or k == len(ops) - 1:
            # A long operation gets more probes after it, so that its scale
            # rests on more than two short samples of the machine's speed.
            for _ in range(min(PROBES_MAX, 1 + int((t1 - t0) / PROBE_EVERY_S / 2))):
                probes.append([k + 1, calibrate.probe()])
            last_probe = clock()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    failed, ok_pass, counts = check(args.workload, ops, outs, load_digests())
    result = {
        "wall_s": sum(lat),
        "latencies_s": lat,
        "probes": probes,
        "attempted": len(ops),
        "failed": failed,
        "pass_ok": ok_pass,
        "peak_rss_mb": rss_mb,
        "errors": [repr(o) for o in outs if isinstance(o, Exception)][:5],
    }
    if tracer is not None:
        specs = len(ops) if args.workload.startswith("vanish") else 0
        result["layers"] = layer_metrics(tracer, counts, sum(lat), specs)
        tracer.write(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
