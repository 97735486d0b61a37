"""Tests of the benchmark's own parts: the oracle, the tracer, the inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import dimeq  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

T = {"kind": "trivial"}
G = {"kind": "generic"}


def eis(blocks, constituents):
    return {"kind": "eisenstein", "blocks": blocks, "constituents": constituents}


def speh(p, q):
    return {"kind": "speh", "p": p, "q": q}


def minimal(n):
    return eis([n - 1, 1], [T, T])


# The specs of tests/test_theorems.py::TestVerdict, in wire format.
VERDICT_SPECS = {
    "prop1": {"n": 5, "representations": [eis([4, 1], [T, T]), eis([3, 2], [T, T])]},
    "lemma1": {"n": 4, "representations": [speh(2, 2), speh(2, 2)]},
    "plain_mismatch": {"n": 5, "representations": [minimal(5)] * 3},
    "cor1": {"n": 6, "representations": [minimal(6)] * 3},
    "prop3": {"n": 6, "representations": [eis([4, 2], [speh(2, 2), G]), speh(2, 3)]},
    "prop5": {"n": 16, "representations": [eis([15, 1], [T, T]),
                                           eis([13, 2, 1], [T, T, T]), speh(2, 8)]},
    "bare_orbits": {"n": 4, "representations": [{"kind": "orbit", "parts": [2, 1, 1]}] * 2},
    "rect_head_missing": {"n": 6, "representations": [eis([5, 1], [T, T]), G]},
    "cor1_missing_top": {"n": 9, "representations": [
        minimal(9), minimal(9), {"kind": "orbit", "parts": [3, 2, 1, 1, 1, 1]}]},
}


def verdict(spec):
    return dimeq.verdict_to_json(dimeq.vanishing_verdict(dimeq.spec_from_json(spec)))


@pytest.mark.parametrize("name", sorted(VERDICT_SPECS))
def test_oracle_accepts_engine_verdicts(name):
    spec = VERDICT_SPECS[name]
    assert oracle.check_verdict(spec, verdict(spec)) is None


def tampered(name, edit):
    v = copy.deepcopy(verdict(VERDICT_SPECS[name]))
    edit(v)
    return oracle.check_verdict(VERDICT_SPECS[name], v)


@pytest.mark.parametrize("name,edit", [
    ("cor1", lambda v: v["witness"].update(block_sum=13)),
    ("cor1", lambda v: v["witness"].update(top_trivial_blocks=[5, 5, 4], block_sum=14)),
    ("cor1", lambda v: v.update(verdict="not_applicable")),
    ("prop5", lambda v: v["witness"].update(residual_bound=12)),
    ("prop5", lambda v: v["witness"].update(rectangle=[4, 4])),
    ("prop5", lambda v: v["witness"]["equation_report"].update(lhs=121)),
    ("prop1", lambda v: v["witness"].update(representation_index=1, top_trivial_block=4)),
    ("lemma1", lambda v: v.update(verdict="not_concluded")),
    ("lemma1", lambda v: v["equation_report"].update(slack=0)),
    ("bare_orbits", lambda v: v.update(verdict="vanishes", witness={})),
    ("plain_mismatch", lambda v: v.update(verdict="vanishes", witness={
        "top_trivial_blocks": [4, 4, 4], "block_sum": 12, "required": 12})),
])
def test_oracle_rejects_tampered_verdicts(name, edit):
    assert tampered(name, edit) is not None


def test_oracle_prop5_witness_in_any_order():
    spec = VERDICT_SPECS["prop5"]
    reordered = {"n": 16, "representations": spec["representations"][::-1]}
    assert oracle.check_verdict(reordered, verdict(spec)) is None


@pytest.mark.parametrize("n", [4, 6, 9, 12])
def test_oracle_dims_and_orbits_match_dimeq(n):
    import random

    for d in workloads.census_alphabet(random.Random(n), n):
        rep = dimeq.rep_from_json(d, expected_rank=n)
        assert oracle.dim(d, n) == dimeq.dim_rep(rep)
        assert oracle.orbit(d, n) == oracle.parts_to_runs(list(dimeq.attached_orbit(rep).parts))


def test_add_runs_pads_the_shorter_partition():
    assert oracle.add_runs([(3, 2), (1, 1)], [(2, 4)]) == [(5, 2), (3, 1), (2, 1)]
    assert oracle.add_runs([], [(1, 3)]) == [(1, 3)]


def test_self_times_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 3] and b [4, 9]; b has child c [5, 6];
    # a second root d [11, 12] has no children.
    names = ["root", "a", "b", "c", "d"]
    name = [0, 1, 2, 3, 4]
    parent = [-1, 0, 0, 2, -1]
    start = [0.0, 1.0, 4.0, 5.0, 11.0]
    end = [10.0, 3.0, 9.0, 6.0, 12.0]
    st = tracer.self_times(names, name, parent, start, end)
    assert st == {"root": [1, 3.0], "a": [1, 2.0], "b": [1, 4.0], "c": [1, 1.0], "d": [1, 1.0]}


def test_self_times_sum_recursive_spans_by_name():
    names = ["f"]
    st = tracer.self_times(names, [0, 0, 0], [-1, 0, 1], [0.0, 1.0, 2.0], [8.0, 5.0, 3.0])
    assert st == {"f": [3, 8.0]}  # (8-4) + (4-1) + 1


def test_tracer_wraps_every_binding_and_restores_them(tmp_path):
    originals = {
        "pkg": dimeq.attached_orbit,
        "theorems": dimeq.theorems.attached_orbit,
        "init": dimeq.Partition.__init__,
        "enum": dimeq.equation.enumerate_partitions,
    }
    t = tracer.Tracer()
    t.install()
    try:
        assert dimeq.attached_orbit is not originals["pkg"]
        assert dimeq.representations.attached_orbit is dimeq.theorems.attached_orbit
        t.current_op = 7
        verdict(VERDICT_SPECS["prop5"])
        sols = dimeq.enumerate_orbit_solutions(5, 2)
    finally:
        t.uninstall()
    assert dimeq.attached_orbit is originals["pkg"]
    assert dimeq.theorems.attached_orbit is originals["theorems"]
    assert dimeq.Partition.__init__ is originals["init"]
    assert dimeq.equation.enumerate_partitions is originals["enum"]

    st = t.self_times()
    assert st["theorems.vanishing_verdict"][0] == 1
    assert st["representations.spec_from_json"][0] == 1
    # Eisenstein orbits recurse into their constituents' orbits.
    aid = t.names.index("representations.attached_orbit")
    nested = [i for i, nid in enumerate(t.name)
              if nid == aid and t.parent[i] >= 0 and t.name[t.parent[i]] == aid]
    assert nested
    assert t.counters["partitions.enumerate_partitions.calls"] == 1
    assert t.counters["partitions.enumerate_partitions.yielded"] == 7  # p(5)
    assert t.counters["equation.solutions"] == len(sols)
    assert t.counters["partitions.parts_built"] > 0
    assert set(t.op) == {7}

    path = tmp_path / "spans.bin"
    t.write(str(path))
    names, fields = tracer.read_spans(str(path))
    assert names == t.names
    assert list(fields["start"]) == list(t.start) and list(fields["parent"]) == list(t.parent)


def test_workload_inputs_depend_only_on_the_seed():
    for w in workloads.WORKLOADS:
        assert getattr(workloads, w)(5) == getattr(workloads, w)(5)
    assert workloads.vanish_large(5) != workloads.vanish_large(6)


def test_verify_grid_is_the_602_reports_of_verify_all():
    assert len(workloads.verify_grid()) == 602


def test_census_emits_every_ordering_once():
    multisets = workloads.census_multisets(3)
    total = sum(len(m) for m in multisets)
    assert abs(total - workloads.CENSUS_OPS) < 30
    for orders in multisets:
        keys = [str(spec) for spec in orders]
        assert len(set(keys)) == len(keys)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(36) == 70
    assert run.tail_percentile(156) == 90
    assert run.tail_percentile(60000) == 99.95
    values = sorted(float(i) for i in range(1, 101))
    assert run.percentile(values, 90) == 90.0
    assert run.percentile(values, 50) == 50.0


def test_scaled_latencies_use_the_probes_around_each_operation():
    ref = run.calibrate.REFERENCE_S
    p = {"latencies_s": [1.0, 2.0, 3.0],
         "probes": [[0, ref], [2, 2 * ref], [3, 2 * ref]]}
    # operations 0 and 1 ran between the first two probes, operation 2
    # between the last two
    assert run.scaled_latencies(p) == pytest.approx([1 / 1.5, 2 / 1.5, 1.5])


def test_end_to_end_takes_each_operations_median_over_passes():
    ref = run.calibrate.REFERENCE_S
    probes = [[0, ref], [2, ref]]
    passes = [{"latencies_s": lat, "probes": probes, "peak_rss_mb": rss, "wall_s": 0.5}
              for lat, rss in (([0.1, 0.4], 10.0), ([0.3, 0.2], 12.0), ([0.2, 0.9], 11.0))]
    metrics, _ = run.end_to_end(passes, [0.05, 0.07, 0.06], scaled=True)
    value = {k: v["value"] for k, v in metrics.items()}
    assert value["wall_s"] == pytest.approx(0.2 + 0.4)
    assert value["op_p50_ms"] == pytest.approx(300.0)
    assert value["setup_s"] == pytest.approx(0.06)
    assert value["peak_rss_mb"] == 11.0
