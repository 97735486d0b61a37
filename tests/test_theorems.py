"""Exhaustive verifiers and the vanishing-verdict engine."""

import ast
import bisect
import collections
import hashlib
import inspect
import itertools
import json
import math
import re
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest

import dimeq.representations
import dimeq.theorems
from dimeq import (
    Dominance,
    Eisenstein,
    EpsilonVector,
    EquationFails,
    ExplicitOrbit,
    Generic,
    IntegralSpec,
    InternalError,
    InvalidInputError,
    Lemma2Case,
    NotApplicable,
    NotConcluded,
    Partition,
    ResourceLimitError,
    Speh,
    TrivialConstituent,
    Vanishes,
    check_corollary1,
    dim_rep,
    dominance_floor,
    enumerate_partitions,
    epsilon_preimage,
    lemma2_I,
    lemma2_reduction_cases,
    minimal_eisenstein,
    partition_from_epsilon,
    residual_bound,
    top_trivial_block,
    vanishing_verdict,
    verdict_to_json,
    verify_epsilon_orbit_claim,
    verify_lemma1,
    verify_lemma2,
    verify_lemma2_reduction,
    verify_prop3,
    verify_prop4,
    verify_prop5,
)
from dimeq.partitions import balanced_partition
from dimeq.theorems import (
    VERIFIERS,
    _block_sweep,
    _finish,
    _pair_sweep,
    _partition_counts,
    _ratio,
    verification_sweep,
)

T = TrivialConstituent


class TestLemma2Margin:
    @pytest.mark.parametrize(
        "lam,mu,expected",
        [
            ((2, 1, 1), (2, 2), 1),
            ((4,), (2, 2), 4),
            ((2, 2), (2, 2), 2),
            ((5,), (4, 1), 9),
        ],
    )
    def test_frozen(self, lam, mu, expected):
        assert lemma2_I(Partition(lam), Partition(mu)) == expected

    def test_twice_margin_is_orbit_excess(self):
        # 2I == orbit_dim(lam) + orbit_dim(mu) - (n^2 - n), for every pair
        for n in range(2, 11):
            base = n * n - n
            ps = list(enumerate_partitions(n))
            for mu in ps:
                if mu.is_trivial_orbit():
                    continue
                for lam in ps:
                    got = 2 * lemma2_I(lam, mu)
                    assert got == lam.orbit_dim() + mu.orbit_dim() - base

    def test_huge_rank_margin_is_summed_by_runs(self):
        # n = 5*10^6: I = n + n^2/4 - (4.5k^2 + 2.5k) with k = 10^6
        k = 10**6
        lam = Partition.from_runs([(3, k), (2, k)])
        mu = Partition.from_runs([(2, 5 * k // 2)])
        tracemalloc.start()
        try:
            got = lemma2_I(lam, mu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 1_750_002_500_000
        assert peak < 1_000_000

    def test_rejects_mismatched_n(self):
        with pytest.raises(InvalidInputError):
            lemma2_I(Partition((3,)), Partition((2, 2)))

    def test_rejects_trivial_mu(self):
        with pytest.raises(InvalidInputError):
            lemma2_I(Partition((2, 2)), Partition((1, 1, 1, 1)))


def lemma2_pairs_oracle(n):
    """All (mu, lam) pairs the statement quantifies over, the slow way."""
    parts = [p for p in enumerate_partitions(n) if not p.is_trivial_orbit()]
    return [
        (mu, lam)
        for mu in parts
        for lam in parts
        if lam.length <= n - mu.length + 1
    ]


class TestVerifyLemma2:
    def test_passes_through_16(self):
        for n in range(2, 17):
            r = verify_lemma2(n)
            assert r.passed and not r.counterexamples, n

    def test_space_matches_pair_oracle(self):
        for n in range(2, 13):
            pairs = lemma2_pairs_oracle(n)
            r = verify_lemma2(n)
            assert r.space_size == len(pairs), n
            worst = min(mu.orbit_dim() + lam.orbit_dim() for mu, lam in pairs)
            assert r.passed == (worst > n * n - n)

    def test_n4_worked(self):
        pairs = lemma2_pairs_oracle(4)
        assert len(pairs) == 15
        sums = {mu.orbit_dim() + lam.orbit_dim() for mu, lam in pairs}
        assert min(sums) == 14 > 12
        assert verify_lemma2(4).space_size == 15

    def test_rejects_small_n(self):
        with pytest.raises(InvalidInputError):
            verify_lemma2(1)


def _window(a, m1):
    """The a-window (left, right] of n that Lemma2Case states, for a >= 3."""
    return Fraction(a * m1 - a - 1, a - 1), Fraction((a - 1) * m1 - a, a - 2)


class TestReductionCases:
    @pytest.mark.parametrize(
        "n,m1,expected",
        [
            (6, 4, [(2, 3, 0, (2, 2, 2))]),
            (7, 3, [(2, 2, 3, (2, 2, 1, 1, 1))]),
            (7, 7, [(7, 1, 0, (7,))]),
            (7, 5, [(3, 1, 2, (3, 2, 2))]),
            (2, 2, [(2, 1, 0, (2,))]),
        ],
    )
    def test_frozen(self, n, m1, expected):
        got = [
            (c.a, c.p1, c.p2, c.partition.parts)
            for c in lemma2_reduction_cases(n, m1)
        ]
        assert got == expected

    def test_matches_the_windowed_search(self):
        # the a-window, tested case by case, never drops an admissible shape;
        # and every case keeps the invariants Lemma2Case states
        for n in range(2, 41):
            for m1 in range(2, n + 1):
                s = n - m1 + 1
                want = []
                for a in range(2, m1 + 1):
                    p2 = a * s - n
                    p1 = s - p2
                    if p1 < 1 or p2 < 0:
                        continue
                    if a >= 3:
                        left, right = _window(a, m1)
                        if not left < n <= right:
                            continue
                    want.append((a, p1, p2))
                cases = lemma2_reduction_cases(n, m1)
                assert [(c.a, c.p1, c.p2) for c in cases] == want, (n, m1)
                for c in cases:
                    assert 2 <= c.a <= m1, (n, m1, c)
                    assert c.a != 2 or n >= 2 * m1 - 2, (n, m1, c)

    def test_the_one_case_is_beta(self):
        for n in range(2, 301):
            for m1 in range(2, n + 1):
                (case,) = lemma2_reduction_cases(n, m1)
                assert case.partition == balanced_partition(n, n - m1 + 1), (n, m1)

    def test_n_lies_in_the_window_of_ceil_n_over_s_alone(self):
        # the integers of each a-window, against a = ceil(n/s), s = n - m1 + 1
        top = 400
        for m1 in range(3, top + 1):
            held = set()
            for a in range(3, m1 + 1):
                left, right = _window(a, m1)
                lo, hi = max(math.floor(left) + 1, m1), min(math.floor(right), top)
                held.update((n, a) for n in range(lo, hi + 1))
            want = {(n, -(-n // (n - m1 + 1))) for n in range(m1, top + 1)}
            assert held == {(n, a) for n, a in want if a >= 3}, m1

    def test_huge_m1_takes_no_scan(self):
        # a scan over a in [2, m1] would not finish
        n = 10**18
        (case,) = lemma2_reduction_cases(n, n - 5)
        assert (case.a, case.p1, case.p2) == (n // 6 + 1, 4, 2)

    def test_partition_is_derived_from_the_shape(self):
        c = Lemma2Case(a=3, p1=1, p2=1)
        assert c.partition == Partition((3, 2))
        assert repr(c) == "Lemma2Case(a=3, p1=1, p2=1, partition=Partition([3, 2]))"
        assert c == Lemma2Case(3, 1, 1) and c != Lemma2Case(3, 2, 1)
        assert hash(c) == hash(Lemma2Case(3, 1, 1))

    def test_huge_case_is_built_from_runs(self):
        tracemalloc.start()
        try:
            c = Lemma2Case(3, 10**7, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert c.partition.runs == ((3, 10**7),)
        assert peak < 1_000_000

    def test_cases_have_declared_shape(self):
        for n in range(2, 21):
            for m1 in range(2, n + 1):
                s = n - m1 + 1
                for c in lemma2_reduction_cases(n, m1):
                    assert c.partition.n == n
                    assert c.partition.length == s
                    assert c.partition.parts[0] == c.a

    def test_rejects_bad_m1(self):
        with pytest.raises(InvalidInputError):
            lemma2_reduction_cases(6, 1)
        with pytest.raises(InvalidInputError):
            lemma2_reduction_cases(6, 7)
        with pytest.raises(InvalidInputError):
            lemma2_reduction_cases(1, 2)

    def test_case_invariants_bite(self):
        with pytest.raises(InvalidInputError):
            Lemma2Case(a=1, p1=1, p2=0)
        with pytest.raises(InvalidInputError):
            Lemma2Case(a=2, p1=0, p2=2)
        with pytest.raises(InvalidInputError):
            Lemma2Case(a=2, p1=1, p2=-1)

    @pytest.mark.parametrize(
        "a,p1,p2,fault",
        [
            (3, True, 0, "an integer p1, got True"),
            (2, 1, False, "an integer p2, got False"),
            (True, 1, 0, "an integer a, got True"),
            (3.0, 1, 0, "an integer a, got 3.0"),
            (3, 1, 0.5, "an integer p2, got 0.5"),
            (3, 1.0, 0, "an integer p1, got 1.0"),
            ("3", 1, 0, "an integer a, got '3'"),
        ],
    )
    def test_fields_must_be_ints(self, a, p1, p2, fault):
        # a bool, float or string is refused, the first faulty field named
        with pytest.raises(InvalidInputError, match=f"^{re.escape('Lemma2Case needs ' + fault)}$"):
            Lemma2Case(a, p1, p2)

    def test_bad_shape_is_reported_first(self):
        # each field is checked in full, type then range, in argument order
        with pytest.raises(
            InvalidInputError, match=r"^Lemma2Case needs a >= 2, got 1$"
        ):
            Lemma2Case(a=1, p1=0, p2=-1)


class TestVerifyReduction:
    def test_passes_through_16(self):
        for n in range(2, 17):
            r = verify_lemma2_reduction(n)
            assert r.passed and not r.counterexamples, n

    @pytest.mark.parametrize(
        "n,expected",
        [
            (2, []),
            (3, [(3, 3)]),
            (4, [(4, 4)]),
            (5, [(3, 4)]),
            (6, [(3, 5)]),
            (7, [(3, 5)]),
            (8, []),
            (9, []),
            (12, []),
        ],
    )
    def test_literal_inequality_corners(self, n, expected):
        notes = verify_lemma2_reduction(n).parameters[
            "literal_side_inequality_failures"
        ]
        assert [(d["a"], d["m1"]) for d in notes] == expected

    def test_note_is_not_a_counterexample(self):
        r = verify_lemma2_reduction(5)
        assert r.passed
        assert r.parameters["literal_side_inequality_failures"]
        assert not r.counterexamples


class TestVerifyLemma1:
    def test_passes_through_30(self):
        for n in range(2, 31):
            r = verify_lemma1(n)
            assert r.passed and not r.counterexamples, n

    def test_n6_worked(self):
        r = verify_lemma1(6)
        # rectangles (6), (3,3), (2,2,2): 6 pairs + 3 dominance + 1 floor
        assert r.parameters == {"n": 6, "rectangles": 3}
        assert r.space_size == 10

    def test_prime_n_has_one_rectangle(self):
        r = verify_lemma1(13)
        assert r.parameters["rectangles"] == 1 and r.passed

    def test_rejects_small_n(self):
        with pytest.raises(InvalidInputError):
            verify_lemma1(1)

    def test_rectangles_match_the_linear_divisor_scan(self, monkeypatch):
        # the rectangles reach the pair sweep in the order of the O(n) scan
        seen = []

        def spy(orbits, *args):
            seen.append(orbits)
            return _pair_sweep(orbits, *args)

        monkeypatch.setattr(dimeq.theorems, "_pair_sweep", spy)
        for n in range(2, 3001):
            rects = [Partition((p,) * (n // p)) for p in range(n, 1, -1) if n % p == 0]
            r = verify_lemma1(n)
            assert seen.pop() == rects, n
            k = len(rects)
            assert r.parameters == {"n": n, "rectangles": k}, n
            assert r.space_size == k * (k + 1) // 2 + k + 1 and r.passed, n

    def test_huge_n_pairs_divisors_up_to_its_square_root(self):
        start = time.perf_counter()
        r = verify_lemma1(10**12)
        assert time.perf_counter() - start < 5  # the linear scan would take hours
        assert r.passed and r.parameters == {"n": 10**12, "rectangles": 168}


class TestVerifyProp3:
    def test_passes_through_12(self):
        for n in range(4, 13):
            assert verify_prop3(n).passed, n

    def test_n6_worked(self):
        r = verify_prop3(6)
        assert r.parameters == {"n": 6, "orbits": 7}
        # smallest admissible orbit is (2,2,2) with rep dim 9: worst pair 18
        dims = [p.rep_dim() for p in enumerate_partitions(6, max_length=3)]
        assert 2 * min(dims) == 18 > 15
        assert r.passed


def pair_sweep_oracle(orbits, floor, bound, key):
    """_pair_sweep's (space, violations), visiting every pair."""
    space, violations = 0, []
    for i, first in enumerate(orbits):
        for second in orbits[i:]:
            space += 1
            s = first.rep_dim() + second.rep_dim()
            if s <= bound:
                violations.append(
                    {
                        "first": list(first.parts),
                        "second": list(second.parts),
                        "rep_dim_sum": s,
                        "must_exceed": bound,
                    }
                )
    for p in orbits:
        space += 1
        if not p.dominates(floor):
            violations.append({key: list(p.parts), "fails_to_dominate": list(floor.parts)})
    return space, violations


class TestPairSweep:
    """The aggregated sweep behind lemma1 and prop3, on bounds that some
    pairs do not clear, against the pair-by-pair oracle."""

    @pytest.mark.parametrize("n", range(2, 13))
    @pytest.mark.parametrize("family", ["rectangle", "orbit"])
    def test_matches_oracle(self, n, family):
        if family == "rectangle":
            orbits = [Partition((p,) * (n // p)) for p in range(n, 1, -1) if n % p == 0]
        else:
            orbits = list(enumerate_partitions(n, max_length=n // 2))
        dims = [p.rep_dim() for p in orbits]
        lo, hi = 2 * min(dims), 2 * max(dims)
        key = lambda d: json.dumps(d, sort_keys=True)
        for floor in (dominance_floor(n), Partition((n,))):
            for bound in sorted({lo - 1, lo, lo + 1, (lo + hi) // 2, hi, n * (n - 1) // 2}):
                space, got = _pair_sweep(orbits, floor, bound, family)
                want_space, want = pair_sweep_oracle(orbits, floor, bound, family)
                assert space == want_space
                assert sorted(got, key=key) == sorted(want, key=key)
                # at bound 2 * min the smallest orbit paired with itself fails
                assert (bound >= lo) == any("rep_dim_sum" in v for v in got)


class TestResidualBound:
    @pytest.mark.parametrize(
        "n,blocks,expected",
        [(5, (4, 4, 4), 1), (4, (3, 3), 1), (9, (5,), 4), (6, (5, 5), 3)],
    )
    def test_frozen(self, n, blocks, expected):
        assert residual_bound(n, blocks) == expected

    def test_can_go_negative(self):
        assert residual_bound(6, (4, 1)) == -2

    def test_rejects_bad_blocks(self):
        with pytest.raises(InvalidInputError):
            residual_bound(5, ())
        with pytest.raises(InvalidInputError):
            residual_bound(5, (5,))
        with pytest.raises(InvalidInputError):
            residual_bound(5, (0,))
        with pytest.raises(InvalidInputError):
            residual_bound(1, (1,))

    @pytest.mark.parametrize(
        "n,blocks,message",
        [
            # with several faults, the first check in this order reports
            (1, (), "residual_bound needs at least one block"),
            (1, (5,), "residual_bound needs n >= 2, got 1"),
            (5, (0, 9), "residual_bound needs block in [1, 4], got 0"),
            (5, (4, 9, 0), "residual_bound needs block in [1, 4], got 9"),
        ],
    )
    def test_first_fault_names_itself(self, n, blocks, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            residual_bound(n, blocks)


class TestCorollary1:
    def test_frozen(self):
        assert check_corollary1(5, 3, (4, 4, 4)) is True
        # boundary: sum 9 == n(l-1)+1, one short of the threshold
        assert check_corollary1(4, 3, (3, 3, 3)) is False

    def test_threshold_is_sharp(self):
        assert check_corollary1(6, 2, (5, 3)) is True  # 8 == 6+2
        assert check_corollary1(6, 2, (5, 2)) is False  # 7 == 6+1

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            check_corollary1(5, 1, (4,))
        with pytest.raises(InvalidInputError):
            check_corollary1(5, 3, (4, 4))
        with pytest.raises(InvalidInputError):
            check_corollary1(5, 2, (5, 4))

    @pytest.mark.parametrize(
        "n,l,blocks,message",
        [
            # with several faults, the first check in this order reports:
            # l, then the block count, then n, then each block in turn
            (1, 1, (0,), "check_corollary1 needs l >= 2, got 1"),
            (5, 2, (9, 9, 9),
             "check_corollary1 needs one block per representation, got l=2 and 3 blocks"),
            (1, 3, (9, 9),
             "check_corollary1 needs one block per representation, got l=3 and 2 blocks"),
            (1, 2, (0, 0), "check_corollary1 needs n >= 2, got 1"),
            (5, 2, (9, 0), "check_corollary1 needs block in [1, 4], got 9"),
        ],
    )
    def test_first_fault_names_itself(self, n, l, blocks, message):
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            check_corollary1(n, l, blocks)


# -- brute-force oracles: every tuple or pattern, feasible or not ---------------


def prop4_oracle(n, l, mode, cex_cap):
    budget = n * (n - 1) // 2
    threshold = n * (l - 1) + 2
    big = tuple(range(n - 1, n // 2, -1))
    space = feasible = 0
    violations = []
    if mode == "paper":
        for tup in itertools.combinations_with_replacement(big, l):
            space += 1
            if sum(m * (n - m) for m in tup) > budget:
                continue
            feasible += 1
            if sum(tup) < threshold:
                violations.append(
                    {"blocks": list(tup), "block_sum": sum(tup), "required": threshold}
                )
    else:
        for first in itertools.combinations_with_replacement(big, l - 1):
            head_cost = sum(m * (n - m) for m in first)
            for mj in range(n - 1, 0, -1):
                space += 1
                if head_cost + mj * (n - mj) > budget:
                    continue
                feasible += 1
                if sum(first) + mj < threshold:
                    violations.append(
                        {
                            "blocks": list(first) + [mj],
                            "block_sum": sum(first) + mj,
                            "required": threshold,
                        }
                    )
    params = {
        "n": n,
        "l": l,
        "mode": mode,
        "feasible_count": feasible,
        "vacuous": feasible == 0,
    }
    if mode == "paper":
        disc = (l * l - 2 * l) * n * n + 2 * l * n
        rhs = (l - 2) * n + 4
        holds = disc >= rhs * rhs
        params["closed_form"] = {"disc": disc, "rhs_sqrt": rhs, "holds": holds}
        space += 1
        if not holds:
            violations.append({"kind": "closed-form", "disc": disc, "rhs_sqrt": rhs})
    return _finish("prop4", params, space, violations, cex_cap)


def prop5_oracle(n, q, l, cex_cap):
    budget = n * (q - 1) // 2
    required = n - q + 1
    big = tuple(range(n - 1, n // 2, -1))
    space = feasible = 0
    violations = []
    for tup in itertools.combinations_with_replacement(big, l - 1):
        space += 1
        if sum(m * (n - m) for m in tup) > budget:
            continue
        feasible += 1
        rb = sum(tup) - (len(tup) - 1) * n - 1
        if rb < required:
            violations.append(
                {"blocks": list(tup), "residual_bound": rb, "required": required}
            )
    applicable = 2 * (l - 1) * (n - 1) <= n * (q - 1)
    closed = {"applicable": applicable}
    if applicable:
        disc = (l - 1) * (l - 1) * n * n - 2 * n * (l - 1) * (q - 1)
        rhs = (l - 1) * n - 2 * (q - 2)
        holds = rhs < 0 or disc > rhs * rhs
        closed.update({"disc": disc, "rhs_sqrt": rhs, "holds": holds})
        space += 1
        if not holds:
            violations.append({"kind": "closed-form", "disc": disc, "rhs_sqrt": rhs})
    else:
        closed["vacuous"] = True
    params = {
        "n": n,
        "q": q,
        "l": l,
        "p": n // q,
        "feasible_count": feasible,
        "vacuous": feasible == 0,
        "closed_form": closed,
    }
    return _finish("prop5", params, space, violations, cex_cap)


def epsilon_oracle(n, p, q, cex_cap):
    target = Partition((p,) * q)
    need = n - q + 1
    space = 0
    violations = []
    for bits in itertools.product((0, 1), repeat=n - 1):
        if sum(bits) < need:
            continue
        space += 1
        eps = EpsilonVector(n, bits)
        lam = partition_from_epsilon(eps)
        rel = lam.compare(target)
        if rel in (Dominance.LESS, Dominance.EQUAL):
            violations.append(
                {
                    "epsilon": str(eps),
                    "orbit": list(lam.parts),
                    "relation": rel.value,
                    "rectangle": list(target.parts),
                }
            )
    boundary_bits = [1] * (n - 1)
    for k in range(1, q):
        boundary_bits[k * p - 1] = 0
    boundary = partition_from_epsilon(EpsilonVector(n, boundary_bits))
    params = {
        "n": n,
        "p": p,
        "q": q,
        "min_nonzero": need,
        "vacuous": space == 0,
        "boundary_pattern_recovers_rectangle": boundary == target,
    }
    return _finish("epsilon_orbit", params, space, violations, cex_cap)


def same_bytes(got, want):
    return json.dumps(got.to_json()) == json.dumps(want.to_json())


CAPS = (100, 3, 0)


class TestPrunedSweepsMatchOracles:
    """The pruned and aggregated sweeps give byte-identical reports."""

    @pytest.mark.parametrize("n", range(4, 25))
    def test_prop4(self, n):
        for l in range(3, 7):
            for mode in ("paper", "strict"):
                for cap in CAPS:
                    want = prop4_oracle(n, l, mode, cap)
                    got = verify_prop4(n, l, mode=mode, cex_cap=cap)
                    assert same_bytes(got, want), (n, l, mode, cap)

    @pytest.mark.parametrize("n", range(4, 25))
    def test_prop5(self, n):
        for q in range(1, n // 2 + 1):
            if n % q:
                continue
            for l in range(3, 7):
                for cap in CAPS:
                    want = prop5_oracle(n, q, l, cap)
                    assert same_bytes(verify_prop5(n, q, l, cex_cap=cap), want), (
                        n, q, l, cap,
                    )

    @pytest.mark.parametrize("n", range(2, 17))
    def test_epsilon(self, n):
        for p in range(2, n + 1):
            if n % p == 0:
                want = epsilon_oracle(n, p, n // p, 100)
                assert same_bytes(verify_epsilon_orbit_claim(n, p, n // p), want)

    def test_epsilon_counterexamples(self, monkeypatch):
        # No real case violates, so make every orbit compare "equal": each
        # pattern is then a counterexample, reached through the expansion.
        monkeypatch.setattr(Partition, "compare", lambda self, other: Dominance.EQUAL)
        for n in range(2, 11):
            for p in range(2, n + 1):
                if n % p == 0:
                    for cap in CAPS:
                        want = epsilon_oracle(n, p, n // p, cap)
                        got = verify_epsilon_orbit_claim(n, p, n // p, cex_cap=cap)
                        assert same_bytes(got, want), (n, p, cap)
                        assert got.passed == (got.space_size == 0)

    def test_epsilon_preimage_inverts_partition_from_epsilon(self):
        for n in range(2, 13):
            by_orbit = {}
            for bits in itertools.product((0, 1), repeat=n - 1):
                eps = EpsilonVector(n, bits)
                by_orbit.setdefault(partition_from_epsilon(eps), set()).add(eps)
            for lam in enumerate_partitions(n):
                got = list(epsilon_preimage(lam))
                assert len(got) == len(set(got)), lam
                assert set(got) == by_orbit[lam], lam

    def test_prop4_large_n_closed_form_space(self):
        r = verify_prop4(100, 6)
        assert r.space_size == math.comb(54, 6) + 1 == 25827166
        assert r.passed

    def test_epsilon_n40(self):
        r = verify_epsilon_orbit_claim(40, 2, 20)
        assert r.space_size == sum(math.comb(39, z) for z in range(19))
        assert r.space_size == 205954642534
        assert r.passed


# -- enumerating oracles for the dominance-minimum sweeps ----------------------


def lemma2_oracle(n, cex_cap=100):
    """verify_lemma2 as it was before the dominance minima: every nontrivial
    partition listed, a prefix minimum of orbit dims per length bound."""
    lams = sorted(
        (p for p in enumerate_partitions(n) if not p.is_trivial_orbit()),
        key=lambda p: p.length,
    )
    odims = [p.orbit_dim() for p in lams]
    lengths = [p.length for p in lams]
    prefix_min = list(itertools.accumulate(odims, min))
    bound = n * n - n
    space = 0
    violations = []
    for mu, mu_dim in zip(lams, odims):
        k = bisect.bisect_right(lengths, n - mu.length + 1)
        space += k
        if mu_dim + prefix_min[k - 1] > bound:
            continue
        for lam, lam_dim in zip(lams[:k], odims):
            s = mu_dim + lam_dim
            if s <= bound:
                violations.append(
                    {
                        "mu": list(mu.parts),
                        "lambda": list(lam.parts),
                        "orbit_dim_sum": s,
                        "must_exceed": bound,
                    }
                )
    return _finish("lemma2", {"n": n}, space, violations, cex_cap)


def prop3_oracle(n, cex_cap=100):
    """verify_prop3 as it was before the dominance minima: every orbit of
    length at most n/2 listed and handed to _pair_sweep."""
    lams = list(enumerate_partitions(n, max_length=n // 2))
    floor = dimeq.theorems.dominance_floor(n)
    space, violations = _pair_sweep(lams, floor, n * (n - 1) // 2, "orbit")
    return _finish("prop3", {"n": n, "orbits": len(lams)}, space, violations, cex_cap)


def reduction_oracle(n, cex_cap=100):
    """verify_lemma2_reduction as it was before the dominance minima: every
    (case, mu) pair of branch (i) and every candidate of branch (ii) visited,
    and i-alt's smallest rep dim taken over the listed mu's transposes."""
    space = 0
    violations = []
    literal_notes = []
    mus_by_len = {}
    for mu in enumerate_partitions(n):
        if not mu.is_trivial_orbit():
            mus_by_len.setdefault(mu.length, []).append(mu)
    for m1 in range(2, n + 1):
        cases = dimeq.theorems.lemma2_reduction_cases(n, m1)
        s = n - m1 + 1
        if m1 < n:
            rep_dim = dimeq.theorems.balanced_partition(n, m1).rep_dim()
            alt = min(
                (sum(m) ** 2 - sum(x * x for x in m)) // 2
                for m in (mu.transpose().parts for mu in mus_by_len[m1])
            )
            if alt != rep_dim:
                violations.append(
                    {"branch": "i-alt", "m1": m1, "rep_dim": rep_dim, "alternate": alt}
                )
        for case in cases:
            for mu in mus_by_len.get(m1, ()):
                space += 1
                margin = lemma2_I(case.partition, mu)
                if margin <= 0:
                    violations.append(
                        {
                            "branch": "i",
                            "case": list(case.partition.parts),
                            "mu": list(mu.parts),
                            "margin": margin,
                        }
                    )
        for lam in enumerate_partitions(n, max_length=s):
            if lam.parts[0] > m1 - 1:
                continue
            space += 1
            if not any(lam.dominates(c.partition) for c in cases):
                violations.append(
                    {
                        "branch": "ii",
                        "m1": m1,
                        "lambda": list(lam.parts),
                        "cases": [list(c.partition.parts) for c in cases],
                    }
                )
        for a in range(3, m1 + 1):
            left, left_den = a * m1 - (a + 1), a - 1
            if not (left < n * left_den and n * (a - 2) <= (a - 1) * m1 - a):
                continue
            space += 1
            needed, needed_den = (3 * a - 2) * (m1 - 1), 3 * a - 4
            if n * needed_den < needed:
                violations.append(
                    {"branch": "iii", "a": a, "m1": m1, "n": n,
                     "needed": _ratio(needed, needed_den)}
                )
            if left * needed_den < needed * left_den:
                literal_notes.append(
                    {"a": a, "m1": m1, "window_left": _ratio(left, left_den),
                     "needed": _ratio(needed, needed_den)}
                )
    params = {"n": n, "literal_side_inequality_failures": literal_notes}
    return _finish("lemma2_reduction", params, space, violations, cex_cap)


MINIMUM_SWEEPS = [
    ("lemma2", verify_lemma2, lemma2_oracle, range(2, 31)),
    ("prop3", verify_prop3, prop3_oracle, range(2, 31)),
    ("lemma2-reduction", verify_lemma2_reduction, reduction_oracle, range(2, 25)),
]


class _FailsEveryCheck(Partition):
    """A partition that no dominance-minimum check can accept: its orbit
    dimension is hugely negative and it compares with nothing."""

    __slots__ = ()

    def orbit_dim(self):
        return -(10**9)

    def compare(self, other):
        return Dominance.INCOMPARABLE


class TestDominanceMinima:
    """lemma2, prop3 and lemma2-reduction check one dominance minimum per
    class of cases; their reports equal the enumerating oracles'."""

    @pytest.mark.parametrize("name,verify,oracle,ns", MINIMUM_SWEEPS,
                             ids=[row[0] for row in MINIMUM_SWEEPS])
    def test_reports_equal_the_oracles(self, name, verify, oracle, ns):
        for n in ns:
            assert same_bytes(verify(n), oracle(n)), n

    @pytest.mark.parametrize("name,verify,oracle,ns", MINIMUM_SWEEPS,
                             ids=[row[0] for row in MINIMUM_SWEEPS])
    def test_every_minimum_failing_walks_to_the_same_report(
        self, monkeypatch, name, verify, oracle, ns
    ):
        monkeypatch.setattr(
            dimeq.theorems, "balanced_partition",
            lambda n, k: _FailsEveryCheck.from_runs(balanced_partition(n, k).runs),
        )
        walks = []
        real_enumerate = dimeq.theorems.enumerate_partitions

        def spy(*args, **kwargs):
            walks.append(args)
            return real_enumerate(*args, **kwargs)

        monkeypatch.setattr(dimeq.theorems, "enumerate_partitions", spy)
        for n in range(4, 15):
            walks.clear()
            for cap in CAPS:
                assert same_bytes(verify(n, cex_cap=cap), oracle(n, cap)), (n, cap)
            assert walks, n

    @pytest.mark.parametrize("name,verify,oracle,ns", MINIMUM_SWEEPS,
                             ids=[row[0] for row in MINIMUM_SWEEPS])
    def test_real_violations_are_walked_like_the_oracles(
        self, monkeypatch, name, verify, oracle, ns
    ):
        # Lower every orbit dimension by one even amount: the minima stay
        # where they are, and some pairs of every sweep now fail.
        real_orbit_dim = Partition.orbit_dim
        for n in range(4, 13):
            shift = 2 * (n * n // 4)
            monkeypatch.setattr(Partition, "orbit_dim", lambda p: real_orbit_dim(p) - shift)
            for cap in CAPS:
                got, want = verify(n, cex_cap=cap), oracle(n, cap)
                assert same_bytes(got, want), (n, cap)
            assert not want.passed, n

    @pytest.mark.parametrize("step,branch", [(-1, "i")])
    def test_cases_of_a_neighbouring_m1_are_walked_like_the_oracle(
        self, monkeypatch, step, branch
    ):
        # The cases of m1 - 1 fail branch (i) at m1.  Each m1 keeps one case,
        # and its own a, which branch (iii) reads off the case.
        real_cases = dimeq.theorems.lemma2_reduction_cases

        def neighbour_cases(n, m1):
            (case,) = real_cases(n, m1)
            if 2 <= m1 + step <= n:
                (other,) = real_cases(n, m1 + step)
                case = types.SimpleNamespace(a=case.a, partition=other.partition)
            return [case]

        monkeypatch.setattr(dimeq.theorems, "lemma2_reduction_cases", neighbour_cases)
        for n in range(4, 15):
            for cap in CAPS:
                got, want = verify_lemma2_reduction(n, cex_cap=cap), reduction_oracle(n, cap)
                assert same_bytes(got, want), (n, cap)
            assert branch in {v["branch"] for v in reduction_oracle(n).counterexamples}, n

    def test_a_minimum_exactly_at_the_bound_is_walked(self, monkeypatch):
        # Shift every orbit dimension so that the smallest sum of each sweep
        # lands on its bound: the pairs there fail, and only a walk finds them.
        real_orbit_dim = Partition.orbit_dim
        for n in range(4, 14):
            low = [0] + [balanced_partition(n, k).orbit_dim() for k in range(1, n)]
            least = min(low[k] + low[min(n - k + 1, n - 1)] for k in range(1, n))
            shift = (least - (n * n - n)) // 2
            monkeypatch.setattr(Partition, "orbit_dim", lambda p: real_orbit_dim(p) - shift)
            want = lemma2_oracle(n)
            assert want.counterexamples[0]["orbit_dim_sum"] == n * n - n, n
            assert same_bytes(verify_lemma2(n), want), n
            monkeypatch.setattr(Partition, "orbit_dim", real_orbit_dim)
            if n * (n - 1) % 4 == 0:  # prop3's bound n(n-1)/2 is even
                shift = 2 * balanced_partition(n, n // 2).rep_dim() - n * (n - 1) // 2
                monkeypatch.setattr(Partition, "orbit_dim", lambda p: real_orbit_dim(p) - shift)
                want = prop3_oracle(n)
                assert want.counterexamples[0]["rep_dim_sum"] == n * (n - 1) // 2, n
                assert same_bytes(verify_prop3(n), want), n
                monkeypatch.setattr(Partition, "orbit_dim", real_orbit_dim)

    def test_orbits_below_a_raised_floor_are_walked_like_the_oracle(self, monkeypatch):
        # With the floor raised to the balanced partition of one part fewer,
        # the orbits of exactly n // 2 parts fail to dominate it.
        monkeypatch.setattr(
            dimeq.theorems, "dominance_floor", lambda n: balanced_partition(n, n // 2 - 1)
        )
        for n in range(6, 17):
            for cap in CAPS:
                assert same_bytes(verify_prop3(n, cex_cap=cap), prop3_oracle(n, cap)), (n, cap)
            assert any("fails_to_dominate" in v for v in prop3_oracle(n).counterexamples), n

    def test_no_walk_on_the_verified_ranges(self, monkeypatch):
        # Every minimum passes, so no partitions are listed at all.
        walks = []
        real_enumerate = dimeq.theorems.enumerate_partitions

        def spy(*args, **kwargs):
            walks.append((args, kwargs))
            return real_enumerate(*args, **kwargs)

        monkeypatch.setattr(dimeq.theorems, "enumerate_partitions", spy)
        for name, verify, oracle, ns in MINIMUM_SWEEPS:
            for n in ns:
                walks.clear()
                assert verify(n).passed, (name, n)
                assert walks == [], (name, n)

    def test_a_non_minimal_beta_fails_i_alt_once(self, monkeypatch):
        # Swap beta at one m1 <= n - 2 for the hook of that length, which is
        # not beta and has a larger rep dim: the columns find the true minimum.
        real_balanced = dimeq.theorems.balanced_partition
        for n in range(4, 15):
            for m1 in range(2, n - 1):
                hook = Partition.from_runs([(n - m1 + 1, 1), (1, m1 - 1)])
                beta = real_balanced(n, m1)
                monkeypatch.setattr(
                    dimeq.theorems, "balanced_partition",
                    lambda n_, k: hook if (n_, k) == (n, m1) else real_balanced(n_, k),
                )
                got = verify_lemma2_reduction(n)
                assert same_bytes(got, reduction_oracle(n)), (n, m1)
                assert list(got.counterexamples) == [
                    {"branch": "i-alt", "m1": m1, "rep_dim": hook.rep_dim(),
                     "alternate": beta.rep_dim()}
                ], (n, m1)

    def test_balanced_partition_is_the_dominance_minimum(self):
        for n in range(2, 31):
            every = list(enumerate_partitions(n))
            for k in range(1, n):
                beta = balanced_partition(n, k)
                assert beta.length == k and beta.n == n, (n, k)
                assert beta.parts[0] - beta.parts[-1] <= 1, (n, k)
                dim = beta.orbit_dim()
                for lam in every:
                    if lam.length <= k:
                        assert lam.dominates(beta), (n, k, lam)
                        assert lam.orbit_dim() >= dim, (n, k, lam)

    def test_balanced_partition_checks_its_arguments(self):
        assert balanced_partition(7, 7) == Partition((1,) * 7)
        for k, message in [(0, "balanced_partition needs k in [1, 7], got 0"),
                           (8, "balanced_partition needs k in [1, 7], got 8"),
                           (2.0, "balanced_partition needs an integer k, got 2.0")]:
            with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
                balanced_partition(7, k)

    def test_count_table_counts_the_partitions(self):
        # the empty partition of 0 has no parts; enumerate_partitions needs n >= 1
        assert _partition_counts(0) == [1]
        for n in range(1, 31):
            lengths = collections.Counter(p.length for p in enumerate_partitions(n))
            at_most = [sum(c for l, c in lengths.items() if l <= k) for k in range(n + 1)]
            assert _partition_counts(n) == at_most, n

    def test_count_table_holds_one_row(self):
        # Tracing slows the count tenfold, so the exact value is read at
        # n = 2000 untraced and the memory is measured at n = 600, where
        # keeping every row of an (n+1)^2 table peaks near 10 MB.
        assert _partition_counts(2000)[2000] == 4720819175619413888601432406799959512200344166
        tracemalloc.start()
        try:
            _partition_counts(600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestBlockSweep:
    """_block_sweep, the search behind prop4 and prop5, against every tuple."""

    @pytest.mark.parametrize("n", range(4, 17))
    def test_matches_brute_force(self, n):
        big = range(n - 1, n // 2, -1)
        for k in range(1, 5):
            tuples = list(itertools.combinations_with_replacement(big, k))
            costs = {t: sum(m * (n - m) for m in t) for t in tuples}
            for budget in sorted({-n, -1, 0} | set(costs.values())):
                fits = [t for t in tuples if costs[t] <= budget]
                for below in range(k * (n - 1) + 2):
                    space, feasible, short = _block_sweep(n, k, budget, below)
                    assert (space, feasible) == (len(tuples), len(fits)), (n, k, budget)
                    assert len(short) == len(set(short)), (n, k, budget, below)
                    want = {t for t in fits if sum(t) < below}
                    assert set(short) == want, (n, k, budget, below)

    def test_callers_report_exactly_the_short_tuples(self, monkeypatch):
        # No real prop4 or prop5 input falls short, so the sweep is given a
        # budget every tuple fits: each caller must then report exactly the
        # tuples its statement rejects, through its own threshold or
        # residual_bound.
        sweep = dimeq.theorems._block_sweep
        monkeypatch.setattr(
            dimeq.theorems, "_block_sweep", lambda n, k, _, below: sweep(n, k, n * n * k, below)
        )

        def reported(r):
            return sorted(c["blocks"] for c in r.counterexamples if "blocks" in c)

        for n in range(4, 17):
            big = range(n - 1, n // 2, -1)
            for l in range(3, 6):
                want = [
                    list(t)
                    for t in itertools.combinations_with_replacement(big, l)
                    if sum(t) < n * (l - 1) + 2
                ]
                assert reported(verify_prop4(n, l, cex_cap=10**6)) == sorted(want), (n, l)
                for q in range(2, n // 2 + 1):
                    if n % q:
                        continue
                    want = [
                        list(t)
                        for t in itertools.combinations_with_replacement(big, l - 1)
                        if residual_bound(n, t) < n - q + 1
                    ]
                    got = reported(verify_prop5(n, q, l, cex_cap=10**6))
                    assert got == sorted(want), (n, q, l)

    @pytest.mark.parametrize(
        "call,slots",
        [
            (lambda: verify_prop4(3000, 1400), "n=3000, 1400 slots"),
            (lambda: verify_prop4(3000, 1400, mode="strict"), "n=3000, 1399 slots"),
            (lambda: verify_prop5(6000, 3000, 1400), "n=6000, 1399 slots"),
        ],
    )
    def test_too_deep_is_a_resource_limit(self, call, slots):
        with pytest.raises(ResourceLimitError, match=f"too deep: {slots}$"):
            call()

    def test_depth_limit_does_not_depend_on_the_caller(self):
        # 979 leading blocks are within the fixed limit and 1,199 past it,
        # however many frames the caller already holds
        def nested(frames, call):
            return nested(frames - 1, call) if frames else call()

        for frames in (0, 300):
            r = nested(frames, lambda: verify_prop4(1960, 980))
            assert r.passed and r.parameters["feasible_count"] == 1, frames
            with pytest.raises(ResourceLimitError, match="too deep: n=2400, 1200 slots$"):
                nested(frames, lambda: verify_prop4(2400, 1200))


class TestVerifyProp4:
    def test_paper_10_3(self):
        r = verify_prop4(10, 3)
        assert r.passed
        assert r.parameters["mode"] == "paper"
        assert r.parameters["feasible_count"] == 5
        assert not r.parameters["vacuous"]
        assert r.parameters["closed_form"] == {
            "disc": 360,
            "rhs_sqrt": 14,
            "holds": True,
        }

    def test_paper_grid(self):
        for n in range(4, 25):
            for l in range(3, 6):
                r = verify_prop4(n, l)
                assert r.passed, (n, l)
                assert r.parameters["closed_form"]["holds"]

    def test_strict_10_3_documents_the_gap(self):
        r = verify_prop4(10, 3, mode="strict")
        assert not r.passed
        got = {tuple(c["blocks"]) for c in r.counterexamples}
        assert got == {
            (8, 8, 1),
            (9, 6, 1),
            (9, 7, 1),
            (9, 8, 1),
            (9, 8, 2),
            (9, 9, 1),
            (9, 9, 2),
            (9, 9, 3),
        }
        assert all(c["required"] == 22 for c in r.counterexamples)

    @pytest.mark.parametrize(
        "cap,digest",
        [
            (
                dimeq.theorems.DEFAULT_CEX_CAP,
                "56a33b535eeded3a8d52b6d69c9911b682aff7448307b71d670b521dfd9023d5",
            ),
            (3, "0e2042e66b847ae372a77b6fd9a5e9ee0846ef97282207cb3c562a9deabc3a25"),
        ],
    )
    def test_strict_reports_are_pinned(self, cap, digest):
        # strict mode meets the oracle only up to n = 24 and is not part of
        # `verify all`, so its reports over a wider grid are pinned here
        reports = [
            json.dumps(
                verify_prop4(n, l, mode="strict", cex_cap=cap).to_json(),
                separators=(",", ":"),
            )
            for n in range(4, 41)
            for l in range(3, 7)
        ]
        assert len(reports) == 148
        assert hashlib.sha256("\n".join(reports).encode()).hexdigest() == digest

    def test_cex_cap_truncates_but_counts(self):
        r = verify_prop4(10, 3, mode="strict", cex_cap=3)
        assert len(r.counterexamples) == 3
        assert r.parameters["counterexamples_total"] == 8
        assert not r.passed
        r0 = verify_prop4(10, 3, mode="strict", cex_cap=0)
        assert not r0.counterexamples and not r0.passed
        assert r0.parameters["counterexamples_total"] == 8

    def test_vacuous_paper_case(self):
        r = verify_prop4(4, 6)
        assert r.parameters["vacuous"] and r.parameters["feasible_count"] == 0
        assert r.passed  # closed form still holds; no violations

    def test_closed_form_is_exact_arithmetic(self):
        # disc >= rhs^2 with both sides integers, so the square-root bound
        # needs no tolerance at all
        for n in range(4, 61):
            for l in range(3, 7):
                disc = (l * l - 2 * l) * n * n + 2 * l * n
                rhs = (l - 2) * n + 4
                assert disc >= rhs * rhs, (n, l)
                assert math.isqrt(disc) >= rhs, (n, l)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            verify_prop4(3, 3)
        with pytest.raises(InvalidInputError):
            verify_prop4(10, 2)
        with pytest.raises(InvalidInputError):
            verify_prop4(10, 3, mode="loose")


class TestVerifyProp5:
    def test_12_6_3(self):
        r = verify_prop5(12, 6, 3)
        assert r.passed
        assert r.parameters["p"] == 2
        assert r.parameters["feasible_count"] == 1
        assert not r.parameters["vacuous"]
        cf = r.parameters["closed_form"]
        assert cf["applicable"] and cf["holds"]
        assert cf["disc"] == 336 and cf["rhs_sqrt"] == 16

    def test_both_vacuous_cases(self):
        for n, q in ((6, 3), (4, 2)):
            r = verify_prop5(n, q, 3)
            assert r.passed
            assert r.parameters["vacuous"]
            assert r.parameters["closed_form"] == {
                "applicable": False,
                "vacuous": True,
            }

    def test_grid(self):
        for n in range(4, 25):
            for q in range(2, n // 2 + 1):
                if n % q:
                    continue
                for l in range(3, 7):
                    assert verify_prop5(n, q, l).passed, (n, q, l)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            verify_prop5(6, 4, 3)  # q does not divide n
        with pytest.raises(InvalidInputError):
            verify_prop5(6, 6, 3)  # p = 1
        with pytest.raises(InvalidInputError):
            verify_prop5(12, 6, 2)


class TestEpsilonOrbit:
    def test_6_2_3(self):
        r = verify_epsilon_orbit_claim(6, 2, 3)
        assert r.passed
        # patterns with >= 4 of 5 ones: C(5,4) + C(5,5)
        assert r.space_size == 6
        assert r.parameters["min_nonzero"] == 4
        assert r.parameters["boundary_pattern_recovers_rectangle"]

    def test_6_3_2(self):
        r = verify_epsilon_orbit_claim(6, 3, 2)
        assert r.passed and r.space_size == 1
        assert r.parameters["boundary_pattern_recovers_rectangle"]

    def test_space_is_binomial_tail(self):
        for n, p in ((8, 2), (8, 4), (9, 3), (12, 3), (12, 4), (10, 5)):
            q = n // p
            r = verify_epsilon_orbit_claim(n, p, q)
            expect = sum(
                math.comb(n - 1, k) for k in range(n - q + 1, n)
            )
            assert r.space_size == expect, (n, p, q)
            assert r.passed

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidInputError):
            verify_epsilon_orbit_claim(6, 1, 6)
        with pytest.raises(InvalidInputError):
            verify_epsilon_orbit_claim(6, 4, 2)


class TestVerdict:
    def test_vanishes_prop1(self):
        spec = IntegralSpec(
            5, (Eisenstein((4, 1), (T(4), T(1))), Eisenstein((3, 2), (T(3), T(2))))
        )
        v = vanishing_verdict(spec)
        assert isinstance(v, Vanishes) and v.by == "prop1"
        assert v.witness["representation_index"] == 0
        assert v.witness["top_trivial_block"] == 4
        assert v.witness["equation_report"]["lhs"] == 10

    def test_equation_fails_lemma1(self):
        v = vanishing_verdict(IntegralSpec(4, (Speh(2, 2), Speh(2, 2))))
        assert isinstance(v, EquationFails) and v.by == "lemma1"
        assert (v.equation_report.lhs, v.equation_report.rhs) == (8, 6)

    def test_not_applicable_plain_mismatch(self):
        spec = IntegralSpec(5, (minimal_eisenstein(5),) * 3)
        v = vanishing_verdict(spec)
        assert isinstance(v, NotApplicable)
        assert "12 != 10" in v.reason

    def test_vanishes_cor1(self):
        spec = IntegralSpec(6, (minimal_eisenstein(6),) * 3)
        v = vanishing_verdict(spec)
        assert isinstance(v, Vanishes) and v.by == "cor1"
        assert v.witness["top_trivial_blocks"] == [5, 5, 5]
        assert v.witness["block_sum"] == 15 and v.witness["required"] == 14

    def test_cor1_cannot_fail_once_the_equation_holds(self, monkeypatch):
        # every representation leads with a trivial block and the equation
        # holds, so Corollary 1 is proved to hold: its failure is a fault
        monkeypatch.setattr(dimeq.theorems, "check_corollary1", lambda n, l, m1s: False)
        with pytest.raises(InternalError, match="fail cor1"):
            vanishing_verdict(IntegralSpec(6, (minimal_eisenstein(6),) * 3))

    def test_equation_fails_prop3(self):
        spec = IntegralSpec(
            6,
            (
                Eisenstein((4, 2), (Speh(2, 2), Generic(2))),
                Speh(2, 3),
            ),
        )
        v = vanishing_verdict(spec)
        assert isinstance(v, EquationFails) and v.by == "prop3"
        assert (v.equation_report.lhs, v.equation_report.rhs) == (22, 15)

    def test_vanishes_prop5(self):
        spec = IntegralSpec(
            16,
            (
                Eisenstein((15, 1), (T(15), T(1))),
                Eisenstein((13, 2, 1), (T(13), T(2), T(1))),
                Speh(2, 8),
            ),
        )
        v = vanishing_verdict(spec)
        assert isinstance(v, Vanishes) and v.by == "prop5"
        assert v.witness["leading_blocks"] == [15, 13]
        assert v.witness["rectangle"] == [2, 8]
        assert v.witness["residual_bound"] == 11
        assert v.witness["required"] == 9
        assert v.witness["equation_report"]["lhs"] == 120

    def test_not_concluded_two_bare_orbits(self):
        orb = ExplicitOrbit(Partition((2, 1, 1)))
        v = vanishing_verdict(IntegralSpec(4, (orb, orb)))
        assert isinstance(v, NotConcluded)
        assert v.reason.startswith("prop1:")

    def test_not_applicable_rect_head_missing(self):
        # equation fails 20 != 15 and the leading constituent's orbit is not
        # a genuine rectangle, so the short-orbit pattern cannot fire
        spec = IntegralSpec(
            6, (Eisenstein((5, 1), (T(5), T(1))), Generic(6))
        )
        v = vanishing_verdict(spec)
        assert isinstance(v, NotApplicable)
        assert "20 != 15" in v.reason

    def test_not_concluded_cor1_missing_top(self):
        # 8 + 8 + 20 == 36 holds, but the third representation is not induced
        spec = IntegralSpec(
            9,
            (
                minimal_eisenstein(9),
                minimal_eisenstein(9),
                ExplicitOrbit(Partition((3, 2, 1, 1, 1, 1))),
            ),
        )
        v = vanishing_verdict(spec)
        assert isinstance(v, NotConcluded)
        assert v.reason.startswith("cor1:")

    def test_requires_two_reps(self):
        with pytest.raises(InvalidInputError):
            vanishing_verdict(IntegralSpec(4, (Generic(4),)))

    def test_json_shapes(self):
        spec = IntegralSpec(4, (Speh(2, 2), Speh(2, 2)))
        j = verdict_to_json(vanishing_verdict(spec))
        assert j["verdict"] == "equation_fails" and j["by"] == "lemma1"
        assert j["equation_report"]["slack"] == 2
        spec = IntegralSpec(6, (minimal_eisenstein(6),) * 3)
        j = verdict_to_json(vanishing_verdict(spec))
        assert j["verdict"] == "vanishes" and j["by"] == "cor1"
        spec = IntegralSpec(5, (minimal_eisenstein(5),) * 3)
        assert verdict_to_json(vanishing_verdict(spec))["verdict"] == "not_applicable"
        orb = ExplicitOrbit(Partition((2, 1, 1)))
        j = verdict_to_json(vanishing_verdict(IntegralSpec(4, (orb, orb))))
        assert j["verdict"] == "not_concluded"
        with pytest.raises(InvalidInputError):
            verdict_to_json("nope")

    def test_deterministic(self):
        spec = IntegralSpec(
            16,
            (
                Eisenstein((15, 1), (T(15), T(1))),
                Eisenstein((13, 2, 1), (T(13), T(2), T(1))),
                Speh(2, 8),
            ),
        )
        assert verdict_to_json(vanishing_verdict(spec)) == verdict_to_json(
            vanishing_verdict(spec)
        )


    def test_prop5_in_every_ordering(self):
        rect = Speh(2, 8)
        for reps in (
            (
                Eisenstein((15, 1), (T(15), T(1))),
                Eisenstein((13, 2, 1), (T(13), T(2), T(1))),
                rect,
            ),
            (Eisenstein((14, 2), (T(14), T(2))),) * 2 + (rect,),
        ):
            for order in set(itertools.permutations(reps)):
                v = vanishing_verdict(IntegralSpec(16, order))
                assert isinstance(v, Vanishes) and v.by == "prop5", order
                assert v.witness["rectangle"] == [2, 8]
                others = [top_trivial_block(r) for r in order if r != rect]
                assert v.witness["leading_blocks"] == others


def big_headed_eisensteins(n):
    """Every all-trivial Eisenstein on GL_n whose leading block exceeds n/2."""
    return [
        Eisenstein(p.parts, tuple(T(b) for b in p.parts))
        for p in enumerate_partitions(n)
        if 2 * p.parts[0] > n and len(p.parts) > 1
    ]


def rectangles(n):
    return [Generic(n)] + [Speh(p, n // p) for p in range(2, n + 1) if n % p == 0]


def test_verdict_ignores_where_the_rectangle_is_listed():
    # two representations leading with a block above n/2, plus a rectangle:
    # the prop5 shape.  At n = 16 and 20 the verdict once depended on order.
    # Only specs on which the equation holds get past the order-blind rules.
    fired = collections.Counter()
    for n in range(4, 27):
        eis = [(e, dim_rep(e)) for e in big_headed_eisensteins(n)]
        rects = [(r, dim_rep(r)) for r in rectangles(n)]
        for (a, da), (b, db) in itertools.combinations_with_replacement(eis, 2):
            for rect, dr in rects:
                if da + db + dr != n * (n - 1) // 2:
                    continue
                kinds = set()
                for order in ((a, b, rect), (a, rect, b), (rect, a, b)):
                    j = verdict_to_json(vanishing_verdict(IntegralSpec(n, order)))
                    kinds.add((j["verdict"], j.get("by")))
                assert len(kinds) == 1, (n, a, b, rect, kinds)
                fired[kinds.pop(), n] += 1
    prop5 = ("vanishes", "prop5")
    assert fired == {
        (prop5, 16): 2, (prop5, 20): 2, (prop5, 22): 1, (prop5, 24): 1, (prop5, 26): 1
    }


def lemma1_family(n):
    return IntegralSpec(n, (Generic(n), Speh(2, n // 2)))


def cor1_family(n):
    return IntegralSpec(n, (minimal_eisenstein(n),) * 3)


def prop5_family(a):
    n = 4 * a * a
    e = Eisenstein((n - a, a), (T(n - a), T(a)))
    return IntegralSpec(n, (e, e, Speh(a, 4 * a)))


class TestHugeRanks:
    """The vanish_large families at rank about 10**18.  Descriptors carry
    their orbits as runs, so a tuple as long as the rank anywhere on the
    verdict path would raise MemoryError."""

    @pytest.mark.parametrize(
        "family,small,huge,kind",
        [
            (lemma1_family, 10**4, 10**18, ("equation_fails", "lemma1")),
            (cor1_family, 10**4, 10**18, ("not_applicable", None)),
            (prop5_family, 50, 10**9, ("vanishes", "prop5")),
        ],
    )
    def test_same_verdict_kind_as_at_ten_thousand(self, family, small, huge, kind):
        def verdict_kind(spec):
            j = verdict_to_json(vanishing_verdict(spec))
            return j["verdict"], j.get("by")

        assert verdict_kind(family(small)) == kind
        assert verdict_kind(family(huge)) == kind


class TestVerifierRegistry:
    def test_readme_table_lists_the_registry(self):
        readme = Path(__file__).parent.parent / "README.md"
        listed = re.findall(r"^\| `(verify_\w+)\(", readme.read_text(encoding="utf-8"), re.M)
        assert listed == [v.func.__name__ for v in VERIFIERS.values()]

    def test_params_are_the_leading_arguments(self):
        for v in VERIFIERS.values():
            names = list(inspect.signature(v.func).parameters)
            assert names[: len(v.params)] == list(v.params), v.func.__name__
            assert ("mode" in names) == bool(v.modes), v.func.__name__

    def test_cap_below_every_range_is_rejected(self):
        with pytest.raises(InvalidInputError, match="^verification_sweep needs max_n >= 2, got 1$"):
            verification_sweep(max_n=1)


class TestSoundnessChecks:
    def test_no_bare_asserts_in_package(self):
        # checks must survive python -O, which strips assert statements
        src = Path(dimeq.theorems.__file__).parent
        for path in sorted(src.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            asserts = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
            assert not asserts, (path.name, asserts)

    def test_dim_rep_routes_must_agree(self, monkeypatch):
        e = minimal_eisenstein(6)
        monkeypatch.setattr(
            dimeq.representations, "attached_orbit", lambda rep: Partition((6,))
        )
        with pytest.raises(InternalError):
            dim_rep(e)

    def test_two_rectangles_cannot_balance(self, monkeypatch):
        real = dimeq.theorems.check_dim_equation

        def balanced(spec):
            r = real(spec)
            return type(r)(lhs=r.rhs, rhs=r.rhs, holds=True, slack=0)

        monkeypatch.setattr(dimeq.theorems, "check_dim_equation", balanced)
        with pytest.raises(InternalError):
            vanishing_verdict(IntegralSpec(4, (Speh(2, 2), Speh(2, 2))))
