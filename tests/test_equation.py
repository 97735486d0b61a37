"""Dimension equation checks and the orbit-level solution search."""

import itertools

import pytest

from dimeq import equation
from dimeq import (
    Eisenstein,
    ExplicitOrbit,
    Generic,
    IntegralSpec,
    InternalError,
    InvalidInputError,
    Partition,
    ResourceLimitError,
    Speh,
    TrivialConstituent,
    check_dim_equation,
    check_dim_equation_full,
    dominance_floor,
    enumerate_orbit_solutions,
    enumerate_partitions,
    minimal_eisenstein,
    reduce_to_whittaker_form,
)

T = TrivialConstituent


class TestCheck:
    def test_holds_frozen(self):
        # 4 + 6 == 10 == 5*4/2
        spec = IntegralSpec(
            5, (Eisenstein((4, 1), (T(4), T(1))), Eisenstein((3, 2), (T(3), T(2))))
        )
        r = check_dim_equation(spec)
        assert r.holds and r.lhs == 10 and r.rhs == 10 and r.slack == 0

    def test_fails_frozen(self):
        spec = IntegralSpec(4, (Speh(2, 2), Speh(2, 2)))
        r = check_dim_equation(spec)
        assert not r.holds and r.lhs == 8 and r.rhs == 6 and r.slack == 2

    def test_single_generic_saturates(self):
        for n in range(2, 10):
            r = check_dim_equation(IntegralSpec(n, (Generic(n),)))
            assert r.holds

    def test_to_json_shape(self):
        spec = IntegralSpec(4, (Speh(2, 2), Speh(2, 2)))
        assert check_dim_equation(spec).to_json() == {
            "lhs": 8,
            "rhs": 6,
            "holds": False,
            "slack": 2,
        }


class TestCheckFull:
    def test_frozen(self):
        # 3 + 3 + 2 == 8 == 3^2 - 1
        spec = IntegralSpec(3, (Generic(3), Generic(3), minimal_eisenstein(3)))
        r = check_dim_equation_full(spec)
        assert r.holds and r.lhs == 8 and r.rhs == 8
        # 1 + 1 + 1 == 3 == 2^2 - 1
        spec = IntegralSpec(2, (Generic(2), Generic(2), Generic(2)))
        assert check_dim_equation_full(spec).holds

    def test_requires_three_reps(self):
        spec = IntegralSpec(3, (Generic(3), Generic(3)))
        with pytest.raises(InvalidInputError):
            check_dim_equation_full(spec)


class TestReduce:
    @pytest.mark.parametrize("n,triple", [(2, (1, 1, 1)), (6, (15, 5, 15)), (10, (45, 9, 45))])
    def test_frozen(self, n, triple):
        assert reduce_to_whittaker_form(n) == triple

    def test_identity_range(self):
        for n in range(2, 101):
            generic, minimal, target = reduce_to_whittaker_form(n)
            assert generic == target == n * (n - 1) // 2
            assert minimal == n - 1

    def test_rejects_small_n(self):
        with pytest.raises(InvalidInputError):
            reduce_to_whittaker_form(1)


def partitions_oracle(n):
    """Partitions of n as tuples, grown from their smallest part upward:
    shares no code with enumerate_partitions, nor its order."""
    out = []

    def rec(left, smallest, acc):
        if left == 0:
            out.append(tuple(reversed(acc)))
            return
        for part in range(smallest, left + 1):
            rec(left - part, part, acc + [part])

    rec(n, 1, [])
    return out


def rep_dim_oracle(parts):
    """(n^2 - sum of squared column lengths) / 2, on the tuple."""
    n = sum(parts)
    cols = [sum(1 for p in parts if p > i) for i in range(parts[0])]
    return (n * n - sum(c * c for c in cols)) // 2


def dominates_oracle(a, b):
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa < sb:
            return False
    return True


def solutions_oracle(n, l, exclude_trivial=False, max_one_dominant=False):
    """Plain combinations_with_replacement search over tuples, independent
    of the impl and of Partition."""
    alphabet = partitions_oracle(n)
    if exclude_trivial:
        alphabet = [p for p in alphabet if p[0] > 1]
    dims = [rep_dim_oracle(p) for p in alphabet]
    floor = (2,) * (n // 2) + (1,) * (n % 2)
    dominant = [dominates_oracle(p, floor) for p in alphabet]
    target = n * (n - 1) // 2
    out = set()
    for combo in itertools.combinations_with_replacement(range(len(alphabet)), l):
        if sum(dims[i] for i in combo) != target:
            continue
        if max_one_dominant and sum(dominant[i] for i in combo) > 1:
            continue
        out.add(tuple(sorted((alphabet[i] for i in combo), reverse=True)))
    return sorted(out, reverse=True)


class TestSolve:
    def test_frozen_sets(self):
        got = enumerate_orbit_solutions(3, 2)
        assert [[p.parts for p in s] for s in got] == [[(3,), (1, 1, 1)]]
        got = enumerate_orbit_solutions(4, 2)
        assert [[p.parts for p in s] for s in got] == [
            [(4,), (1, 1, 1, 1)],
            [(2, 1, 1), (2, 1, 1)],
        ]
        got = enumerate_orbit_solutions(4, 1)
        assert [[p.parts for p in s] for s in got] == [[(4,)]]

    def test_exclude_trivial(self):
        got = enumerate_orbit_solutions(4, 2, exclude_trivial=True)
        assert [[p.parts for p in s] for s in got] == [[(2, 1, 1), (2, 1, 1)]]

    def test_matches_oracle(self):
        # the oracle with max_one_dominant filters nothing: no solution holds
        # two orbits above the all-twos floor, so the search has no such filter
        for n, l, ex in itertools.product(range(2, 11), range(1, 5), (False, True)):
            got = [
                tuple(p.parts for p in s)
                for s in enumerate_orbit_solutions(n, l, exclude_trivial=ex)
            ]
            for dom in (False, True):
                assert got == solutions_oracle(n, l, ex, dom), (n, l, ex, dom)

    def test_long_solutions(self):
        # n = 4 balances as (4) or (2, 1, 1)^2, each padded with (1^4)
        l = 20_000
        got = enumerate_orbit_solutions(4, l, max_l=l)
        assert [[p.parts for p in s] for s in got] == [
            [(4,)] + [(1, 1, 1, 1)] * (l - 1),
            [(2, 1, 1)] * 2 + [(1, 1, 1, 1)] * (l - 2),
        ]

    def test_canonical_order(self):
        sols = enumerate_orbit_solutions(6, 2)
        keys = [tuple(p.parts for p in s) for s in sols]
        assert keys == sorted(keys, reverse=True)
        for s in sols:
            parts = [p.parts for p in s]
            assert parts == sorted(parts, reverse=True)

    def test_deterministic(self):
        a = enumerate_orbit_solutions(6, 3)
        b = enumerate_orbit_solutions(6, 3)
        assert a == b

    def test_max_one_dominant_is_checkably_redundant(self):
        # two orbits above the floor each cost more than half the budget, so
        # the flag filters nothing: no solution holds two of them
        for n in range(2, 21):
            floor = dominance_floor(n)
            for l in range(1, 5):
                for sol in enumerate_orbit_solutions(n, l, max_n=20):
                    assert sum(p.dominates(floor) for p in sol) <= 1, (n, sol)

    def test_no_solution_holds_two_nontrivial_rectangles(self):
        # consistency with the rectangular-pair obstruction, well past the
        # default bound
        for n in range(2, 31):
            for sol in enumerate_orbit_solutions(n, 2, max_n=30):
                rects = [
                    p for p in sol if p.rectangle() is not None and p.parts[0] >= 2
                ]
                assert len(rects) <= 1, (n, sol)

    def test_resource_limits(self):
        with pytest.raises(ResourceLimitError):
            enumerate_orbit_solutions(13, 2)
        with pytest.raises(ResourceLimitError):
            enumerate_orbit_solutions(6, 5)
        # explicit bounds open the gate
        assert enumerate_orbit_solutions(13, 2, max_n=13)

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            enumerate_orbit_solutions(1, 2)
        with pytest.raises(InvalidInputError):
            enumerate_orbit_solutions(4, 0)


class TestCostWalk:
    @pytest.mark.parametrize("exclude_trivial", [False, True])
    def test_full_cost_set_builds_every_orbit(self, exclude_trivial):
        # rep_dim = C(n,2) - sum_j C(lam'_j, 2): the knapsack over column sizes
        # and the walk it prunes, against enumerate_partitions and rep_dim.
        # Each orbit is built unchecked from its column stack, so its n and
        # length are compared too, not just its runs (all that == reads).
        def view(p):
            return (p.runs, p.n, p.length, p.parts, str(p))

        for n in range(2, 31):
            reach = equation._cost_reach(n, exclude_trivial)
            got: dict[int, list[tuple]] = {}
            for p, d in equation._orbits_of_costs(n, reach, reach[n][n]):
                got.setdefault(d, []).append(view(p))
            want: dict[int, list[tuple]] = {}
            for p in enumerate_partitions(n):
                if not (exclude_trivial and p.is_trivial_orbit()):
                    want.setdefault(p.rep_dim(), []).append(view(p))
            assert got == want, (n, exclude_trivial)

    def test_solutions_share_one_object_per_orbit(self):
        # the public map names each orbit by one object of the search's table,
        # so equal orbits across solutions are the same object
        orbits = [p for sol in enumerate_orbit_solutions(20, 3, max_n=20) for p in sol]
        assert len({id(p) for p in orbits}) == len(set(orbits)) > 1

    def test_solve_table_is_used_checked_and_shared(self, monkeypatch):
        # _solve is the search; enumerate_orbit_solutions only maps its indices
        # onto the objects of the table that _solve returned to it
        tables = []
        solve = equation._solve
        monkeypatch.setattr(equation, "_solve", lambda *a, **k: tables.append(solve(*a, **k))
                            or tables[-1])
        for n, l, exclude in itertools.product(range(2, 15), range(1, 5), (False, True)):
            public = enumerate_orbit_solutions(n, l, exclude, max_n=14)
            orbits, solutions = tables.pop()
            assert {i for sol in solutions for i in sol} == set(range(len(orbits))), (n, l)
            assert all(d == p.rep_dim() for p, d in orbits), (n, l)
            assert len(public) == len(solutions), (n, l)
            for got, idxs in zip(public, solutions):
                assert len(got) == len(idxs)
                assert all(p is orbits[i][0] for p, i in zip(got, idxs)), (n, l)

    def test_wrong_cost_is_an_internal_error(self, monkeypatch):
        rep_dim = Partition.rep_dim
        monkeypatch.setattr(Partition, "rep_dim", lambda p: rep_dim(p) + (p.n == 4))
        assert enumerate_orbit_solutions(3, 2)
        with pytest.raises(InternalError, match="cost"):
            enumerate_orbit_solutions(4, 2)
