"""Representation descriptors, attached orbits, and the two dimension routes."""

import json

import pytest

from dimeq import (
    Eisenstein,
    ExplicitOrbit,
    Generic,
    IntegralSpec,
    InvalidInputError,
    Partition,
    Speh,
    TrivialConstituent,
    attached_orbit,
    dim_rep,
    enumerate_partitions,
    is_speh_type,
    minimal_eisenstein,
    rank,
    rep_from_json,
    rep_to_json,
    spec_from_json,
    spec_to_json,
    top_trivial_block,
)
from dimeq.representations import MAX_NESTING

T = TrivialConstituent


class TestDescriptors:
    def test_attached_orbits_frozen(self):
        assert attached_orbit(Generic(6)).parts == (6,)
        assert attached_orbit(Speh(2, 3)).parts == (2, 2, 2)
        assert attached_orbit(Speh(3, 2)).parts == (3, 3)
        assert attached_orbit(T(4)).parts == (1, 1, 1, 1)
        assert attached_orbit(ExplicitOrbit(Partition([3, 1]))).parts == (3, 1)

    def test_ranks(self):
        assert rank(Generic(5)) == 5
        assert rank(Speh(3, 4)) == 12
        assert rank(Eisenstein((2, 1), (Generic(2), T(1)))) == 3

    def test_orbit_is_computed_once_and_stays_out_of_eq_and_repr(self):
        e = Eisenstein((4, 2), (Speh(2, 2), Generic(2)))
        assert attached_orbit(e) is attached_orbit(e) is e.orbit
        assert e.orbit.runs == ((4, 1), (2, 1))
        assert repr(Speh(2, 3)) == "Speh(p=2, q=3)"
        assert Generic(3) == Generic(3) and hash(Generic(3)) == hash(Generic(3))
        assert repr(ExplicitOrbit(Partition([3, 1]))) == "ExplicitOrbit(orbit=Partition([3, 1]))"

    def test_non_descriptors_rejected(self):
        for bad in ("generic", Partition([2]), None):
            with pytest.raises(InvalidInputError):
                rank(bad)
            with pytest.raises(InvalidInputError):
                attached_orbit(bad)
        with pytest.raises(InvalidInputError):
            Eisenstein((2, 1), (Generic(2), "trivial"))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Generic(0)
        with pytest.raises(InvalidInputError):
            Speh(0, 3)
        with pytest.raises(InvalidInputError):
            Eisenstein((3,), (Generic(3),))  # one block is not induced
        with pytest.raises(InvalidInputError):
            Eisenstein((1, 2), (T(1), T(2)))  # blocks must decrease
        with pytest.raises(InvalidInputError):
            Eisenstein((3, 2), (Generic(3), Generic(3)))  # rank mismatch
        with pytest.raises(InvalidInputError):
            Eisenstein((3, 2), (Generic(3),))  # count mismatch


class TestDimensions:
    def test_speh_closed_form(self):
        # rectangle (p^q) has rep dim n(n-q)/2 with n = pq
        for p in range(1, 21):
            for q in range(1, 21):
                n = p * q
                if n > 40:
                    continue
                assert dim_rep(Speh(p, q)) == n * (n - q) // 2

    def test_generic_and_trivial(self):
        for n in range(1, 12):
            assert dim_rep(Generic(n)) == n * (n - 1) // 2
            assert dim_rep(T(n)) == 0

    def test_eisenstein_both_routes_frozen(self):
        e = Eisenstein((5, 1), (T(5), T(1)))
        assert attached_orbit(e).parts == (2, 1, 1, 1, 1)
        assert dim_rep(e) == 5
        e = Eisenstein((3, 2), (T(3), Generic(2)))
        assert attached_orbit(e).parts == (3, 1, 1)
        assert dim_rep(e) == 7

    def test_nested_tower(self):
        inner = Eisenstein((2, 2), (T(2), T(2)))
        outer = Eisenstein((4, 2), (inner, T(2)))
        assert attached_orbit(outer).parts == (3, 3)
        assert dim_rep(outer) == 12

    def test_induced_orbit_dimension_identity(self):
        # rep_dim(lam + mu) == rep_dim(lam) + rep_dim(mu) + n1*n2,
        # the fact that makes the two Eisenstein routes agree.
        for n1 in range(1, 7):
            for n2 in range(1, 7):
                for a in enumerate_partitions(n1):
                    for b in enumerate_partitions(n2):
                        assert (a + b).rep_dim() == a.rep_dim() + b.rep_dim() + n1 * n2

    def test_dual_route_on_flat_towers(self):
        # every flat tower over rectangular constituents exercises the
        # internal cross-check inside dim_rep
        for n in range(2, 11):
            for blocks in enumerate_partitions(n):
                if blocks.length < 2:
                    continue
                cons = []
                for m in blocks.parts:
                    divs = [d for d in range(1, m + 1) if m % d == 0]
                    cons.append(Speh(divs[-1], m // divs[-1]))
                e = Eisenstein(blocks.parts, tuple(cons))
                assert dim_rep(e) == attached_orbit(e).rep_dim()

    def test_dual_route_on_many_blocks(self):
        # k blocks of 1 induce the generic orbit (k); the block route's
        # k(k-1)/2 pairwise products are summed in closed form, in O(k)
        k = 20_000
        e = Eisenstein((1,) * k, (T(1),) * k)
        assert attached_orbit(e) == Generic(k).orbit
        assert dim_rep(e) == k * (k - 1) // 2


class TestShapePredicates:
    def test_is_speh_type(self):
        assert is_speh_type(Generic(4))
        assert is_speh_type(Speh(2, 3))
        assert not is_speh_type(minimal_eisenstein(5))
        # induced data whose orbit collapses to a rectangle counts
        e = Eisenstein((3, 3), (Generic(3), Generic(3)))
        assert attached_orbit(e).parts == (6,)
        assert is_speh_type(e)

    def test_top_trivial_block(self):
        assert top_trivial_block(minimal_eisenstein(7)) == 6
        assert top_trivial_block(Eisenstein((3, 2), (Generic(3), T(2)))) is None
        assert top_trivial_block(Speh(2, 2)) is None
        assert top_trivial_block(Generic(5)) is None
        # triviality is read off the orbit, not the descriptor kind
        e = Eisenstein((4, 2), (Speh(1, 4), Generic(2)))
        assert top_trivial_block(e) == 4
        e = Eisenstein((4, 2), (ExplicitOrbit(Partition([1, 1, 1, 1])), Generic(2)))
        assert top_trivial_block(e) == 4

    def test_rect_head_towers_have_short_orbits(self):
        # induced data with a nontrivial rectangular head never has orbit
        # length beyond n/2: head length <= m1/2, later lengths <= n - m1
        for n in range(2, 13):
            for blocks in enumerate_partitions(n):
                if blocks.length < 2:
                    continue
                m1 = blocks.parts[0]
                heads = [
                    Speh(p, m1 // p)
                    for p in range(2, m1 + 1)
                    if m1 % p == 0
                ]
                for head in heads:
                    cons = [head] + [T(m) for m in blocks.parts[1:]]
                    e = Eisenstein(blocks.parts, tuple(cons))
                    assert attached_orbit(e).length <= n // 2, e


class TestMinimalEisenstein:
    def test_orbit_and_dimension(self):
        for n in range(2, 51):
            e = minimal_eisenstein(n)
            assert attached_orbit(e).parts == (2,) + (1,) * (n - 2)
            assert dim_rep(e) == n - 1

    def test_rejects_n1(self):
        with pytest.raises(InvalidInputError):
            minimal_eisenstein(1)


class TestIntegralSpec:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            IntegralSpec(5, (Generic(5), Generic(4)))

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            IntegralSpec(5, ())

    def test_one_dimensional_reps_rejected_in_every_spelling(self):
        for bad in (T(4), Speh(1, 4), ExplicitOrbit(Partition([1, 1, 1, 1]))):
            with pytest.raises(InvalidInputError):
                IntegralSpec(4, (bad, Generic(4)))

    def test_l_property(self):
        spec = IntegralSpec(4, (Generic(4), Speh(2, 2)))
        assert spec.l == 2


class TestJson:
    def test_documented_wire_shape(self):
        obj = {
            "n": 6,
            "representations": [
                {
                    "kind": "eisenstein",
                    "blocks": [5, 1],
                    "constituents": [{"kind": "trivial"}, {"kind": "trivial"}],
                },
                {"kind": "generic"},
            ],
        }
        spec = spec_from_json(obj)
        assert spec.n == 6 and spec.l == 2
        assert dim_rep(spec.representations[0]) == 5
        assert dim_rep(spec.representations[1]) == 15

    def test_round_trip(self):
        spec = IntegralSpec(
            6,
            (
                Eisenstein((4, 2), (Speh(2, 2), Generic(2))),
                Speh(2, 3),
            ),
        )
        assert spec_from_json(spec_to_json(spec)) == spec

    def test_wire_output_frozen(self):
        spec = IntegralSpec(
            6,
            (
                Eisenstein((4, 2), (Eisenstein((2, 2), (T(2), Speh(1, 2))), Generic(2))),
                ExplicitOrbit(Partition([3, 2, 1])),
                Speh(2, 3),
            ),
        )
        assert json.dumps(spec_to_json(spec)) == (
            '{"n": 6, "representations": [{"kind": "eisenstein", "blocks": [4, 2], '
            '"constituents": [{"kind": "eisenstein", "blocks": [2, 2], "constituents": '
            '[{"kind": "trivial", "n": 2}, {"kind": "speh", "p": 1, "q": 2}]}, '
            '{"kind": "generic", "n": 2}]}, {"kind": "orbit", "parts": [3, 2, 1]}, '
            '{"kind": "speh", "p": 2, "q": 3}]}'
        )

    def test_nesting_is_capped(self):
        def nested(levels):
            rep = {"kind": "trivial"}
            for r in range(1, levels + 1):
                rep = {"kind": "eisenstein", "blocks": [r, 1],
                       "constituents": [rep, {"kind": "trivial"}]}
            return rep

        assert rank(rep_from_json(nested(MAX_NESTING))) == MAX_NESTING + 1
        with pytest.raises(InvalidInputError, match="nest more than"):
            rep_from_json(nested(MAX_NESTING + 1))

    def test_rep_round_trip(self):
        reps = [
            Generic(3),
            Speh(2, 2),
            T(5),
            ExplicitOrbit(Partition([3, 1])),
            Eisenstein((2, 2), (T(2), Generic(2))),
        ]
        for rep in reps:
            assert rep_from_json(rep_to_json(rep)) == rep

    def test_rank_cross_check(self):
        with pytest.raises(InvalidInputError):
            rep_from_json({"kind": "speh", "p": 2, "q": 2}, expected_rank=6)
        with pytest.raises(InvalidInputError):
            rep_from_json({"kind": "generic"})  # no rank available

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            rep_from_json({"kind": "mystery", "n": 3})
