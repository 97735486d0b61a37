"""Representation descriptors, attached orbits, and the two dimension routes."""

import copy
import hashlib
import itertools
import json
import pickle
import types

import pytest

from dimeq import (
    Eisenstein,
    EpsilonVector,
    EquationFails,
    EquationReport,
    ExplicitOrbit,
    Generic,
    IntegralSpec,
    InternalError,
    InvalidInputError,
    Lemma2Case,
    NotApplicable,
    NotConcluded,
    Partition,
    Speh,
    TrivialConstituent,
    Vanishes,
    VerificationReport,
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
    vanishing_verdict,
    verdict_to_json,
)
from dimeq import representations
from dimeq.representations import MAX_NESTING, RepDescriptor

T = TrivialConstituent


def nested(levels):
    """Wire JSON of a trivial constituent induced up levels times: level r
    has blocks [r, 1], so the orbit is the generic (levels + 1)."""
    rep = {"kind": "trivial"}
    for r in range(1, levels + 1):
        rep = {"kind": "eisenstein", "blocks": [r, 1], "constituents": [rep, {"kind": "trivial"}]}
    return rep


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

    def test_dim_is_set_once_and_stays_out_of_eq_and_hash(self):
        # TestRecordContract pins every descriptor's repr, which dim stays out of
        e = Eisenstein((4, 2), (Speh(2, 2), Generic(2)))
        assert e.dim == 4 + 1 + 4 * 2 == dim_rep(e)
        forged = Generic(3)
        forged.__dict__["dim"] = 0
        assert forged == Generic(3) and hash(forged) == hash(Generic(3))

    def test_eisenstein_from_lists_is_the_tuple_form(self):
        listed = Eisenstein([5, 1], [Generic(5), T(1)])
        tupled = Eisenstein((5, 1), (Generic(5), T(1)))
        assert listed == tupled and hash(listed) == hash(tupled)

    def test_non_descriptors_rejected(self):
        # an object that only has an attached orbit has no dim: not a descriptor
        orbit_only = types.SimpleNamespace(orbit=Partition([1]))
        for bad in ("generic", Partition([2]), None, orbit_only):
            with pytest.raises(InvalidInputError):
                rank(bad)
            with pytest.raises(InvalidInputError):
                attached_orbit(bad)
            with pytest.raises(InvalidInputError):
                dim_rep(bad)
        with pytest.raises(InvalidInputError):
            Eisenstein((2, 1), (Generic(2), "trivial"))
        with pytest.raises(InvalidInputError, match="^not a representation descriptor: "):
            Eisenstein((2, 1), (Generic(2), orbit_only))

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

    def test_leaf_closed_forms_match_the_orbit_route(self):
        # Generic (n), Speh (p^q) and TrivialConstituent (1^n) set dim by a
        # closed form; the orbit route halves their orbit's dimension
        for n in range(1, 61):
            leaves = [Generic(n), T(n)] + [Speh(p, n // p) for p in range(1, n + 1) if n % p == 0]
            for rep in leaves:
                assert rep.dim == attached_orbit(rep).rep_dim() == dim_rep(rep), rep

    def test_a_forged_dim_is_caught(self):
        def forged(rep):
            rep.__dict__["dim"] += 1
            return rep

        with pytest.raises(InternalError) as raised:
            dim_rep(forged(minimal_eisenstein(4)))
        assert str(raised.value) == (
            "dimension routes disagree: 4 vs 3 for Eisenstein(blocks=(3, 1), "
            "constituents...tituent(n=3), TrivialConstituent(n=1)))"
        )
        for rep in (Generic(4), Speh(2, 2), T(4), ExplicitOrbit(Partition([3, 1]))):
            with pytest.raises(InternalError, match="^dimension routes disagree: "):
                dim_rep(forged(rep))
        # a forged constituent carries into the dim of every descriptor built on it
        outer = Eisenstein((6, 2), (Eisenstein((4, 2), (forged(Speh(2, 2)), T(2))), T(2)))
        with pytest.raises(InternalError, match="^dimension routes disagree: 25 vs 24 "):
            dim_rep(outer)

    def test_dim_rep_reads_one_orbit_at_the_nesting_cap(self, monkeypatch):
        rep = rep_from_json(nested(MAX_NESTING))
        read = []
        orbit_dim = Partition.orbit_dim
        monkeypatch.setattr(Partition, "orbit_dim", lambda p: read.append(p) or orbit_dim(p))
        assert dim_rep(rep) == (MAX_NESTING + 1) * MAX_NESTING // 2
        assert read == [rep.orbit]

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


class TestSharedDescriptors:
    """Equal descriptors read from the wire are one object, unless their
    size grows with the rank."""

    SPEC = {
        "n": 6,
        "representations": [
            {
                "kind": "eisenstein",
                "blocks": [4, 2],
                "constituents": [{"kind": "speh", "p": 2, "q": 2}, {"kind": "generic"}],
            },
            {"kind": "generic"},
            {"kind": "speh", "p": 3, "q": 2},
        ],
    }

    def test_a_spec_read_twice_gives_the_same_objects(self):
        first = spec_from_json(self.SPEC)
        second = spec_from_json(json.loads(json.dumps(self.SPEC)))
        assert first == second and first is not second
        assert all(a is b for a, b in zip(first.representations, second.representations))
        eis = first.representations[0]
        assert eis.constituents[0] is rep_from_json({"kind": "speh", "p": 2, "q": 2})
        assert eis.constituents[1] is rep_from_json({"kind": "generic", "n": 2})

    def test_orbit_kinds_are_built_on_every_read(self, monkeypatch):
        monkeypatch.setattr(representations, "_shared", {})
        n = 10**5
        minimal = {"kind": "orbit", "parts": [2] + [1] * (n - 2)}
        column = {"kind": "orbit", "parts": [1] * (n - 1)}
        trivial = {"kind": "trivial"}
        induced = {"kind": "eisenstein", "blocks": [n - 1, 1], "constituents": [column, trivial]}
        spec = {"n": n, "representations": [minimal, induced, {"kind": "generic"}]}
        first, second = spec_from_json(spec), spec_from_json(spec)
        assert first == second
        assert first.representations[0] is not second.representations[0]
        assert first.representations[1] is not second.representations[1]
        orbit = {"kind": "orbit", "parts": [1, 1]}
        small = {"kind": "eisenstein", "blocks": [2, 1], "constituents": [orbit, trivial]}
        assert rep_from_json(small) is not rep_from_json(small)
        assert sorted(representations._shared) == [("generic", n), ("trivial", 1)]

    def test_eisenstein_data_of_large_rank_is_built_on_every_read(self, monkeypatch):
        monkeypatch.setattr(representations, "_shared", {})
        top = representations._SHARED_RANK
        for n, shared in ((top, True), (top + 1, False)):
            trivials = [{"kind": "trivial"}] * 2
            wire = {"kind": "eisenstein", "blocks": [n - 1, 1], "constituents": trivials}
            assert (rep_from_json(wire) is rep_from_json(wire)) == shared
        # the Eisenstein of rank _SHARED_RANK and the trivials of ranks 1, top - 1 and top
        assert len(representations._shared) == 4

    def test_the_table_never_exceeds_its_bound(self, monkeypatch):
        monkeypatch.setattr(representations, "_shared", {})
        bound, sizes = representations._SHARED_MAX, set()
        for n in range(1, 2 * bound + 2):
            wire = {"kind": "generic", "n": n}
            assert rep_from_json(wire) is rep_from_json(wire)
            sizes.add(len(representations._shared))
        assert max(sizes) == bound and min(sizes) == 1


def _raised(build) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


class TestErrorMessages:
    """The exception type and exact message of each malformed descriptor,
    built directly and read from the wire."""

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: Generic(0), "Generic needs n >= 1, got 0"),
            (lambda: Generic(True), "Generic needs an integer n, got True"),
            (lambda: Generic(2.0), "Generic needs an integer n, got 2.0"),
            (lambda: T(0), "TrivialConstituent needs n >= 1, got 0"),
            (lambda: T(True), "TrivialConstituent needs an integer n, got True"),
            (lambda: T(2.0), "TrivialConstituent needs an integer n, got 2.0"),
            (lambda: Speh(0, 3), "Speh needs p >= 1, got 0"),
            (lambda: Speh(True, 3), "Speh needs an integer p, got True"),
            (lambda: Speh(2.0, 3), "Speh needs an integer p, got 2.0"),
            (lambda: Speh(2, 0), "Speh needs q >= 1, got 0"),
            (lambda: Speh(2, True), "Speh needs an integer q, got True"),
            (lambda: Speh(2, 2.0), "Speh needs an integer q, got 2.0"),
            # both fields are type-checked before either range
            (lambda: Speh(True, 0), "Speh needs an integer p, got True"),
            (lambda: Eisenstein((3,), (Generic(3),)), "Eisenstein needs at least 2 blocks, got [3]"),
            (lambda: Eisenstein((3, 0), (Generic(3), T(1))), "blocks must be positive, got [3, 0]"),
            # positivity is checked over all blocks before the order
            (
                lambda: Eisenstein((2, 1, 3, 0), (T(2), T(1), T(3), T(1))),
                "blocks must be positive, got [2, 1, 3, 0]",
            ),
            (lambda: Eisenstein((1, 2), (T(1), T(2))), "blocks must be weakly decreasing, got [1, 2]"),
            (lambda: Eisenstein((3, 2), (Generic(3),)), "2 blocks but 1 constituents"),
            (
                lambda: Eisenstein((3, 2), (Generic(3), Generic(3))),
                "constituent of rank 3 attached to block of size 2",
            ),
            (lambda: ExplicitOrbit([4]), "ExplicitOrbit needs a Partition"),
            # the base class has no orbit and no dimension of its own
            (RepDescriptor, "RepDescriptor is a base class; build one of its five kinds"),
            (
                lambda: rep_from_json({"kind": "orbit", "parts": []}),
                "a partition needs at least one part",
            ),
            # wire values of the wrong JSON shape
            (lambda: rep_from_json(5), "representation must be a JSON object, got 5"),
            (
                lambda: rep_from_json({"kind": "orbit", "parts": 5}),
                "orbit needs a \"parts\" list, got {'kind': 'orbit', 'parts': 5}",
            ),
            (
                lambda: rep_from_json({"kind": "eisenstein", "blocks": 5, "constituents": []}),
                'eisenstein needs "blocks" and "constituents" lists, '
                "got {'blocks': 5, 'constituents': [], 'kind': 'eisenstein'}",
            ),
            (lambda: spec_from_json([]), "integral spec must be a JSON object, got []"),
            (lambda: spec_from_json({"n": 4}), 'integral spec needs a "representations" list'),
            (
                lambda: rep_from_json({"kind": "generic"}),
                "kind 'generic' needs an explicit \"n\" here",
            ),
            # an expected rank is an int even where the object carries its own
            (
                lambda: rep_from_json({"kind": "speh", "p": 2, "q": 1}, 2.0),
                "rep_from_json needs an integer expected_rank, got 2.0",
            ),
            (
                lambda: rep_from_json({"kind": "generic", "n": 1}, True),
                "rep_from_json needs an integer expected_rank, got True",
            ),
            (
                lambda: rep_from_json({"kind": "generic"}, 2.0),
                "rep_from_json needs an integer expected_rank, got 2.0",
            ),
        ],
    )
    def test_library_path(self, build, message):
        assert _raised(build) == (InvalidInputError, message)

    def test_library_type_errors_keep_their_order(self):
        # a block that is not an int fails before any order check
        assert _raised(lambda: Eisenstein((1, 2, None), (T(1), T(2), T(1)))) == (
            InvalidInputError,
            "Eisenstein needs an integer block, got None",
        )

    @pytest.mark.parametrize(
        "rep,message",
        [
            ({"kind": "generic", "n": 0}, "Generic needs n >= 1, got 0"),
            ({"kind": "generic", "n": True}, 'generic needs an integer "n", got True'),
            ({"kind": "generic", "n": 2.0}, 'generic needs an integer "n", got 2.0'),
            ({"kind": "trivial", "n": 0}, "TrivialConstituent needs n >= 1, got 0"),
            ({"kind": "trivial", "n": True}, 'trivial needs an integer "n", got True'),
            ({"kind": "trivial", "n": 2.0}, 'trivial needs an integer "n", got 2.0'),
            ({"kind": "speh", "p": 0, "q": 3}, "Speh needs p >= 1, got 0"),
            ({"kind": "speh", "p": True, "q": 3}, 'speh needs an integer "p", got True'),
            ({"kind": "speh", "p": 2.0, "q": 3}, 'speh needs an integer "p", got 2.0'),
            ({"kind": "speh", "p": 2, "q": 0}, "Speh needs q >= 1, got 0"),
            ({"kind": "speh", "p": 2, "q": True}, 'speh needs an integer "q", got True'),
            ({"kind": "speh", "p": 2, "q": 2.0}, 'speh needs an integer "q", got 2.0'),
            (
                {"kind": "eisenstein", "blocks": [6], "constituents": [{"kind": "generic"}]},
                "Eisenstein needs at least 2 blocks, got [6]",
            ),
            # a block below 1 is caught by the constituent read against it
            (
                {"kind": "eisenstein", "blocks": [6, 0],
                 "constituents": [{"kind": "generic"}, {"kind": "generic"}]},
                "Generic needs n >= 1, got 0",
            ),
            (
                {"kind": "eisenstein", "blocks": [2, 4],
                 "constituents": [{"kind": "generic"}, {"kind": "generic"}]},
                "blocks must be weakly decreasing, got [2, 4]",
            ),
            (
                {"kind": "eisenstein", "blocks": [4, 2], "constituents": [{"kind": "generic"}]},
                "2 blocks but 1 constituents",
            ),
            (
                {"kind": "eisenstein", "blocks": [4, 2],
                 "constituents": [{"kind": "speh", "p": 2, "q": 1}, {"kind": "generic"}]},
                "representation has rank 2, expected 4: {'kind': 'speh', 'p': 2, 'q': 1}",
            ),
            (
                {"kind": "eisenstein", "blocks": [3.0, 3],
                 "constituents": [{"kind": "generic"}, {"kind": "generic"}]},
                'eisenstein needs an integer "blocks", got 3.0',
            ),
            (
                {"kind": "generic", "n": 5},
                "representation has rank 5, expected 6: {'kind': 'generic', 'n': 5}",
            ),
            (
                {"kind": "trivial", "n": 7},
                "representation has rank 7, expected 6: {'kind': 'trivial', 'n': 7}",
            ),
            (
                {"kind": "speh", "p": 2, "q": 2},
                "representation has rank 4, expected 6: {'kind': 'speh', 'p': 2, 'q': 2}",
            ),
            # a kind that is not a string is unknown, not a TypeError
            ({"kind": [1]}, "unknown representation kind [1]"),
            ({"kind": {}}, "unknown representation kind {}"),
            # of two bad constituents, the first one's message wins
            (
                {"kind": "eisenstein", "blocks": [4, 2],
                 "constituents": [{"kind": "generic", "n": True}, {"kind": "mystery"}]},
                'generic needs an integer "n", got True',
            ),
            # every block is checked before any constituent is read
            (
                {"kind": "eisenstein", "blocks": [4, 2.0],
                 "constituents": [{"kind": "mystery"}, {"kind": "generic"}]},
                'eisenstein needs an integer "blocks", got 2.0',
            ),
            # a rank mismatch deep inside nested Eisensteins gives the inner message
            (
                {"kind": "eisenstein", "blocks": [5, 1], "constituents": [
                    {"kind": "eisenstein", "blocks": [3, 2], "constituents": [
                        {"kind": "eisenstein", "blocks": [2, 1], "constituents": [
                            {"kind": "generic"}, {"kind": "speh", "p": 2, "q": 1}]},
                        {"kind": "generic"}]},
                    {"kind": "trivial"}]},
                "representation has rank 2, expected 1: {'kind': 'speh', 'p': 2, 'q': 1}",
            ),
        ],
    )
    def test_json_path(self, rep, message):
        spec = {"n": 6, "representations": [rep, {"kind": "generic"}]}
        assert _raised(lambda: spec_from_json(spec)) == (InvalidInputError, message)
        # a representation read alone against the same rank fails the same way
        assert _raised(lambda: rep_from_json(rep, 6)) == (InvalidInputError, message)

    def test_json_rank_from_context_must_be_an_integer(self):
        # the expected rank is checked first, under its own name, not as "n"
        assert _raised(lambda: rep_from_json({"kind": "generic"}, expected_rank=2.0)) == (
            InvalidInputError,
            "rep_from_json needs an integer expected_rank, got 2.0",
        )


def _leaves(b):
    """Leaf descriptors of rank b, each with its orbit's parts written out."""
    out = [(T(b), [1] * b), (Generic(b), [b])]
    return out + [(Speh(p, b // p), [p] * (b // p)) for p in range(1, b + 1) if b % p == 0]


def _census_grammar(n):
    """The census's descriptors of rank n, each with the parts lists its
    orbit is built from: leaves, every orbit, and Eisenstein data with two
    or three blocks over leaf constituents."""
    out = [(rep, [parts]) for rep, parts in _leaves(n)]
    out += [(ExplicitOrbit(lam), [list(lam.parts)]) for lam in enumerate_partitions(n)]
    for blocks in enumerate_partitions(n):
        if blocks.length in (2, 3):
            for choice in itertools.product(*(_leaves(b) for b in blocks.parts)):
                rep = Eisenstein(blocks.parts, tuple(r for r, _ in choice))
                out.append((rep, [parts for _, parts in choice]))
    return out


def _without_ranks(obj):
    """The wire form with "n" dropped from generic and trivial kinds, so
    their ranks come from context."""
    if isinstance(obj, list):
        return [_without_ranks(x) for x in obj]
    if isinstance(obj, dict):
        drop = obj.get("kind") in ("generic", "trivial")
        return {k: _without_ranks(v) for k, v in obj.items() if not (drop and k == "n")}
    return obj


# sha256 of the census verdicts, one json.dumps line per spec, in the order
# test_census_verdicts_are_pinned reads them
CENSUS_VERDICTS_SHA256 = "29c7bcf09a0dc65adf6af583f3a8fd735db242162d98cd31625d65e774a934e1"


def _shape(p):
    return p.runs, p.n, p.length


class TestCensusGrammar:
    """Orbits built without re-checking agree with the checked constructor."""

    def test_leaf_orbits_match_their_parts(self):
        for b in range(1, 9):
            for rep, parts in _leaves(b):
                assert _shape(rep.orbit) == _shape(Partition(parts)), rep

    def test_eisenstein_orbit_is_the_componentwise_sum(self):
        for n in range(2, 9):
            for rep, lists in _census_grammar(n):
                summed = [sum(col) for col in itertools.zip_longest(*lists, fillvalue=0)]
                assert _shape(rep.orbit) == _shape(Partition(summed)), rep

    def test_specs_round_trip(self):
        for n in range(2, 9):
            for rep, _ in _census_grammar(n):
                if rep.orbit.is_trivial_orbit():
                    continue
                spec = IntegralSpec(n, (rep, Generic(n)))
                for wire in (spec_to_json(spec), _without_ranks(spec_to_json(spec))):
                    back = spec_from_json(wire)
                    assert back == spec
                    assert [_shape(r.orbit) for r in back.representations] == [
                        _shape(r.orbit) for r in spec.representations
                    ]

    def test_census_verdicts_are_pinned(self):
        # every ordered pair of nontrivial census descriptors of rank <= 5
        # (22,163 specs), each read twice: the second read finds its
        # descriptors already built, and must reach the same verdict
        digest, specs = hashlib.sha256(), 0
        for n in range(1, 6):
            reps = [r for r, _ in _census_grammar(n) if not r.orbit.is_trivial_orbit()]
            for a, b in itertools.product(reps, repeat=2):
                wire = spec_to_json(IntegralSpec(n, (a, b)))
                first, second = (
                    json.dumps(verdict_to_json(vanishing_verdict(spec_from_json(wire))))
                    for _ in range(2)
                )
                assert first == second, wire
                digest.update(first.encode() + b"\n")
                specs += 1
        assert specs == 22163
        assert digest.hexdigest() == CENSUS_VERDICTS_SHA256


_REPORT = EquationReport(lhs=12, rhs=6, holds=False, slack=6)

# Every record type of the package: its keyword arguments, the fields its
# equality, hash and repr read (in order), and its pinned repr.
RECORDS = [
    (EpsilonVector, dict(n=4, bits=(1, 0, 1)), (4, (1, 0, 1)), "EpsilonVector(n=4, bits='101')"),
    (Generic, dict(n=3), (3,), "Generic(n=3)"),
    (Speh, dict(p=2, q=3), (2, 3), "Speh(p=2, q=3)"),
    (TrivialConstituent, dict(n=2), (2,), "TrivialConstituent(n=2)"),
    (
        ExplicitOrbit,
        dict(orbit=Partition([3, 1])),
        (Partition([3, 1]),),
        "ExplicitOrbit(orbit=Partition([3, 1]))",
    ),
    (
        Eisenstein,
        dict(blocks=(2, 1), constituents=(Generic(2), T(1))),
        ((2, 1), (Generic(2), T(1))),
        "Eisenstein(blocks=(2, 1), constituents=(Generic(n=2), TrivialConstituent(n=1)))",
    ),
    (
        IntegralSpec,
        dict(n=4, representations=(Generic(4), Speh(2, 2))),
        (4, (Generic(4), Speh(2, 2))),
        "IntegralSpec(n=4, representations=(Generic(n=4), Speh(p=2, q=2)))",
    ),
    (
        EquationReport,
        dict(lhs=12, rhs=6, holds=False, slack=6),
        (12, 6, False, 6),
        "EquationReport(lhs=12, rhs=6, holds=False, slack=6)",
    ),
    (
        VerificationReport,
        dict(statement="lemma1", parameters={"n": 4}, space_size=2, passed=True,
             counterexamples=()),
        ("lemma1", {"n": 4}, 2, True, ()),
        "VerificationReport(statement='lemma1', parameters={'n': 4}, space_size=2, "
        "passed=True, counterexamples=())",
    ),
    (
        Lemma2Case,
        dict(a=3, p1=2, p2=1),
        (3, 2, 1, Partition([3, 3, 2])),
        "Lemma2Case(a=3, p1=2, p2=1, partition=Partition([3, 3, 2]))",
    ),
    (
        Vanishes,
        dict(by="prop1", witness={"k": 1}),
        ("prop1", {"k": 1}),
        "Vanishes(by='prop1', witness={'k': 1})",
    ),
    (
        EquationFails,
        dict(by="lemma1", equation_report=_REPORT),
        ("lemma1", _REPORT),
        "EquationFails(by='lemma1', equation_report="
        "EquationReport(lhs=12, rhs=6, holds=False, slack=6))",
    ),
    (NotApplicable, dict(reason="x"), ("x",), "NotApplicable(reason='x')"),
    (NotConcluded, dict(reason="x"), ("x",), "NotConcluded(reason='x')"),
]


def test_equal_fields_in_another_class_are_not_equal():
    assert NotApplicable("x") != NotConcluded("x")
    assert NotApplicable(reason="x") == NotApplicable("x")


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


@pytest.mark.parametrize(
    "cls, kwargs, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
class TestRecordContract:
    """Every record is equal to a record of its own class with equal fields,
    hashed and shown by those fields, and immutable."""

    def test_keyword_and_positional_construction_agree(self, cls, kwargs, fields, text):
        assert cls(**kwargs) == cls(*kwargs.values())

    def test_equality_is_by_class_and_fields(self, cls, kwargs, fields, text):
        r = cls(**kwargs)
        assert r == cls(**copy.deepcopy(kwargs)) and not r != cls(**kwargs)
        assert r != fields and fields != r
        others = [c(**k) for c, k, _, _ in RECORDS if c is not cls]
        assert all(r != o for o in others)

    def test_hash_is_the_hash_of_the_fields(self, cls, kwargs, fields, text):
        r = cls(**kwargs)
        if _hashable(fields):
            assert hash(r) == hash(fields)
        else:
            with pytest.raises(TypeError):
                hash(r)

    def test_repr(self, cls, kwargs, fields, text):
        assert repr(cls(**kwargs)) == text

    def test_assignment_and_deletion_raise(self, cls, kwargs, fields, text):
        r = cls(**kwargs)
        for name in (*kwargs, "orbit", "dim", "new_name"):
            with pytest.raises(AttributeError):
                setattr(r, name, 1)
            with pytest.raises(AttributeError):
                delattr(r, name)
        assert r == cls(**kwargs)

    def test_copies_round_trip(self, cls, kwargs, fields, text):
        r = cls(**kwargs)
        for back in (copy.deepcopy(r), copy.copy(r), pickle.loads(pickle.dumps(r))):
            assert back == r and back.__class__ is cls and repr(back) == text
