"""Partition arithmetic against independent oracles and frozen values."""

import itertools
import random

import pytest

from dimeq import (
    Dominance,
    EpsilonVector,
    InvalidInputError,
    Partition,
    dominance_floor,
    enumerate_partitions,
    epsilon_preimage,
    partition_from_epsilon,
)


def transpose_oracle(parts):
    """Column counts, written independently of the implementation."""
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= i) for i in range(1, parts[0] + 1))


def orbit_dim_oracle(parts):
    """Twice the pairwise product sum of the transpose parts."""
    t = transpose_oracle(parts)
    return 2 * sum(t[i] * t[j] for i in range(len(t)) for j in range(i + 1, len(t)))


def all_partitions_oracle(n, max_length=None):
    """Independent recursive generator, as a set of tuples."""
    if max_length is None:
        max_length = n
    out = set()

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.add(acc)
            return
        if len(acc) == max_length:
            return
        for first in range(1, min(cap, remaining) + 1):
            rec(remaining - first, first, acc + (first,))

    rec(n, n, ())
    return {tuple(sorted(p, reverse=True)) for p in out}


# number of partitions of 0..10
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


# -- reference implementations ------------------------------------------------
#
# The tuple-based orbit_dim, transpose, compare and + that Partition used
# before it stored runs, kept as the reference for the run arithmetic.


def orbit_dim_reference(parts):
    n = sum(parts)
    d = n * n
    for i, p in enumerate(parts, start=1):
        d -= (2 * i - 1) * p
    return d


def transpose_reference(parts):
    cols = [0] * parts[0]
    for p in parts:
        for i in range(p):
            cols[i] += 1
    return tuple(cols)


def compare_reference(la, lb):
    if la == lb:
        return Dominance.EQUAL
    ge = le = True
    a = b = 0
    for i in range(max(len(la), len(lb))):
        a += la[i] if i < len(la) else 0
        b += lb[i] if i < len(lb) else 0
        if a < b:
            ge = False
        elif a > b:
            le = False
    if ge:
        return Dominance.GREATER
    if le:
        return Dominance.LESS
    return Dominance.INCOMPARABLE


def add_reference(la, lb):
    if len(la) < len(lb):
        la, lb = lb, la
    summed = list(la)
    for i, p in enumerate(lb):
        summed[i] += p
    return tuple(summed)


def enumerate_reference(n, max_length=None):
    """The recursive tuple generator enumerate_partitions used before it
    walked runs: partitions of n with at most max_length parts, in
    reverse-lexicographic order."""
    if max_length is None:
        max_length = n

    def rec(remaining, cap, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0 or cap * slots < remaining:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    return rec(n, n, max_length)


def runs_of(parts):
    return tuple((v, len(list(g))) for v, g in itertools.groupby(parts))


def parts_of(runs):
    return tuple(v for v, m in runs for _ in range(m))


def small_partitions(max_n=12):
    return [lam for n in range(1, max_n + 1) for lam in enumerate_partitions(n)]


def check_against_reference(lam, mu):
    """Every run-based operation on lam (and on the pair) against the
    tuple-based reference."""
    a, b = lam.parts, mu.parts
    assert lam.runs == runs_of(a)
    assert lam.orbit_dim() == orbit_dim_reference(a)
    t = lam.transpose()
    assert t.parts == transpose_reference(a)
    assert t.runs == runs_of(t.parts) and (t.n, t.length) == (lam.n, len(t.parts))
    s = lam + mu
    assert s.parts == add_reference(a, b)
    assert s.runs == runs_of(s.parts) and (s.n, s.length) == (lam.n + mu.n, len(s.parts))
    if lam.n == mu.n:
        assert lam.compare(mu) == compare_reference(a, b)


def random_runs(rng, max_rank=10**6):
    """A run list of rank at most max_rank drawn with rng (a random.Random):
    up to six distinct values up to 10**4, multiplicities up to 10**3."""
    values = rng.sample(range(1, 10**4 + 1), rng.randint(1, 6))
    runs, left = [], max_rank
    for v in sorted(values, reverse=True):
        if v > left:
            break
        m = rng.randint(1, min(left // v, 10**3))
        runs.append((v, m))
        left -= v * m
    return runs


def check_random_pair(ra, rb):
    lam, mu = Partition.from_runs(ra), Partition.from_runs(rb)
    assert lam.parts == parts_of(ra)
    assert Partition(lam.parts) == lam
    check_against_reference(lam, mu)
    assert lam.compare(lam) == Dominance.EQUAL
    # mu padded with ones to lam's n, so that the two compare
    if mu.n < lam.n:
        nu = Partition(parts_of(rb) + (1,) * (lam.n - mu.n))
        assert lam.compare(nu) == compare_reference(lam.parts, nu.parts)
        assert nu.compare(lam) == compare_reference(nu.parts, lam.parts)


class TestConstruction:
    def test_rejects_unsorted(self):
        with pytest.raises(InvalidInputError):
            Partition([3, 1, 2])

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            Partition([3, 0])
        with pytest.raises(InvalidInputError):
            Partition([-1])

    def test_rejects_non_integers(self):
        with pytest.raises(InvalidInputError):
            Partition([2.5, 1])

    def test_refuses_the_empty_partition(self):
        message = "a partition needs at least one part"
        for build in (
            lambda: Partition([]),
            lambda: Partition(()),
            lambda: Partition.from_runs([]),
            lambda: Partition.parse("[]"),
        ):
            with pytest.raises(InvalidInputError) as info:
                build()
            assert str(info.value) == message
        with pytest.raises(TypeError):
            Partition()

    def test_parse_round_trip(self):
        for text in ("[3,2,2,1]", "[5]", "[1,1,1]"):
            assert str(Partition.parse(text)) == text

    def test_parse_rejects_garbage(self):
        for text in ("3,2", "[3,a]", "{}", "", "[2,3]"):
            with pytest.raises(InvalidInputError):
                Partition.parse(text)


class TestTranspose:
    def test_frozen_values(self):
        assert Partition([3, 2, 2, 1]).transpose().parts == (4, 3, 1)
        assert Partition([5]).transpose().parts == (1, 1, 1, 1, 1)
        assert Partition([1] * 4).transpose().parts == (4,)
        assert Partition([4, 2, 1]).transpose().parts == (3, 2, 1, 1)

    def test_matches_oracle_and_is_involution(self):
        for n in range(1, 13):
            for lam in enumerate_partitions(n):
                t = lam.transpose()
                assert t.parts == transpose_oracle(lam.parts)
                assert t.transpose() == lam
                assert t.n == n


class TestDimensions:
    @pytest.mark.parametrize(
        "parts,odim",
        [
            ([5], 20),
            ([2, 1, 1], 6),
            ([3, 3], 24),
            ([2, 2, 2], 18),
            ([1, 1, 1, 1], 0),
            ([2, 2], 8),
            ([4, 1, 1], 24),
            ([2, 1, 1, 1, 1], 10),
        ],
    )
    def test_frozen_values(self, parts, odim):
        lam = Partition(parts)
        assert lam.orbit_dim() == odim
        assert lam.rep_dim() == odim // 2

    def test_regular_orbit_dimension(self):
        for n in range(1, 9):
            assert Partition([n]).orbit_dim() == n * n - n

    def test_duality_oracle(self):
        for n in range(1, 15):
            for lam in enumerate_partitions(n):
                assert lam.orbit_dim() == orbit_dim_oracle(lam.parts)

    def test_even_and_zero_only_at_trivial(self):
        for n in range(1, 13):
            for lam in enumerate_partitions(n):
                d = lam.orbit_dim()
                assert d % 2 == 0
                assert (d == 0) == (lam.parts == (1,) * n)

    def test_weighted_part_sum_form(self):
        # rep_dim == (n^2 + n)/2 - sum_i i*lam_i
        for n in range(1, 13):
            for lam in enumerate_partitions(n):
                weighted = sum(i * p for i, p in enumerate(lam.parts, start=1))
                assert lam.rep_dim() == (n * n + n) // 2 - weighted


class TestDominance:
    def test_frozen_relations(self):
        assert Partition([3, 3]).compare(Partition([4, 1, 1])) == Dominance.INCOMPARABLE
        assert Partition([2, 2]).compare(Partition([2, 1, 1])) == Dominance.GREATER
        assert Partition([2, 1, 1]).compare(Partition([2, 2])) == Dominance.LESS
        assert Partition([3, 1]).compare(Partition([3, 1])) == Dominance.EQUAL
        assert Partition([4]).dominates(Partition([1, 1, 1, 1]))

    def test_cross_n_comparison_rejected(self):
        with pytest.raises(InvalidInputError):
            Partition([3]).compare(Partition([3, 1]))

    def test_poset_axioms(self):
        for n in range(2, 9):
            ps = list(enumerate_partitions(n))
            for a in ps:
                assert a.compare(a) == Dominance.EQUAL
            for a in ps:
                for b in ps:
                    ab = a.compare(b)
                    ba = b.compare(a)
                    if ab == Dominance.EQUAL:
                        assert a == b and ba == Dominance.EQUAL
                    elif ab == Dominance.GREATER:
                        assert ba == Dominance.LESS
                    elif ab == Dominance.LESS:
                        assert ba == Dominance.GREATER
                    else:
                        assert ba == Dominance.INCOMPARABLE

    def test_transitivity_small(self):
        for n in range(2, 8):
            ps = list(enumerate_partitions(n))
            ge = {
                (a.parts, b.parts)
                for a in ps
                for b in ps
                if a.compare(b) in (Dominance.EQUAL, Dominance.GREATER)
            }
            for a in ps:
                for b in ps:
                    if (a.parts, b.parts) not in ge:
                        continue
                    for c in ps:
                        if (b.parts, c.parts) in ge:
                            assert (a.parts, c.parts) in ge

    def test_top_and_bottom(self):
        for n in range(2, 10):
            top = Partition([n])
            bottom = Partition([1] * n)
            for lam in enumerate_partitions(n):
                assert top.dominates(lam)
                assert lam.dominates(bottom)


class TestAddition:
    def test_frozen_values(self):
        assert (Partition([2, 1]) + Partition([1, 1])).parts == (3, 2)
        assert (Partition([2, 2]) + Partition([1, 1])).parts == (3, 3)
        assert (Partition([1] * 5) + Partition([1])).parts == (2, 1, 1, 1, 1)

    def test_non_partition_summand_is_a_type_error(self):
        with pytest.raises(TypeError):
            Partition((1,)) + 1

    def test_commutative(self):
        for n1 in range(1, 6):
            for n2 in range(1, 6):
                for a in enumerate_partitions(n1):
                    for b in enumerate_partitions(n2):
                        assert a + b == b + a

    def test_result_is_valid_partition_of_the_sum(self):
        for n1 in range(1, 7):
            for n2 in range(1, 7):
                for a in enumerate_partitions(n1):
                    for b in enumerate_partitions(n2):
                        s = a + b
                        assert s.n == n1 + n2
                        assert s.length == max(a.length, b.length)

    def test_transpose_of_sum_merges_transposes(self):
        for n1 in range(1, 6):
            for n2 in range(1, 6):
                for a in enumerate_partitions(n1):
                    for b in enumerate_partitions(n2):
                        merged = tuple(
                            sorted(a.transpose().parts + b.transpose().parts, reverse=True)
                        )
                        assert (a + b).transpose().parts == merged


class TestEnumeration:
    def test_reverse_lex_order_n4(self):
        assert [p.parts for p in enumerate_partitions(4)] == [
            (4,),
            (3, 1),
            (2, 2),
            (2, 1, 1),
            (1, 1, 1, 1),
        ]

    def test_counts(self):
        for n in range(1, 11):
            assert sum(1 for _ in enumerate_partitions(n)) == PARTITION_COUNTS[n]

    def test_matches_oracle_with_and_without_length_bound(self):
        for n in range(1, 10):
            for max_length in (None, 1, 2, 3, n):
                got = {p.parts for p in enumerate_partitions(n, max_length)}
                assert got == all_partitions_oracle(n, max_length)

    def test_same_sequence_as_reference(self):
        # the run walk must reproduce the old generator's sequence exactly,
        # under every length bound, including the empty (0) and loose (n+1)
        for n in range(1, 21):
            for max_length in [None, *range(n + 2)]:
                got = [
                    (p.parts, p.runs, p.n, p.length)
                    for p in enumerate_partitions(n, max_length)
                ]
                want = [
                    (t, runs_of(t), n, len(t)) for t in enumerate_reference(n, max_length)
                ]
                assert got == want, (n, max_length)

    def test_order_is_strictly_decreasing_lexicographic(self):
        for n in range(1, 11):
            seq = [p.parts for p in enumerate_partitions(n)]
            assert all(seq[i] > seq[i + 1] for i in range(len(seq) - 1))

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidInputError):
            list(enumerate_partitions(0))


class TestDominanceFloor:
    def test_frozen_values(self):
        assert dominance_floor(2).parts == (2,)
        assert dominance_floor(3).parts == (2, 1)
        assert dominance_floor(6).parts == (2, 2, 2)
        assert dominance_floor(9).parts == (2, 2, 2, 2, 1)

    def test_orbit_dim_exceeds_half_budget(self):
        for n in range(2, 40):
            assert dominance_floor(n).orbit_dim() > n * (n - 1) // 2

    def test_rejects_small_n(self):
        with pytest.raises(InvalidInputError):
            dominance_floor(1)


class TestEpsilon:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            EpsilonVector(6, [1, 0, 1])  # wrong length
        with pytest.raises(InvalidInputError):
            EpsilonVector(6, [1, 0, 2, 0, 1])
        with pytest.raises(InvalidInputError):
            EpsilonVector.parse("")
        with pytest.raises(InvalidInputError):
            EpsilonVector.parse("10x01")

    @pytest.mark.parametrize(
        "n,bits",
        [
            (3, [1.7, 0]),
            (3, [1.0, 0]),
            (3, [True, 0]),
            (3, [1, False]),
            (3, ["x", 0]),
            (3, ["1", 0]),
            (3.0, [1, 0]),
            (True, []),
            ("3", [1, 0]),
        ],
    )
    def test_no_coercion(self, n, bits):
        # a float, bool or string is refused, not rounded or parsed
        with pytest.raises(InvalidInputError):
            EpsilonVector(n, bits)

    def test_equal_and_hashed_by_n_and_bits(self):
        e = EpsilonVector(4, [1, 0, 1])
        assert e == EpsilonVector.parse("101") and e != EpsilonVector.parse("100")
        assert hash(e) == hash((4, (1, 0, 1)))
        assert repr(e) == "EpsilonVector(n=4, bits='101')"
        assert e.bits == (1, 0, 1)

    def test_views(self):
        e = EpsilonVector.parse("10101")
        assert e.n == 6
        assert e.zero_positions == (2, 4)
        assert str(e) == "10101"

    @pytest.mark.parametrize(
        "bits,parts",
        [
            ("10101", (2, 2, 2)),
            ("11111", (6,)),
            ("00000", (1, 1, 1, 1, 1, 1)),
            ("11011", (3, 3)),
            ("01111", (5, 1)),
            ("11110", (5, 1)),
            ("10011", (3, 2, 1)),
        ],
    )
    def test_attached_partition_frozen(self, bits, parts):
        assert partition_from_epsilon(EpsilonVector.parse(bits)).parts == parts

    def test_preimage_refuses_rank_one_under_its_own_name(self):
        # GL_1 has no superdiagonal, so no pattern maps to (1)
        with pytest.raises(InvalidInputError) as raised:
            list(epsilon_preimage(Partition([1])))
        assert str(raised.value) == "epsilon_preimage needs n >= 2, got 1"

    def test_preimage_of_a_long_partition(self):
        # one ordering of (1^1500), whose pattern is all zeros; (2, 1^1200)
        # has 1,201, one per position of the 2
        (only,) = epsilon_preimage(Partition.from_runs([(1, 1500)]))
        assert only == EpsilonVector(1500, (0,) * 1499)
        patterns = list(epsilon_preimage(Partition.from_runs([(2, 1), (1, 1200)])))
        assert len(set(patterns)) == len(patterns) == 1201

    def test_attached_partition_properties(self):
        import itertools

        for n in range(2, 9):
            for bits in itertools.product((0, 1), repeat=n - 1):
                eps = EpsilonVector(n, bits)
                lam = partition_from_epsilon(eps)
                assert lam.n == n
                assert lam.length == len(eps.zero_positions) + 1


class TestRunLengthStorage:
    def test_every_small_partition_matches_reference(self):
        ps = small_partitions()
        for lam in ps:
            check_against_reference(lam, lam)
            assert Partition.from_runs(lam.runs) == lam
            assert Partition.from_runs(lam.runs).parts == lam.parts

    def test_every_pair_matches_reference(self):
        ps = small_partitions()
        for lam in ps:
            for mu in ps:
                assert (lam + mu).parts == add_reference(lam.parts, mu.parts)
                if lam.n == mu.n:
                    assert lam.compare(mu) == compare_reference(lam.parts, mu.parts)

    def test_views_and_equality(self):
        lam = Partition.from_runs([(3, 2), (1, 4)])
        assert lam.runs == ((3, 2), (1, 4))
        assert lam.parts == (3, 3, 1, 1, 1, 1)
        assert (lam.n, lam.length, lam.parts[1], lam.parts[-1]) == (10, 6, 3, 1)
        assert lam == Partition([3, 3, 1, 1, 1, 1])
        assert hash(lam) == hash(Partition([3, 3, 1, 1, 1, 1]))
        assert Partition.from_runs([(2, 3)]).rectangle() == (2, 3)
        assert lam.rectangle() is None

    def test_keeps_the_tuple_it_was_given(self):
        parts = (4, 2, 2)
        assert Partition(parts).parts is parts

    def test_huge_ranks_cost_runs_not_parts(self):
        # any tuple as long as the rank would raise MemoryError here
        n = 10**18
        generic = Partition.from_runs([(n, 1)])
        trivial = Partition.from_runs([(1, n)])
        speh = Partition.from_runs([(2, n // 2)])
        assert generic.orbit_dim() == n * n - n
        assert trivial.orbit_dim() == 0 and trivial.is_trivial_orbit()
        assert speh.rep_dim() == n * (n - n // 2) // 2
        assert trivial.transpose() == generic and generic.transpose() == trivial
        assert speh.transpose().runs == ((n // 2, 2),)
        assert generic.compare(speh) == Dominance.GREATER
        assert trivial.compare(speh) == Dominance.LESS
        minimal = Partition.from_runs([(1, n - 1)]) + Partition.from_runs([(1, 1)])
        assert minimal.runs == ((2, 1), (1, n - 2)) and minimal.rep_dim() == n - 1
        assert (minimal.n, minimal.length) == (n, n - 1)

    def test_no_hidden_reader_builds_the_parts(self):
        # parts, length and runs are the only readers, so no len(), indexing
        # or iteration can build a rank-sized tuple behind the caller's back
        lam = Partition.from_runs([(1, 10**18)])
        for read in (len, iter, lambda p: p[0], lambda p: p.multiplicities()):
            with pytest.raises((TypeError, AttributeError)):
                read(lam)
        assert lam.length == 10**18 and dict(lam.runs) == {1: 10**18}

    @pytest.mark.parametrize(
        "runs",
        [
            [(True, 2)],
            [(2, True)],
            [(2.0, 1)],
            [(0, 3)],
            [(-1, 3)],
            [(2, 0)],
            [(2, -1)],
            [(2, 1), (2, 1)],
            [(1, 1), (2, 1)],
            [(3,)],
            [3],
        ],
    )
    def test_malformed_runs_rejected(self, runs):
        with pytest.raises(InvalidInputError):
            Partition.from_runs(runs)

    def test_first_bad_part_is_reported(self):
        # validation and compression share one pass, but the error still
        # names the first bad part before any order violation
        with pytest.raises(InvalidInputError, match="integers, got 'a'"):
            Partition([1, 2, "a"])
        with pytest.raises(InvalidInputError, match="positive, got 0"):
            Partition([1, 2, 0])
        with pytest.raises(InvalidInputError, match="integers, got True"):
            Partition([2, True])
        with pytest.raises(InvalidInputError, match="weakly decreasing"):
            Partition([2, 2, 3])

    @pytest.mark.parametrize("seed", range(16))
    def test_seeded_random_runs_match_reference(self, seed):
        rng = random.Random(seed)
        check_random_pair(random_runs(rng), random_runs(rng))

    @pytest.mark.parametrize("seed", range(16))
    def test_str_from_runs_matches_parts(self, seed):
        # str joins the runs without building parts; the bytes are those of parts
        p = Partition.from_runs(random_runs(random.Random(seed)))
        text = str(p)
        assert p._parts is None
        assert text == "[" + ",".join(map(str, p.parts)) + "]"
        assert Partition.parse(text) == p

    def test_random_runs_match_reference(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=30, deadline=None)
        @hypothesis.given(st.randoms(use_true_random=False))
        def check(rng):
            check_random_pair(random_runs(rng), random_runs(rng))

        check()
