"""Representation descriptors and their attached orbits.

A descriptor records just enough about an automorphic representation of
GL_n to do dimension bookkeeping: which unipotent orbit is attached to it,
and its dimension.  Induced (Eisenstein) descriptors carry their parabolic
block sizes and constituent descriptors; the attached orbit is the
componentwise sum of the constituents' orbits.  Every descriptor sets its
orbit and its dimension once, when it is built: Generic, Speh and
TrivialConstituent by closed forms, ExplicitOrbit from its orbit, Eisenstein
by the block route (constituent dimensions plus the pairwise block
products).  dim_rep checks that dimension against the orbit route.
"""

from __future__ import annotations

from collections.abc import Iterable

from .errors import InternalError, InvalidInputError, Record, echo, need_int, need_tuple
from .partitions import Partition


def _leaf_orbit(value: int, count: int) -> Partition:
    """The orbit (value^count) of a leaf whose constructor checked both."""
    return Partition._of_runs(((value, count),), value * count, count)


class RepDescriptor(Record, fields=()):
    """The base of the five descriptor kinds below: each one's __init__ sets
    the attached orbit and the dimension dim, outside its fields."""

    def __init__(self) -> None:
        raise InvalidInputError("RepDescriptor is a base class; build one of its five kinds")


class Generic(RepDescriptor, fields=("n",)):
    """A representation with full Whittaker support on GL_n; orbit (n)."""

    def __init__(self, n: int) -> None:
        d = self.__dict__
        d["n"], d["orbit"] = n, _leaf_orbit(need_int(n, 1, "Generic"), 1)
        d["dim"] = n * (n - 1) // 2

    def to_json(self) -> dict:
        return {"kind": "generic", "n": self.n}


class Speh(RepDescriptor, fields=("p", "q")):
    """The square-integrable residual block on GL_{p*q}; orbit (p^q).

    q = 1 reduces to the generic orbit (p); p = 1 is the one-dimensional
    representation (orbit (1^q)), constructible here but banned at the top
    level of an integral specification.
    """

    def __init__(self, p: int, q: int) -> None:
        need_int(p, 1, "Speh", "p")
        d = self.__dict__
        d["p"], d["q"], d["orbit"] = p, q, _leaf_orbit(p, need_int(q, 1, "Speh", "q"))
        d["dim"] = p * (p - 1) * q * q // 2

    def to_json(self) -> dict:
        return {"kind": "speh", "p": self.p, "q": self.q}


class TrivialConstituent(RepDescriptor, fields=("n",)):
    """The one-dimensional representation of GL_n; orbit (1^n).

    Only meaningful as an Eisenstein constituent; rejected at top level.
    """

    def __init__(self, n: int) -> None:
        d = self.__dict__
        d["n"], d["orbit"] = n, _leaf_orbit(1, need_int(n, 1, "TrivialConstituent"))
        d["dim"] = 0

    def to_json(self) -> dict:
        return {"kind": "trivial", "n": self.n}


class ExplicitOrbit(RepDescriptor, fields=("orbit",)):
    """Escape hatch: a representation known only through its attached orbit."""

    def __init__(self, orbit: Partition) -> None:
        if not isinstance(orbit, Partition):
            raise InvalidInputError("ExplicitOrbit needs a Partition")
        d = self.__dict__
        d["orbit"], d["dim"] = orbit, orbit.rep_dim()

    def to_json(self) -> dict:
        return {"kind": "orbit", "parts": list(self.orbit.parts)}


class Eisenstein(RepDescriptor, fields=("blocks", "constituents")):
    """Representation induced from the parabolic with the given block sizes.

    blocks must be weakly decreasing positive integers, at least two of
    them, and constituents[i] must be a descriptor of rank blocks[i].
    Nesting (an Eisenstein constituent) is allowed.  The attached orbit is
    the componentwise sum of the constituents' orbits (the induced-orbit
    closure).
    """

    def __init__(self, blocks: Iterable[int], constituents: Iterable[RepDescriptor]) -> None:
        blocks = need_tuple(blocks, "Eisenstein", "blocks")
        constituents = need_tuple(constituents, "Eisenstein", "constituents")
        if len(blocks) < 2:
            raise InvalidInputError(f"Eisenstein needs at least 2 blocks, got {echo(list(blocks))}")
        # one walk: a block that is not an int or below 1 is reported before any increase
        decreasing, prev = True, blocks[0]
        for b in blocks:
            if need_int(b, None, "Eisenstein", "block") < 1:
                raise InvalidInputError(f"blocks must be positive, got {echo(list(blocks))}")
            if prev < b:
                decreasing = False
            prev = b
        if not decreasing:
            raise InvalidInputError(f"blocks must be weakly decreasing, got {echo(list(blocks))}")
        if len(constituents) != len(blocks):
            raise InvalidInputError(f"{len(blocks)} blocks but {len(constituents)} constituents")
        # the block route: sum_i dim(c_i) + sum_{i<j} m_i m_j, each block times those before it
        total, dim, before = None, 0, 0
        for b, c in zip(blocks, constituents):
            orbit = attached_orbit(c)
            if orbit.n != b:
                raise InvalidInputError(
                    f"constituent of rank {echo(orbit.n)} attached to block of size {echo(b)}"
                )
            total = orbit if total is None else total + orbit
            dim += c.dim + b * before
            before += b
        d = self.__dict__
        d["blocks"], d["constituents"], d["orbit"], d["dim"] = blocks, constituents, total, dim

    def to_json(self) -> dict:
        return {
            "kind": "eisenstein",
            "blocks": list(self.blocks),
            "constituents": [c.to_json() for c in self.constituents],
        }


def attached_orbit(rep: RepDescriptor) -> Partition:
    """The unipotent orbit attached to the descriptor.

    Every descriptor computes it once, when it is built; for induced data
    it is the componentwise sum of the constituents' orbits.
    """
    if not isinstance(rep, RepDescriptor):
        raise InvalidInputError(f"not a representation descriptor: {echo(rep)}")
    return rep.orbit


def rank(rep: RepDescriptor) -> int:
    """The n of the GL_n the descriptor lives on."""
    return attached_orbit(rep).n


def dim_rep(rep: RepDescriptor) -> int:
    """Gelfand–Kirillov dimension: half the attached orbit's dimension.

    The value is known along two routes, which must agree (InternalError
    otherwise).  The block route is rep.dim, set when the descriptor was
    built: a leaf's closed form, or for Eisenstein descriptors the sum of
    the constituents' dimensions plus the pairwise block products.  The
    orbit route is computed here, from the attached orbit, without
    recursing into constituents.
    """
    d = attached_orbit(rep).rep_dim()
    if rep.dim != d:
        raise InternalError(f"dimension routes disagree: {rep.dim} vs {d} for {echo(rep)}")
    return d


def is_speh_type(rep: RepDescriptor) -> bool:
    """True when the attached orbit is a rectangle (all parts equal).

    Covers Generic (q = 1) and any induced data whose orbit collapses to a
    rectangle, on purpose: only the orbit shape matters downstream.
    """
    return attached_orbit(rep).rectangle() is not None


def top_trivial_block(rep: RepDescriptor) -> int | None:
    """Size of the leading block if rep is Eisenstein with a one-dimensional
    leading constituent (attached orbit (1^m)); None otherwise.

    Triviality is detected through the constituent's attached orbit, so
    Speh(1, m) and ExplicitOrbit((1^m)) count alongside TrivialConstituent.
    """
    if isinstance(rep, Eisenstein) and attached_orbit(rep.constituents[0]).is_trivial_orbit():
        return rep.blocks[0]
    return None


def minimal_eisenstein(n: int) -> Eisenstein:
    """The (n-1, 1) induced representation with both constituents trivial.

    Its orbit is (2, 1^(n-2)), the minimal nonzero orbit, of dimension
    2(n-1); its representation dimension n-1 is the smallest nonzero value
    on GL_n.
    """
    need_int(n, 2, "minimal_eisenstein")
    return Eisenstein(
        blocks=(n - 1, 1),
        constituents=(TrivialConstituent(n - 1), TrivialConstituent(1)),
    )


class IntegralSpec(Record, fields=("n", "representations")):
    """A global integral's data: the common rank n and the representations.

    Every representation must have rank n, and none may be one-dimensional
    (attached orbit (1^n)) — those never enter the integrals this package
    books dimensions for.
    """

    def __init__(self, n: int, representations: Iterable[RepDescriptor] = ()) -> None:
        representations = need_tuple(representations, "IntegralSpec", "representations")
        need_int(n, 1, "IntegralSpec")
        if not representations:
            raise InvalidInputError("IntegralSpec needs at least one representation")
        for i, rep in enumerate(representations):
            orbit = attached_orbit(rep)
            if orbit.n != n:
                raise InvalidInputError(
                    f"representation {i} has rank {echo(orbit.n)}, expected {echo(n)}"
                )
            if orbit.is_trivial_orbit():
                raise InvalidInputError(
                    f"representation {i} is one-dimensional (orbit (1^{echo(n)})); "
                    "one-dimensional representations are excluded at top level"
                )
        d = self.__dict__
        d["n"], d["representations"] = n, representations

    @property
    def l(self) -> int:
        """Number of representations."""
        return len(self.representations)


# -- JSON wire format ----------------------------------------------------------
#
#   {"kind": "generic"}                              (rank from context, or "n")
#   {"kind": "speh", "p": 2, "q": 3}
#   {"kind": "trivial"}                              (rank from context, or "n")
#   {"kind": "orbit", "parts": [3, 1, 1]}
#   {"kind": "eisenstein", "blocks": [5, 1], "constituents": [ ... ]}
#
# and a spec is {"n": 6, "representations": [ ... ]}.


# Eisenstein constituents may nest, but no deeper than this: every nesting
# level costs a few stack frames in the recursive readers and in repr.
MAX_NESTING = 100

# Descriptors read from the wire are shared: equal validated wire values give
# the descriptor first built from them, kept until the table holds _SHARED_MAX.
# Orbit-kind descriptors, and Eisenstein data over one or of rank above
# _SHARED_RANK, are built on every read: their keys would grow with the rank.
_SHARED_MAX = 4096
_SHARED_RANK = 64
_shared: dict[tuple, RepDescriptor] = {}


def rep_from_json(obj: object, expected_rank: int | None = None) -> RepDescriptor:
    """Build a descriptor from wire-format JSON.

    expected_rank supplies the rank for kinds that do not carry one
    ("generic", "trivial" without an explicit "n"); it must be an int, and
    when a rank is both supplied and derivable they must agree.  Eisenstein
    constituents may nest at most MAX_NESTING levels deep.  Each list of
    descriptors (this one object, or an Eisenstein's constituents) is read
    in one loop, and every check runs on every read.  Equal descriptors read
    in one process are one shared immutable object; orbit-kind ones, and
    Eisenstein data over them or of rank above 64, are not shared.
    """
    if expected_rank is not None:
        need_int(expected_rank, None, "rep_from_json", "expected_rank")
    return _reps_from_json([obj], [expected_rank], 0)[0][0]


def _reps_from_json(objs: list, ranks: list, depth: int) -> tuple[list, list]:
    """The descriptors read from objs, each against the expected rank at its
    place in ranks, and their keys in _shared, None where one is not shared."""
    shared = _shared
    reps, keys = [], []
    for obj, expected_rank in zip(objs, ranks):
        if not isinstance(obj, dict):
            raise InvalidInputError(f"representation must be a JSON object, got {echo(obj)}")
        kind = obj.get("kind")
        if kind == "generic" or kind == "trivial":
            n = obj.get("n", expected_rank)
            if n.__class__ is not int:
                if n is None:
                    raise InvalidInputError(f"kind {echo(kind)} needs an explicit \"n\" here")
                need_int(n, None, kind, '"n"')
            key: tuple | None = (kind, n)
            build, args = Generic if kind == "generic" else TrivialConstituent, (n,)
        elif kind == "speh":
            p, q = obj.get("p"), obj.get("q")
            if p.__class__ is not int or q.__class__ is not int:
                need_int(p, None, kind, '"p"')
                need_int(q, None, kind, '"q"')
            key, build, args = (kind, p, q), Speh, (p, q)
        elif kind == "eisenstein":
            blocks = obj.get("blocks")
            constituents = obj.get("constituents")
            if not isinstance(blocks, list) or not isinstance(constituents, list):
                raise InvalidInputError(
                    f"eisenstein needs \"blocks\" and \"constituents\" lists, got {echo(obj)}"
                )
            for b in blocks:
                if b.__class__ is not int:
                    need_int(b, None, kind, '"blocks"')
            if len(blocks) != len(constituents):
                raise InvalidInputError(f"{len(blocks)} blocks but {len(constituents)} constituents")
            if depth == MAX_NESTING:
                raise InvalidInputError(
                    f"eisenstein constituents nest more than {MAX_NESTING} levels deep"
                )
            inner, inner_keys = _reps_from_json(constituents, blocks, depth + 1)
            blocks = tuple(blocks)
            key, build, args = None, Eisenstein, (blocks, tuple(inner))
            if None not in inner_keys and sum(blocks) <= _SHARED_RANK:
                key = (blocks, tuple(inner_keys))
        elif kind == "orbit":
            parts = obj.get("parts")
            if not isinstance(parts, list):
                raise InvalidInputError(f"orbit needs a \"parts\" list, got {echo(obj)}")
            key, build, args = None, ExplicitOrbit, (Partition(parts),)
        else:
            raise InvalidInputError(f"unknown representation kind {echo(kind)}")
        rep = shared.get(key)  # None is never a key
        if rep is None:
            rep = build(*args)  # stored only once built: a raising constructor stores nothing
            if key is not None:
                if len(shared) >= _SHARED_MAX:
                    shared.clear()
                shared[key] = rep
        if expected_rank is not None and rep.orbit.n != expected_rank:
            raise InvalidInputError(
                f"representation has rank {echo(rep.orbit.n)}, expected {echo(expected_rank)}: "
                f"{echo(obj)}"
            )
        reps.append(rep)
        keys.append(key)
    return reps, keys


def rep_to_json(rep: RepDescriptor) -> dict:
    """Wire-format JSON for a descriptor.  Inverse of rep_from_json."""
    return rep.to_json()


def spec_from_json(obj: object) -> IntegralSpec:
    """Build an IntegralSpec from {"n": ..., "representations": [...]}.  Its
    representations are read in one pass, each against rank n, with the
    checks and the sharing of rep_from_json."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"integral spec must be a JSON object, got {echo(obj)}")
    n = need_int(obj.get("n"), None, "integral spec", '"n"')
    reps = obj.get("representations")
    if not isinstance(reps, list):
        raise InvalidInputError("integral spec needs a \"representations\" list")
    return IntegralSpec(n, tuple(_reps_from_json(reps, [n] * len(reps), 0)[0]))


def spec_to_json(spec: IntegralSpec) -> dict:
    return {
        "n": spec.n,
        "representations": [rep_to_json(r) for r in spec.representations],
    }
