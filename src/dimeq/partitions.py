"""Integer partitions, dominance order, and nilpotent orbit dimensions.

A partition of n with parts (lam_1 >= lam_2 >= ... >= lam_r > 0) labels a
nilpotent (equivalently unipotent) orbit of GL_n by Jordan type.  Everything
here is exact integer arithmetic; there is deliberately no float anywhere.
"""

from __future__ import annotations

import enum
import json
from collections.abc import Iterable, Iterator

from .errors import InternalError, InvalidInputError


class Dominance(enum.Enum):
    """Outcome of comparing two partitions of the same n in dominance order."""

    EQUAL = "equal"
    GREATER = "greater"
    LESS = "less"
    INCOMPARABLE = "incomparable"


class Partition:
    """A weakly decreasing tuple of positive integers.

    The empty partition is permitted only so that componentwise addition has
    an identity; operations with orbit-theoretic meaning (dimensions,
    dominance, transpose) require at least one part.  Constructors fail
    loudly on unsorted or nonpositive input — nothing is ever silently
    re-sorted.
    """

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(parts)
        for p in parts:
            if not isinstance(p, int) or isinstance(p, bool):
                raise InvalidInputError(f"partition parts must be integers, got {p!r}")
            if p <= 0:
                raise InvalidInputError(f"partition parts must be positive, got {p}")
        for i in range(len(parts) - 1):
            if parts[i] < parts[i + 1]:
                raise InvalidInputError(
                    f"partition parts must be weakly decreasing, got {list(parts)}"
                )
        self._parts = parts

    # -- basic views ---------------------------------------------------------

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def n(self) -> int:
        """The integer being partitioned (sum of parts)."""
        return sum(self._parts)

    @property
    def length(self) -> int:
        """Number of parts."""
        return len(self._parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, i: int) -> int:
        return self._parts[i]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self._parts) + "]"

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse '[3,2,2,1]' (whitespace tolerated).  Inverse of str()."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"cannot parse partition from {text!r}: {exc}") from None
        if not isinstance(data, list):
            raise InvalidInputError(f"partition text must be a JSON list, got {text!r}")
        return cls(data)

    def _require_nonempty(self, op: str) -> None:
        if not self._parts:
            raise InvalidInputError(f"{op} requires a nonempty partition")

    # -- structure -----------------------------------------------------------

    def transpose(self) -> "Partition":
        """Conjugate partition: column lengths of the Young diagram.

        (transpose)_i = #{j : lam_j >= i}.  An involution.
        """
        self._require_nonempty("transpose")
        cols = [0] * self._parts[0]
        for p in self._parts:
            for i in range(p):
                cols[i] += 1
        return Partition(cols)

    def multiplicities(self) -> dict[int, int]:
        """Map part value -> multiplicity."""
        out: dict[int, int] = {}
        for p in self._parts:
            out[p] = out.get(p, 0) + 1
        return out

    def rectangle(self) -> tuple[int, int] | None:
        """(p, q) if this is the rectangle with q parts of size p, else None."""
        if not self._parts:
            return None
        p = self._parts[0]
        if any(x != p for x in self._parts):
            return None
        return (p, len(self._parts))

    def is_trivial_orbit(self) -> bool:
        """True for (1, 1, ..., 1), the zero orbit (one-dimensional representation)."""
        return bool(self._parts) and self._parts[0] == 1

    # -- dimensions -----------------------------------------------------------

    def orbit_dim(self) -> int:
        """Dimension of the nilpotent orbit with this Jordan type.

        n^2 - sum_i (2i - 1) * lam_i, equivalently n^2 minus the sum of the
        squares of the transpose parts.  Always even; zero exactly for the
        trivial orbit (1^n).
        """
        self._require_nonempty("orbit_dim")
        n = self.n
        d = n * n
        for i, p in enumerate(self._parts, start=1):
            d -= (2 * i - 1) * p
        if d % 2 or d < 0:
            raise InternalError(f"orbit dimension {d} of {self} is odd or negative")
        return d

    def rep_dim(self) -> int:
        """Half the orbit dimension: the Gelfand–Kirillov size of any
        representation attached to this orbit."""
        return self.orbit_dim() // 2

    # -- order and algebra -----------------------------------------------------

    def compare(self, other: "Partition") -> Dominance:
        """Dominance comparison via prefix sums.  Both must partition the same n."""
        self._require_nonempty("compare")
        other._require_nonempty("compare")
        if self.n != other.n:
            raise InvalidInputError(
                f"cannot compare partitions of different integers: {self.n} vs {other.n}"
            )
        if self._parts == other._parts:
            return Dominance.EQUAL
        ge = le = True
        a = b = 0
        la, lb = self._parts, other._parts
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

    def dominates(self, other: "Partition") -> bool:
        """True if self >= other in dominance order."""
        return self.compare(other) in (Dominance.EQUAL, Dominance.GREATER)

    def __add__(self, other: "Partition") -> "Partition":
        """Componentwise sum (the shorter partition padded with zeros).

        For weakly decreasing inputs the result is weakly decreasing, so
        this is total on Partition.  The empty partition is the identity.
        """
        if not isinstance(other, Partition):
            return NotImplemented
        la, lb = self._parts, other._parts
        if len(la) < len(lb):
            la, lb = lb, la
        summed = list(la)
        for i, p in enumerate(lb):
            summed[i] += p
        return Partition(summed)


def enumerate_partitions(n: int, max_length: int | None = None) -> Iterator[Partition]:
    """Yield all partitions of n in reverse-lexicographic order, (n) first.

    max_length, if given, bounds the number of parts.
    """
    if n < 1:
        raise InvalidInputError(f"can only enumerate partitions of n >= 1, got {n}")
    if max_length is None:
        max_length = n
    if max_length < 0:
        raise InvalidInputError(f"max_length must be >= 0, got {max_length}")

    def rec(remaining: int, cap: int, slots: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        if slots == 0 or cap * slots < remaining:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    for parts in rec(n, n, max_length):
        yield Partition(parts)


def dominance_floor(n: int) -> Partition:
    """The all-twos (even n) or twos-and-one (odd n) partition of n.

    This is the dominance-smallest partition with every part below 3 and at
    most one 1; every rectangle (p^q) with p >= 2 dominates it, and its orbit
    dimension already exceeds half the generic orbit dimension.  It is the
    threshold against which "large" orbits are tested.
    """
    if n < 2:
        raise InvalidInputError(f"dominance_floor needs n >= 2, got {n}")
    if n % 2 == 0:
        return Partition((2,) * (n // 2))
    return Partition((2,) * ((n - 1) // 2) + (1,))


class EpsilonVector:
    """A 0/1 pattern on the n-1 superdiagonal positions of a degenerate character.

    bits[i] == 1 means position i+1 (1-indexed) carries a nonzero entry.
    """

    __slots__ = ("_n", "_bits")

    def __init__(self, n: int, bits: Iterable[int]):
        bits = tuple(int(b) for b in bits)
        if n < 2:
            raise InvalidInputError(f"epsilon vectors need n >= 2, got {n}")
        if len(bits) != n - 1:
            raise InvalidInputError(
                f"epsilon vector for n={n} needs {n - 1} bits, got {len(bits)}"
            )
        if any(b not in (0, 1) for b in bits):
            raise InvalidInputError(f"epsilon bits must be 0 or 1, got {list(bits)}")
        self._n = n
        self._bits = bits

    @property
    def n(self) -> int:
        return self._n

    @property
    def bits(self) -> tuple[int, ...]:
        return self._bits

    @property
    def ones_count(self) -> int:
        return sum(self._bits)

    @property
    def zero_positions(self) -> tuple[int, ...]:
        """1-indexed positions carrying a zero."""
        return tuple(i + 1 for i, b in enumerate(self._bits) if b == 0)

    @classmethod
    def parse(cls, text: str) -> "EpsilonVector":
        """Parse a bitstring like '10110' (n is one more than its length)."""
        if not text or any(c not in "01" for c in text):
            raise InvalidInputError(f"epsilon bitstring must be nonempty 0/1, got {text!r}")
        return cls(len(text) + 1, tuple(int(c) for c in text))

    def __str__(self) -> str:
        return "".join(str(b) for b in self._bits)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EpsilonVector)
            and self._n == other._n
            and self._bits == other._bits
        )

    def __hash__(self) -> int:
        return hash((self._n, self._bits))

    def __repr__(self) -> str:
        return f"EpsilonVector(n={self._n}, bits={str(self)!r})"


def partition_from_epsilon(eps: EpsilonVector) -> Partition:
    """Partition attached to an epsilon pattern.

    The zeros at positions j_1 < ... < j_p cut (1..n) into consecutive runs
    of lengths j_1, j_2 - j_1, ..., n - j_p; the attached partition is the
    decreasing rearrangement of those run lengths.  All ones gives (n), all
    zeros gives (1^n).
    """
    cuts = eps.zero_positions + (eps.n,)
    runs = [cuts[0]] + [cuts[i] - cuts[i - 1] for i in range(1, len(cuts))]
    return Partition(sorted(runs, reverse=True))


def epsilon_preimage(lam: Partition) -> Iterator[EpsilonVector]:
    """Every epsilon pattern whose attached partition is lam.

    The inverse of partition_from_epsilon: each distinct ordering of lam's
    parts, read as consecutive run lengths, puts a zero at the end of every
    run but the last.  Yields len(lam)! / prod(multiplicity!) patterns, each
    once, in reverse-lexicographic order of the run lengths.
    """
    lam._require_nonempty("epsilon_preimage")
    n = lam.n
    counts = lam.multiplicities()
    values = list(counts)  # insertion order: decreasing part values

    def orders(left: int) -> Iterator[tuple[int, ...]]:
        if left == 0:
            yield ()
            return
        for v in values:
            if counts[v]:
                counts[v] -= 1
                for rest in orders(left - 1):
                    yield (v,) + rest
                counts[v] += 1

    for runs in orders(lam.length):
        bits = [1] * (n - 1)
        end = 0
        for r in runs[:-1]:
            end += r
            bits[end - 1] = 0
        yield EpsilonVector(n, bits)
