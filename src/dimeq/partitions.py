"""Integer partitions, dominance order, and nilpotent orbit dimensions.

A partition of n with parts (lam_1 >= lam_2 >= ... >= lam_r > 0) labels a
nilpotent (equivalently unipotent) orbit of GL_n by Jordan type.  Everything
here is exact integer arithmetic; there is deliberately no float anywhere.
"""

from __future__ import annotations

import bisect
import enum
import json
from collections.abc import Iterable, Iterator
from itertools import accumulate

from .errors import InternalError, InvalidInputError, Record, echo, need_int, need_tuple


class Dominance(enum.Enum):
    """Outcome of comparing two partitions of the same n in dominance order."""

    EQUAL = "equal"
    GREATER = "greater"
    LESS = "less"
    INCOMPARABLE = "incomparable"


_EMPTY = "a partition needs at least one part"


class Partition:
    """A weakly decreasing sequence of positive integers, stored as runs.

    The parts are kept as (value, multiplicity) runs with strictly
    decreasing values, so a rectangle (p^q) or the trivial orbit (1^n) is a
    single run whatever its length.  n, length, orbit_dim, transpose,
    rectangle, is_trivial_orbit, compare and + cost O(#runs); the tuple of
    parts is built on demand (and kept when the partition was constructed
    from one).

    A partition has at least one part, since it labels an orbit of GL_n
    with n >= 1: the constructors refuse empty input, so no operation
    checks for it again.  They also fail loudly on unsorted or nonpositive
    input — nothing is ever silently re-sorted.
    """

    __slots__ = ("_runs", "_parts", "_n", "_length")

    def __init__(self, parts: Iterable[int]):
        parts = need_tuple(parts, "Partition", "parts")
        if not parts:
            raise InvalidInputError(_EMPTY)
        # Validation and run compression in one pass.  A part equal to the
        # previous one only extends its run; checks beyond the type are
        # needed only where a new run starts.
        runs = []
        n = 0
        prev = None
        count = 0
        for p in parts:
            if p.__class__ is not int and (not isinstance(p, int) or isinstance(p, bool)):
                _reject_parts(parts)
            if p == prev:
                count += 1
                continue
            if p <= 0 or (prev is not None and p > prev):
                _reject_parts(parts)
            if count:
                runs.append((prev, count))
                n += prev * count
            prev = p
            count = 1
        if count:
            runs.append((prev, count))
            n += prev * count
        self._runs = tuple(runs)
        self._parts = parts
        self._n = n
        self._length = len(parts)

    @classmethod
    def from_runs(cls, runs: Iterable[tuple[int, int]]) -> "Partition":
        """The partition with m parts equal to v for each (v, m) in runs.

        runs must be nonempty, each v and m positive, and the values v
        strictly decreasing.  Costs O(#runs), however many parts that makes.
        """
        checked: list[tuple[int, int]] = []
        n = length = 0
        for run in need_tuple(runs, "Partition.from_runs", "runs"):
            try:
                v, m = run
            except (TypeError, ValueError):
                raise InvalidInputError(
                    f"a run must be a (value, multiplicity) pair, got {echo(run)}"
                ) from None
            need_int(v, 1, "Partition.from_runs", "value")
            need_int(m, 1, "Partition.from_runs", "multiplicity")
            if checked and v >= checked[-1][0]:
                raise InvalidInputError(
                    f"run values must be strictly decreasing, got {echo(checked[-1][0])} then "
                    f"{echo(v)}"
                )
            checked.append((v, m))
            n += v * m
            length += m
        if not checked:
            raise InvalidInputError(_EMPTY)
        return cls._of_runs(tuple(checked), n, length)

    @classmethod
    def _of_runs(cls, runs: tuple[tuple[int, int], ...], n: int, length: int) -> "Partition":
        """Unchecked constructor for runs already known to be well formed."""
        self = object.__new__(cls)
        self._runs = runs
        self._parts = None
        self._n = n
        self._length = length
        return self

    # -- basic views ---------------------------------------------------------

    @property
    def runs(self) -> tuple[tuple[int, int], ...]:
        """(value, multiplicity) pairs, values strictly decreasing."""
        return self._runs

    @property
    def parts(self) -> tuple[int, ...]:
        """The parts as a tuple: O(length), built on first use."""
        if self._parts is None:
            out: list[int] = []
            for v, m in self._runs:
                out += [v] * m
            self._parts = tuple(out)
        return self._parts

    @property
    def n(self) -> int:
        """The integer being partitioned (sum of parts)."""
        return self._n

    @property
    def length(self) -> int:
        """Number of parts."""
        return self._length

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self._runs == other._runs

    def __hash__(self) -> int:
        return hash(self._runs)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return "[" + ",".join([",".join([str(v)] * m) for v, m in self._runs]) + "]"

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse '[3,2,2,1]' (whitespace tolerated).  Inverse of str()."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"cannot parse partition from {echo(text)}: {exc}") from None
        except RecursionError:
            raise InvalidInputError("partition text is nested too deeply") from None
        except ValueError as exc:  # an integer too long to convert
            raise InvalidInputError(f"cannot parse partition: {exc}") from None
        if not isinstance(data, list):
            raise InvalidInputError(f"partition text must be a JSON list, got {echo(text)}")
        return cls(data)

    # -- structure -----------------------------------------------------------

    def transpose(self) -> "Partition":
        """Conjugate partition: column lengths of the Young diagram.

        (transpose)_i = #{j : lam_j >= i}.  An involution.  Run by run: the
        columns in (v_{k+1}, v_k] all have length m_1 + ... + m_k.
        """
        runs = self._runs
        out = []
        rows = 0
        for (v, m), (w, _) in zip(runs, runs[1:] + ((0, 0),)):
            rows += m
            out.append((rows, v - w))
        out.reverse()
        return Partition._of_runs(tuple(out), self._n, runs[0][0])

    def rectangle(self) -> tuple[int, int] | None:
        """(p, q) if this is the rectangle with q parts of size p, else None."""
        if len(self._runs) != 1:
            return None
        return self._runs[0]

    def is_trivial_orbit(self) -> bool:
        """True for (1, 1, ..., 1), the zero orbit (one-dimensional representation)."""
        return self._runs[0][0] == 1

    # -- dimensions -----------------------------------------------------------

    def orbit_dim(self) -> int:
        """Dimension of the nilpotent orbit with this Jordan type.

        n^2 - sum_i (2i - 1) * lam_i, equivalently n^2 minus the sum of the
        squares of the transpose parts.  Always even; zero exactly for the
        trivial orbit (1^n).  A run of m parts v after s earlier parts
        contributes v * ((s + m)^2 - s^2) to the sum.
        """
        n = self._n
        d = n * n
        s = 0
        for v, m in self._runs:
            e = s + m
            d -= v * (e * e - s * s)
            s = e
        if d % 2 or d < 0:
            raise InternalError(f"orbit dimension {d} of {self} is odd or negative")
        return d

    def rep_dim(self) -> int:
        """Half the orbit dimension: the Gelfand–Kirillov size of any
        representation attached to this orbit."""
        return self.orbit_dim() // 2

    # -- order and algebra -----------------------------------------------------

    def compare(self, other: "Partition") -> Dominance:
        """Dominance comparison via prefix sums.  Both must partition the same n.

        Between two consecutive run ends (of either partition) both prefix
        sums grow linearly, so their difference keeps the signs it has at
        those ends: only run ends are checked.  Once either partition runs
        out, its prefix sum is n and stays at or above the other's.
        """
        if self._n != other._n:
            raise InvalidInputError(
                f"cannot compare partitions of different integers: {echo(self._n)} vs "
                f"{echo(other._n)}"
            )
        a, b = self._runs, other._runs
        if a == b:
            return Dominance.EQUAL
        ge = le = True
        i = j = 0
        va, ra = a[0]
        vb, rb = b[0]
        sa = sb = 0
        while True:
            step = ra if ra < rb else rb
            sa += va * step
            sb += vb * step
            if sa < sb:
                ge = False
            elif sa > sb:
                le = False
            ra -= step
            rb -= step
            if ra == 0:
                i += 1
                if i == len(a):
                    break
                va, ra = a[i]
            if rb == 0:
                j += 1
                if j == len(b):
                    break
                vb, rb = b[j]
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
        this is total on Partition.  Each stretch between consecutive run
        ends of either summand is one run of the sum: at every such end one
        summand's value drops, so the summed values strictly decrease.
        """
        if not isinstance(other, Partition):
            return NotImplemented
        a, b = self._runs, other._runs
        length = max(self._length, other._length)
        out = []
        pos = i = j = 0
        va, ra = a[0]
        vb, rb = b[0]
        while True:
            step = ra if ra < rb else rb
            out.append((va + vb, step))
            pos += step
            if pos == length:
                break
            ra -= step
            rb -= step
            if ra == 0:
                i += 1
                va, ra = a[i] if i < len(a) else (0, length - pos)
            if rb == 0:
                j += 1
                vb, rb = b[j] if j < len(b) else (0, length - pos)
        return Partition._of_runs(tuple(out), self._n + other._n, length)


def _reject_parts(parts: tuple) -> None:
    """Raise the error for parts that failed Partition's one-pass check:
    the first non-integer or nonpositive part, else the order violation."""
    for p in parts:
        if not isinstance(p, int) or isinstance(p, bool):
            raise InvalidInputError(f"partition parts must be integers, got {echo(p)}")
        if p <= 0:
            raise InvalidInputError(f"partition parts must be positive, got {echo(p)}")
    raise InvalidInputError(f"partition parts must be weakly decreasing, got {echo(list(parts))}")


def enumerate_partitions(n: int, max_length: int | None = None) -> Iterator[Partition]:
    """Yield all partitions of n in reverse-lexicographic order, (n) first.

    max_length, if given, bounds the number of parts.

    The walk keeps the current partition as (value, multiplicity) runs and
    steps to its successor in place (the Zoghbi–Stojmenović rule): free the
    trailing 1s and one part v >= 2 of the last run, and refill the freed
    sum r as (v-1)^q, r mod (v-1) — the largest completion with parts below
    v, and also the one with the fewest parts.  When even that completion
    would exceed max_length, no partition with the remaining prefix fits,
    so one more part is freed from the prefix and the refill retried.  Each
    step costs O(#runs) plus the parts freed; nothing is re-validated.
    """
    need_int(n, 1, "enumerate_partitions")
    if max_length is None:
        max_length = n
    if need_int(max_length, 0, "enumerate_partitions", "max_length") == 0:
        return
    runs = [(n, 1)]
    length = 1
    while True:
        yield Partition._of_runs(tuple(runs), n, length)
        freed = 0
        if runs[-1][0] == 1:
            freed = runs.pop()[1]
            length -= freed
        while True:
            if not runs:
                return
            v, m = runs[-1]
            if m == 1:
                runs.pop()
            else:
                runs[-1] = (v, m - 1)
            length -= 1
            freed += v
            q, rest = divmod(freed, v - 1)
            if length + q + (rest > 0) <= max_length:
                break
        runs.append((v - 1, q))
        length += q
        if rest:
            runs.append((rest, 1))
            length += 1


def dominance_floor(n: int) -> Partition:
    """The all-twos (even n) or twos-and-one (odd n) partition of n.

    This is the dominance-smallest partition with every part below 3 and at
    most one 1; every rectangle (p^q) with p >= 2 dominates it, and its orbit
    dimension already exceeds half the generic orbit dimension.  It is the
    threshold against which "large" orbits are tested.
    """
    need_int(n, 2, "dominance_floor")
    return Partition.from_runs([(2, n // 2)] + [(1, 1)] * (n % 2))


def balanced_partition(n: int, k: int) -> Partition:
    """The partition of n into k parts that differ by at most 1.

    Every partition of n with at most k parts dominates it, so it also has
    the smallest orbit dimension among them (orbit dimension grows with
    dominance).  The verifiers check it in place of that whole class.
    """
    need_int(n, 1, "balanced_partition")
    need_int(k, 1, "balanced_partition", "k", n)
    q, r = divmod(n, k)
    return Partition.from_runs([(q + 1, r), (q, k - r)] if r else [(q, k)])


class EpsilonVector(Record, fields=("n", "bits")):
    """A 0/1 pattern on the n-1 superdiagonal positions of a degenerate character.

    bits[i] == 1 means position i+1 (1-indexed) carries a nonzero entry.
    n must be an int and each bit the int 0 or 1, not a bool or a float.
    """

    def __init__(self, n: int, bits: Iterable[int]) -> None:
        bits = need_tuple(bits, "EpsilonVector", "bits")
        if len(bits) != need_int(n, 2, "EpsilonVector") - 1:
            raise InvalidInputError(
                f"EpsilonVector needs n - 1 bits, got n={echo(n)} and {len(bits)} bits"
            )
        if any(type(b) is not int or b not in (0, 1) for b in bits):
            raise InvalidInputError(f"epsilon bits must be 0 or 1, got {echo(list(bits))}")
        d = self.__dict__
        d["n"], d["bits"] = n, bits

    @property
    def zero_positions(self) -> tuple[int, ...]:
        """1-indexed positions carrying a zero."""
        return tuple(i + 1 for i, b in enumerate(self.bits) if b == 0)

    @classmethod
    def parse(cls, text: str) -> "EpsilonVector":
        """Parse a bitstring like '10110' (n is one more than its length)."""
        if not text or any(c not in "01" for c in text):
            raise InvalidInputError(f"epsilon bitstring must be nonempty 0/1, got {echo(text)}")
        return cls(len(text) + 1, tuple(int(c) for c in text))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)

    def __repr__(self) -> str:
        return f"EpsilonVector(n={self.n}, bits={str(self)!r})"


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
    run but the last.  Yields lam.length! / prod(multiplicity!) patterns, each
    once, in reverse-lexicographic order of the run lengths.  GL_1 has no
    superdiagonal, so lam must partition some n >= 2.
    """
    n = need_int(lam.n, 2, "epsilon_preimage")
    runs = list(lam.parts)  # the largest ordering; each step goes to the previous one
    while True:
        bits = [1] * (n - 1)
        for end in accumulate(runs[:-1]):
            bits[end - 1] = 0
        yield EpsilonVector(n, bits)
        # the previous ordering: swap runs[i] for the largest smaller entry of
        # its nondecreasing tail, then reverse the tail
        i = len(runs) - 2
        while i >= 0 and runs[i] <= runs[i + 1]:
            i -= 1
        if i < 0:
            return
        j = bisect.bisect_left(runs, runs[i], i + 1) - 1
        runs[i], runs[j] = runs[j], runs[i]
        runs[i + 1 :] = runs[:i:-1]
