"""The dimension equation, its full variant, and orbit-level solution search.

The central bookkeeping identity for an l-tuple of representations of GL_n:
the representation dimensions must sum to n(n-1)/2 for the associated global
integral to have a chance of being nonvanishing; the "full" variant uses
n^2 - 1, the dimension budget before reduction to the mirabolic.
"""

from __future__ import annotations

import bisect
from itertools import chain, combinations_with_replacement, groupby, product

from .errors import InternalError, InvalidInputError, Record, ResourceLimitError, echo, need_int
from .partitions import Partition
from .representations import IntegralSpec, dim_rep, minimal_eisenstein

DEFAULT_MAX_N = 12
DEFAULT_MAX_L = 4


class EquationReport(Record, fields=("lhs", "rhs", "holds", "slack")):
    """Outcome of a dimension-equation check.  slack = lhs - rhs."""

    def __init__(self, lhs: int, rhs: int, holds: bool, slack: int) -> None:
        d = self.__dict__
        d["lhs"], d["rhs"], d["holds"], d["slack"] = lhs, rhs, holds, slack

    def to_json(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "holds": self.holds, "slack": self.slack}


def _report(spec: IntegralSpec, rhs: int) -> EquationReport:
    """The spec's rep dims summed against the budget rhs."""
    lhs = sum(dim_rep(r) for r in spec.representations)
    return EquationReport(lhs=lhs, rhs=rhs, holds=lhs == rhs, slack=lhs - rhs)


def check_dim_equation(spec: IntegralSpec) -> EquationReport:
    """sum of rep dims == n(n-1)/2, the reduced (mirabolic) budget."""
    need_int(spec.n, 2, "dimension equation")
    return _report(spec, spec.n * (spec.n - 1) // 2)


def check_dim_equation_full(spec: IntegralSpec) -> EquationReport:
    """sum of rep dims == n^2 - 1, the unreduced budget; needs l >= 3."""
    if spec.l < 3:
        raise InvalidInputError(
            f"full dimension equation needs at least 3 representations, got {spec.l}"
        )
    return _report(spec, spec.n * spec.n - 1)


def reduce_to_whittaker_form(n: int) -> tuple[int, int, int]:
    """(generic dim, minimal nonzero dim, equation target) for GL_n.

    The generic orbit (n) has representation dimension n(n-1)/2, which is
    exactly the equation target: a generic representation alone saturates
    the budget.  The minimal Eisenstein representation contributes n-1, the
    smallest nonzero dimension.  Both identities are checked.
    """
    need_int(n, 2, "reduce_to_whittaker_form")
    generic = Partition((n,)).rep_dim()
    minimal = dim_rep(minimal_eisenstein(n))
    target = n * (n - 1) // 2
    if generic != target:
        raise InternalError(f"n={n}: generic dim {generic} != target {target}")
    if minimal != n - 1:
        raise InternalError(f"n={n}: minimal Eisenstein dim {minimal} != n-1")
    return (generic, minimal, target)


def _cost_reach(n: int, exclude_trivial: bool) -> list[list[int]]:
    """reach[c][r]: the bitset of the costs sum_j C(c_j, 2) over partitions of
    r into parts c_j <= c, by O(n^2) big-int shifts.  exclude_trivial clears
    bit C(n,2) of reach[n][n]: one column of n boxes, (1^n), alone costs that."""
    reach = [[1] + [0] * n]
    for c in range(1, n + 1):
        row = reach[-1][:]
        for r in range(c, n + 1):
            row[r] |= row[r - c] << c * (c - 1) // 2
        reach.append(row)
    if exclude_trivial:
        reach[n][n] &= ~(1 << n * (n - 1) // 2)
    return reach


def _orbits_of_costs(n: int, reach: list[list[int]], wanted: int) -> list[tuple[Partition, int]]:
    """(orbit, rep_dim) for each orbit of GL_n whose cost is a bit of wanted, sorted
    by runs descending, which is reverse-lexicographic order of the parts.  The
    walk adds columns in descending order and enters a branch only if its reach
    can still land on a wanted cost; each orbit's rep_dim is checked against it.

    At a leaf the orbit's rows are read off the column stack: row r meets every
    column of length >= r, so scanning the distinct column lengths from the
    shortest (the left implicit 1-columns) up gives its runs, longest row first."""
    top = n * (n - 1) // 2
    out: list[tuple[Partition, int]] = []
    cols: list[int] = []

    def walk(most: int, left: int, spent: int) -> None:
        if most == 1 or not left:  # any columns left are 1-columns, of cost 0
            runs = []
            width = len(cols) + left  # columns of length >= h
            low, h, k = 0, 1, left  # rows below low are done; k columns of length h
            for c in reversed(cols):
                if c == h:
                    k += 1
                    continue
                if k:
                    runs.append((width, h - low))
                    width -= k
                    low = h
                h, k = c, 1
            runs.append((width, h - low))
            p = Partition._of_runs(tuple(runs), n, cols[0])
            if p.rep_dim() != top - spent:
                raise InternalError(f"{p}: rep_dim {p.rep_dim()} != C(n,2) - cost {top - spent}")
            out.append((p, top - spent))
            return
        wanted_here = wanted >> spent
        for c in range(min(most, left), 0, -1):
            cost = c * (c - 1) // 2
            if (reach[c][left - c] << cost) & wanted_here:
                cols.append(c)
                walk(c, left - c, spent + cost)
                cols.pop()

    walk(n, n, 0)
    out.sort(key=lambda pd: pd[0].runs, reverse=True)
    return out


def enumerate_orbit_solutions(
    n: int,
    l: int,
    exclude_trivial: bool = False,
    *,
    max_n: int = DEFAULT_MAX_N,
    max_l: int = DEFAULT_MAX_L,
) -> list[tuple[Partition, ...]]:
    """All multisets of l orbits of GL_n whose rep dims sum to n(n-1)/2.

    Solutions are unordered: each is returned once, its partitions sorted
    largest-first lexicographically, and the solution list itself sorted the
    same way.  exclude_trivial drops the zero orbit (1^n) from the alphabet.

    The search runs over dimensions, not partitions: with column lengths
    lam'_j, rep_dim(lam) = C(n,2) - sum_j C(lam'_j, 2), so the achievable
    dimensions are a knapsack over column sizes (_cost_reach).  Only the
    orbits whose dimension some solution uses are built (_orbits_of_costs).

    Refuses searches beyond (max_n, max_l) with ResourceLimitError; a bound
    that admits no search at all (max_n < 2 or max_l < 1) is invalid input.
    """
    orbits, solutions = _solve(n, l, exclude_trivial, max_n=max_n, max_l=max_l)
    alphabet = [p for p, _ in orbits]
    return [tuple([alphabet[i] for i in idxs]) for idxs in solutions]


def _solve(
    n: int, l: int, exclude_trivial: bool, *, max_n: int, max_l: int
) -> tuple[list[tuple[Partition, int]], list[tuple[int, ...]]]:
    """enumerate_orbit_solutions by index: (orbits, solutions), where orbits is
    the (orbit, rep_dim) table in reverse-lexicographic order, every entry used
    by some solution, and each solution a sorted tuple of indices into it."""
    need_int(n, 2, "solution search")
    need_int(l, 1, "solution search", "l")
    need_int(max_n, 2, "solution search", "max_n")
    need_int(max_l, 1, "solution search", "max_l")
    if n > max_n or l > max_l:
        raise ResourceLimitError(
            f"solution search n={echo(n)}, l={echo(l)} exceeds bounds max_n={echo(max_n)}, "
            f"max_l={echo(max_l)}"
        )

    target = n * (n - 1) // 2
    reach = _cost_reach(n, exclude_trivial)
    dims = [target - c for c in range(target, -1, -1) if reach[n][n] >> c & 1]
    reachable = set(dims)
    found: list[tuple[int, ...]] = []
    # (first index, need, slots left, dimensions so far as a (last, rest) chain)
    stack: list[tuple] = [(0, target, l, None)]
    while stack:
        start, need, slots, chosen = stack.pop()
        if slots == 1:
            # the step before kept d * slots <= need: need >= d, still ascending
            if need in reachable:
                dimset = [need]
                while chosen is not None:
                    d, chosen = chosen
                    dimset.append(d)
                found.append(tuple(reversed(dimset)))
            continue
        end = bisect.bisect_right(dims, need // slots, start)  # d * slots <= need
        stack += [(k, need - dims[k], slots - 1, (dims[k], chosen)) for k in range(start, end)]

    # An orbit is named by its alphabet index, its reverse-lexicographic rank:
    # ascending indices are descending parts, in a solution and across solutions
    # alike.  Each multiset of dimensions expands inside its equal-dimension groups.
    wanted = sum(1 << (target - d) for d in {d for dimset in found for d in dimset})
    orbits = _orbits_of_costs(n, reach, wanted)
    groups: dict[int, list[int]] = {}
    for i, (_, d) in enumerate(orbits):
        groups.setdefault(d, []).append(i)
    solutions: list[tuple[int, ...]] = []
    for dimset in found:
        picks = [
            combinations_with_replacement(groups[d], len(list(same)))
            for d, same in groupby(dimset)
        ]
        for pick in product(*picks):
            solutions.append(tuple(sorted(chain.from_iterable(pick))))
    solutions.sort()
    return orbits, solutions
