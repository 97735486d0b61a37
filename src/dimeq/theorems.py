"""Exhaustive desk-scale verifiers and the vanishing-verdict engine.

Each verify_* function covers the full finite space its statement
quantifies over, returns a VerificationReport, and never samples: passed ==
True means every case was covered.  Coverage is not always a visit to each
case.  Some sweeps aggregate: they check an exact minimum, or one
representative per class of cases that share their verdict, and expand a
class case by case only when it fails.  Others prune: they skip a branch only
when every case in it is provably outside the budget the statement assumes.
Either way space_size counts every quantified case, by closed form when they
are not all visited, so reports do not depend on how the sweep was done.

The verdict engine at the bottom applies the verified statements to one
concrete integral specification and says what they imply about it.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Union

from .equation import EquationReport, check_dim_equation
from .errors import InternalError, InvalidInputError, echo
from .partitions import (
    Dominance,
    EpsilonVector,
    Partition,
    dominance_floor,
    enumerate_partitions,
    epsilon_preimage,
    partition_from_epsilon,
)
from .representations import (
    Eisenstein,
    IntegralSpec,
    RepDescriptor,
    attached_orbit,
    dim_rep,
    is_speh_type,
    top_trivial_block,
)

DEFAULT_CEX_CAP = 100


@dataclass(frozen=True)
class VerificationReport:
    """What a verifier swept and what it found.

    counterexamples is empty exactly when passed; when the cap truncated the
    list, parameters["counterexamples_total"] holds the full count.
    """

    statement: str
    parameters: dict
    space_size: int
    passed: bool
    counterexamples: tuple[dict, ...]

    def to_json(self) -> dict:
        return {
            "statement": self.statement,
            "parameters": self.parameters,
            "space_size": self.space_size,
            "passed": self.passed,
            "counterexamples": list(self.counterexamples),
        }


def _finish(
    statement: str,
    parameters: dict,
    space_size: int,
    violations: list[dict],
    cex_cap: int,
) -> VerificationReport:
    """Canonicalize violations (sorted, capped) into a report."""
    violations = sorted(violations, key=lambda d: json.dumps(d, sort_keys=True))
    if len(violations) > cex_cap:
        parameters["counterexamples_total"] = len(violations)
    return VerificationReport(
        statement=statement,
        parameters=parameters,
        space_size=space_size,
        passed=not violations,
        counterexamples=tuple(violations[:cex_cap]),
    )


# -- pairwise orbit-size lower bound (rectangular orbits) ----------------------


def _pair_sweep(
    orbits: list[Partition], floor: Partition, bound: int, key: str
) -> tuple[int, list[dict]]:
    """Every pair i <= j of orbits has rep dims summing past bound, and every
    orbit dominates floor; returns (space, violations).

    Aggregated: all pairs pass when twice the smallest rep dim exceeds the
    bound, and they are visited one by one only when it does not.
    """
    k = len(orbits)
    dims = [p.rep_dim() for p in orbits]
    violations: list[dict] = []
    if 2 * min(dims) <= bound:
        for i in range(k):
            for j in range(i, k):
                s = dims[i] + dims[j]
                if s <= bound:
                    violations.append(
                        {
                            "first": list(orbits[i].parts),
                            "second": list(orbits[j].parts),
                            "rep_dim_sum": s,
                            "must_exceed": bound,
                        }
                    )
    for p in orbits:
        if not p.dominates(floor):
            violations.append({key: list(p.parts), "fails_to_dominate": list(floor.parts)})
    return k * (k + 1) // 2 + k, violations


def verify_lemma1(n: int, cex_cap: int = DEFAULT_CEX_CAP) -> VerificationReport:
    """Any two rectangular orbits (p^q), p >= 2, have rep dims summing past
    n(n-1)/2, so no pair of Speh-type representations can satisfy the
    dimension equation.

    Also checks the mechanism: every such rectangle dominates the all-twos
    floor, whose orbit dimension already exceeds (n^2-n)/2.
    """
    if n < 2:
        raise InvalidInputError(f"verify_lemma1 needs n >= 2, got {n}")
    rects = [
        Partition((p,) * (n // p)) for p in range(n, 1, -1) if n % p == 0
    ]
    floor = dominance_floor(n)
    bound = n * (n - 1) // 2
    space, violations = _pair_sweep(rects, floor, bound, "rectangle")
    space += 1
    if floor.orbit_dim() <= bound:
        violations.append(
            {
                "floor": list(floor.parts),
                "orbit_dim": floor.orbit_dim(),
                "must_exceed": bound,
            }
        )
    return _finish("lemma1", {"n": n, "rectangles": len(rects)}, space, violations, cex_cap)


# -- the main positivity inequality --------------------------------------------


def lemma2_I(lam: Partition, mu: Partition) -> int:
    """Exact positivity margin for an orbit pair.

    I = n + sum_{i<j} m_i m_j - sum_i i*lam_i, where the m's are the parts
    of mu's transpose.  Positive exactly when orbit_dim(lam) + orbit_dim(mu)
    exceeds n^2 - n; in fact 2I equals that excess.
    """
    if lam.n != mu.n:
        raise InvalidInputError(
            f"lemma2_I needs partitions of the same n, got {lam.n} and {mu.n}"
        )
    if mu.is_trivial_orbit():
        raise InvalidInputError("lemma2_I requires a nontrivial second partition")
    n = lam.n
    m = mu.transpose().parts
    total = sum(m)
    pair_sum = (total * total - sum(x * x for x in m)) // 2
    weighted = sum(i * p for i, p in enumerate(lam.parts, start=1))
    return n + pair_sum - weighted


def verify_lemma2(n: int, cex_cap: int = DEFAULT_CEX_CAP) -> VerificationReport:
    """For every nontrivial mu of n and every nontrivial lam of length at
    most n - len(mu) + 1, the two orbit dimensions sum to more than n^2 - n.

    The zero orbit (1^n) is excluded on both sides: one-dimensional
    representations never enter the integrals.  Coverage is exhaustive but
    aggregated — for each mu the minimum admissible lam orbit dimension is
    compared, which covers every pair; individual pairs are revisited only
    when that minimum exposes a violation.
    """
    if n < 2:
        raise InvalidInputError(f"verify_lemma2 needs n >= 2, got {n}")
    lams = sorted(
        (p for p in enumerate_partitions(n) if not p.is_trivial_orbit()),
        key=lambda p: p.length,
    )
    odims = [p.orbit_dim() for p in lams]
    lengths = [p.length for p in lams]
    prefix_min = list(itertools.accumulate(odims, min))
    bound = n * n - n

    space = 0
    violations: list[dict] = []
    for mu, mu_dim in zip(lams, odims):
        # lams[:k] have at most n - len(mu) + 1 parts; (n) is one, so k >= 1
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


# -- reduction of the main inequality to near-rectangular cases ----------------


@dataclass(frozen=True)
class Lemma2Case:
    """One near-rectangular case partition (a^p1, (a-1)^p2) in the reduction.

    a, p1 and p2 are ints (not bools) with a >= 2, p1 >= 1, p2 >= 0; the
    partition is built from them.  With n = a*p1 + (a-1)*p2 and
    m1 = n - (p1+p2) + 1 these imply the reduction's invariants, so they
    need no check of their own: m1 - a = (a-1)(p1-1) + (a-2)p2 >= 0, so
    2 <= a <= m1; for a == 2, n - (2*m1-2) = p2 >= 0; for a >= 3, n lies in
    the window left < n <= right, with left = (a*m1-(a+1))/(a-1) and
    right = ((a-1)*m1-a)/(a-2), since n - left = (p2+1)/(a-1) > 0 and
    right - n = (p1-1)/(a-2) >= 0.
    """

    a: int
    p1: int
    p2: int
    partition: Partition = field(init=False)

    def __post_init__(self) -> None:
        if any(type(x) is not int for x in (self.a, self.p1, self.p2)):
            raise InvalidInputError(
                f"case a, p1, p2 must be ints, got {echo((self.a, self.p1, self.p2))}"
            )
        if self.a < 2 or self.p1 < 1 or self.p2 < 0:
            raise InvalidInputError(
                f"bad case shape a={self.a}, p1={self.p1}, p2={self.p2}"
            )
        parts = (self.a,) * self.p1 + (self.a - 1,) * self.p2
        object.__setattr__(self, "partition", Partition(parts))


def lemma2_reduction_cases(n: int, m1: int) -> list[Lemma2Case]:
    """The near-rectangular partitions the main inequality reduces to.

    For each a in [2, m1], the candidate has p2 = a*s - n parts of a-1 and
    p1 = s - p2 parts of a, where s = n - m1 + 1 is the length bound.  A
    candidate is kept when both counts are admissible (p1 >= 1, p2 >= 0);
    the result can be empty.  An admissible candidate always lies in its
    a-window (see Lemma2Case).
    """
    if n < 2:
        raise InvalidInputError(f"lemma2_reduction_cases needs n >= 2, got {n}")
    if not 2 <= m1 <= n:
        raise InvalidInputError(f"m1 must be in [2, n], got m1={m1}, n={n}")
    s = n - m1 + 1
    cases: list[Lemma2Case] = []
    for a in range(2, m1 + 1):
        p2 = a * s - n
        p1 = s - p2
        if p1 >= 1 and p2 >= 0:
            cases.append(Lemma2Case(a=a, p1=p1, p2=p2))
    return cases


def verify_lemma2_reduction(n: int, cex_cap: int = DEFAULT_CEX_CAP) -> VerificationReport:
    """Three checks that the near-rectangular reduction is sound at this n.

    (i)   every case partition satisfies the positivity inequality against
          every nontrivial mu with the matching transpose head m1 (for the
          a=2, p2=0 rectangles, the margin is also recomputed through the
          alternate pair-sum formula and the two must agree);
    (ii)  every candidate lam (head at most m1-1, length at most n-m1+1)
          dominates some case partition, so the cases really are the floor
          of the search space;
    (iii) for a >= 3, whenever n lies in the a-window, n is at least
          (3a-2)(m1-1)/(3a-4) — the margin the window argument consumes.

    The bare-rational comparison "window-left >= (3a-2)(m1-1)/(3a-4)" fails
    at four small (a, m1) corners even though every integer n in those
    windows passes; such corners are reported in
    parameters["literal_side_inequality_failures"], not as counterexamples.
    """
    if n < 2:
        raise InvalidInputError(f"verify_lemma2_reduction needs n >= 2, got {n}")
    space = 0
    violations: list[dict] = []
    literal_notes: list[dict] = []
    mus_by_len: dict[int, list[Partition]] = {}
    for mu in enumerate_partitions(n):
        if mu.is_trivial_orbit():
            continue
        mus_by_len.setdefault(mu.length, []).append(mu)

    for m1 in range(2, n + 1):
        cases = lemma2_reduction_cases(n, m1)
        s = n - m1 + 1

        # (i) positivity on the case partitions
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
                if case.a == 2 and case.p2 == 0:
                    m = mu.transpose().parts
                    pair_sum = (sum(m) ** 2 - sum(x * x for x in m)) // 2
                    alt = pair_sum + (n * m1 - n * n) // 2
                    if alt != margin:
                        violations.append(
                            {
                                "branch": "i-alt",
                                "case": list(case.partition.parts),
                                "mu": list(mu.parts),
                                "margin": margin,
                                "alternate": alt,
                            }
                        )

        # (ii) the cases are dominated by every candidate lam
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

        # (iii) window margin for a >= 3
        for a in range(3, m1 + 1):
            left = Fraction(a * m1 - (a + 1), a - 1)
            right = Fraction((a - 1) * m1 - a, a - 2)
            if not (left < n <= right):
                continue
            space += 1
            needed = Fraction((3 * a - 2) * (m1 - 1), 3 * a - 4)
            if n < needed:
                violations.append(
                    {
                        "branch": "iii",
                        "a": a,
                        "m1": m1,
                        "n": n,
                        "needed": f"{needed.numerator}/{needed.denominator}",
                    }
                )
            if left < needed:
                literal_notes.append(
                    {
                        "a": a,
                        "m1": m1,
                        "window_left": f"{left.numerator}/{left.denominator}",
                        "needed": f"{needed.numerator}/{needed.denominator}",
                    }
                )

    params = {"n": n, "literal_side_inequality_failures": literal_notes}
    return _finish("lemma2_reduction", params, space, violations, cex_cap)


# -- short orbits --------------------------------------------------------------


def verify_prop3(n: int, cex_cap: int = DEFAULT_CEX_CAP) -> VerificationReport:
    """Any two orbits of length at most n/2 have rep dims summing past
    n(n-1)/2, and each such orbit dominates the all-twos floor."""
    if n < 2:
        raise InvalidInputError(f"verify_prop3 needs n >= 2, got {n}")
    lams = list(enumerate_partitions(n, max_length=n // 2))
    space, violations = _pair_sweep(lams, dominance_floor(n), n * (n - 1) // 2, "orbit")
    return _finish(
        "prop3", {"n": n, "orbits": len(lams)}, space, violations, cex_cap
    )


# -- residual block bookkeeping -------------------------------------------------


def _check_blocks(caller: str, n: int, m1s: tuple[int, ...]) -> None:
    """n >= 2, and every trivial block lies in [1, n-1]."""
    if n < 2:
        raise InvalidInputError(f"{caller} needs n >= 2, got {n}")
    for m in m1s:
        if not 1 <= m <= n - 1:
            raise InvalidInputError(f"block {m} outside [1, {n - 1}]")


def residual_bound(n: int, m1s: tuple[int, ...] | list[int]) -> int:
    """What remains of the first trivial block after paying n - m for each
    later block: sum(m) - (k-1)*n - 1.

    Computed by the step recursion r_1 = m_1 - 1, r_{j+1} = r_j - (n - m_{j+1})
    and cross-checked against the closed form.  May be negative.
    """
    m1s = tuple(m1s)
    if not m1s:
        raise InvalidInputError("residual_bound needs at least one block")
    _check_blocks("residual_bound", n, m1s)
    r = m1s[0] - 1
    for m in m1s[1:]:
        r -= n - m
    closed = sum(m1s) - (len(m1s) - 1) * n - 1
    if r != closed:
        raise InternalError(f"residual recursion {r} != closed form {closed} for {m1s}")
    return closed


def check_corollary1(n: int, l: int, m1s: tuple[int, ...] | list[int]) -> bool:
    """True when l trivial leading blocks are jointly too large for the
    equation: sum(m) >= n(l-1) + 2."""
    m1s = tuple(m1s)
    if l < 2:
        raise InvalidInputError(f"check_corollary1 needs l >= 2, got {l}")
    if len(m1s) != l:
        raise InvalidInputError(f"expected {l} blocks, got {len(m1s)}")
    _check_blocks("check_corollary1", n, m1s)
    return sum(m1s) >= n * (l - 1) + 2


def _big_block_tuples(n: int, k: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Every nonincreasing k-tuple of blocks m in (n/2, n-1] whose costs
    m(n-m) sum to at most budget, in combinations_with_replacement order.

    On that range the cost rises strictly as m falls.  So the cheapest way
    to fill the slots left after choosing a block is to repeat it, and once
    that overshoots the budget, every smaller block overshoots too: the loop
    breaks there.  Every prefix visited extends to a yielded tuple.
    """
    big = range(n - 1, n // 2, -1)
    cost = [m * (n - m) for m in big]

    def extend(
        prefix: tuple[int, ...], start: int, spent: int, left: int
    ) -> Iterator[tuple[int, ...]]:
        for i in range(start, len(cost)):
            if spent + left * cost[i] > budget:
                break
            if left == 1:
                yield prefix + (big[i],)
            else:
                yield from extend(prefix + (big[i],), i, spent + cost[i], left - 1)

    return extend((), 0, 0, k)


def _big_tuple_count(n: int, k: int) -> int:
    """How many nonincreasing k-tuples of blocks in (n/2, n-1] there are,
    within budget or not: C(|big| + k - 1, k), |big| = n - 1 - floor(n/2)."""
    return math.comb(n - 1 - n // 2 + k - 1, k)


def _strict_tuples(n: int, l: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Every (l-1)-tuple head from _big_block_tuples followed by each last
    block in [1, n-1] that the budget leaves room for."""
    # The cheapest last block (1 or n-1) costs n-1; heads over
    # budget - (n-1) admit no last block at all.
    for head in _big_block_tuples(n, l - 1, budget - (n - 1)):
        room = budget - sum(m * (n - m) for m in head)
        yield from (head + (m,) for m in range(n - 1, 0, -1) if m * (n - m) <= room)


def verify_prop4(
    n: int, l: int, mode: str = "paper", cex_cap: int = DEFAULT_CEX_CAP
) -> VerificationReport:
    """Blocks obeying the dimension budget must be jointly large.

    Integer search: over l trivial blocks m with sum m(n-m) <= n(n-1)/2,
    check sum(m) >= n(l-1) + 2.  In "paper" mode every block ranges over
    (n/2, n-1], the regime the statement asserts; in "strict" mode the last
    block ranges over [1, n-1], which is *expected* to produce violations —
    the report then documents the exact gap (small last blocks).

    The search is a pruned DFS over the nonincreasing tuples of blocks in
    (n/2, n-1] (for strict mode, over the l-1 leading blocks, each then
    paired with every last block).  It only stops at a block where all the
    remaining tuples exceed the budget, so it visits every feasible tuple
    and only those.  space_size counts the whole space in closed form: all
    l-tuples in paper mode, and all (l-1)-tuple heads times the n - 1 last
    blocks in strict mode.

    In paper mode the closed-form bound l*n/2 + sqrt((l^2-2l)n^2 + 2ln)/2
    >= (l-1)n + 2 is also checked, exactly: both sides square to integers,
    so no tolerance is needed (any float tolerance down to 0 is satisfied).
    It adds one case to space_size.
    """
    if n < 4:
        raise InvalidInputError(f"verify_prop4 needs n >= 4, got {n}")
    if l < 3:
        raise InvalidInputError(f"verify_prop4 needs l >= 3, got {l}")
    if mode not in ("paper", "strict"):
        raise InvalidInputError(f"mode must be 'paper' or 'strict', got {echo(mode)}")
    budget = n * (n - 1) // 2
    threshold = n * (l - 1) + 2
    feasible = 0
    violations: list[dict] = []

    if mode == "paper":
        space = _big_tuple_count(n, l)
        tuples = _big_block_tuples(n, l, budget)
    else:
        space = _big_tuple_count(n, l - 1) * (n - 1)
        tuples = _strict_tuples(n, l, budget)
    for tup in tuples:
        feasible += 1
        if sum(tup) < threshold:
            violations.append({"blocks": list(tup), "block_sum": sum(tup), "required": threshold})

    params: dict = {
        "n": n,
        "l": l,
        "mode": mode,
        "feasible_count": feasible,
        "vacuous": feasible == 0,
    }
    if mode == "paper":
        # closed form, exactly: sqrt(D) >= (l-2)n + 4 with D = (l^2-2l)n^2 + 2ln
        disc = (l * l - 2 * l) * n * n + 2 * l * n
        rhs = (l - 2) * n + 4
        holds = disc >= rhs * rhs
        params["closed_form"] = {"disc": disc, "rhs_sqrt": rhs, "holds": holds}
        space += 1
        if not holds:
            violations.append(
                {"kind": "closed-form", "disc": disc, "rhs_sqrt": rhs}
            )
    return _finish("prop4", params, space, violations, cex_cap)


def verify_prop5(
    n: int, q: int, l: int, cex_cap: int = DEFAULT_CEX_CAP
) -> VerificationReport:
    """With a rectangular orbit (p^q) absorbing the rest of the budget, the
    l-1 leading trivial blocks must leave residual at least n - q + 1.

    Integer search: blocks m in (n/2, n-1] with sum m(n-m) <= n(q-1)/2 must
    have residual_bound >= n - q + 1.  The same pruned DFS as verify_prop4
    visits exactly the feasible (l-1)-tuples, and residual_bound is checked
    on each; space_size counts all the (l-1)-tuples, feasible or not, in
    closed form.  The closed-form minimizer check is
    performed exactly when the minimizer lies within the block range
    (2(l-1)(n-1) <= n(q-1)); otherwise the feasible region is empty and the
    closed form is flagged vacuous rather than evaluated outside its domain.
    An evaluated closed form adds one case to space_size.
    """
    if n < 4:
        raise InvalidInputError(f"verify_prop5 needs n >= 4, got {n}")
    if q < 1 or n % q != 0 or n // q < 2:
        raise InvalidInputError(
            f"q must divide n with quotient >= 2, got n={n}, q={q}"
        )
    if l < 3:
        raise InvalidInputError(f"verify_prop5 needs l >= 3, got {l}")
    p = n // q
    budget = n * (q - 1) // 2
    required = n - q + 1
    space = _big_tuple_count(n, l - 1)
    feasible = 0
    violations: list[dict] = []
    for tup in _big_block_tuples(n, l - 1, budget):
        feasible += 1
        rb = residual_bound(n, tup)
        if rb < required:
            violations.append(
                {"blocks": list(tup), "residual_bound": rb, "required": required}
            )

    # closed form at the constrained minimizer m* = n/2 + sqrt(D)/(2(l-1)),
    # D = (l-1)^2 n^2 - 2n(l-1)(q-1): residual > n - q + 1 iff sqrt(D) > R.
    applicable = 2 * (l - 1) * (n - 1) <= n * (q - 1)
    closed: dict = {"applicable": applicable}
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
        "p": p,
        "feasible_count": feasible,
        "vacuous": feasible == 0,
        "closed_form": closed,
    }
    return _finish("prop5", params, space, violations, cex_cap)


# -- character patterns ---------------------------------------------------------


def verify_epsilon_orbit_claim(
    n: int, p: int, q: int, cex_cap: int = DEFAULT_CEX_CAP
) -> VerificationReport:
    """Patterns with at least n-q+1 nonzero entries never attach an orbit
    dominated by (or equal to) the rectangle (p^q).

    The attached orbit of a pattern is the decreasing rearrangement of its
    run lengths, and at least n-q+1 ones means at most q-1 runs.  So the
    sweep is aggregated: each partition of n into at most q-1 parts is
    compared with the rectangle once, and stands for all the patterns whose
    runs reorder it.  Only a partition that compares less or equal is
    expanded back into its patterns, one counterexample each.  space_size
    counts the patterns, sum_{z=0}^{q-2} C(n-1, z) (z zeros).

    Also records that the boundary pattern with zeros exactly at p, 2p, ...,
    (q-1)p — one nonzero entry short of the threshold — attaches precisely
    (p^q), which is why the threshold is sharp.
    """
    if p < 2 or q < 1 or p * q != n:
        raise InvalidInputError(
            f"need n == p*q with p >= 2, got n={n}, p={p}, q={q}"
        )
    target = Partition((p,) * q)
    need = n - q + 1
    space = sum(math.comb(n - 1, zeros) for zeros in range(q - 1))
    violations: list[dict] = []
    for lam in enumerate_partitions(n, max_length=q - 1):
        rel = lam.compare(target)
        if rel in (Dominance.LESS, Dominance.EQUAL):
            violations.extend(
                {
                    "epsilon": str(eps),
                    "orbit": list(lam.parts),
                    "relation": rel.value,
                    "rectangle": list(target.parts),
                }
                for eps in epsilon_preimage(lam)
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


# -- the verifier registry ------------------------------------------------------


class Verifier(NamedTuple):
    """How `dimeq verify` calls one verify_* function, and what `verify all`
    sweeps with it.

    params are its integer arguments in call order, one --flag each; help is
    the line `dimeq verify --help` shows for it; modes, when given, are the
    choices of its mode argument, the first the default.  `verify all` calls
    it, in the default mode, on every argument tuple of cases(n) for each n in
    the inclusive n_range.
    """

    func: Callable[..., VerificationReport]
    params: tuple[str, ...]
    n_range: tuple[int, int]
    help: str
    cases: Callable[[int], Iterable[tuple[int, ...]]] = lambda n: ((n,),)
    modes: tuple[str, ...] = ()


# Keyed by the `dimeq verify` command.  Table order is the order of the
# `verify all` reports, so reordering it changes that output's bytes.
VERIFIERS: dict[str, Verifier] = {
    "lemma2": Verifier(verify_lemma2, ("n",), (2, 25),
                       "nontrivial orbit pairs of bounded length pass n^2-n"),
    "lemma2-reduction": Verifier(verify_lemma2_reduction, ("n",), (2, 16),
                                 "the near-rectangular cases that lemma2 reduces to"),
    "lemma1": Verifier(verify_lemma1, ("n",), (2, 60),
                       "two rectangles (p^q), p >= 2, overflow n(n-1)/2"),
    "prop3": Verifier(verify_prop3, ("n",), (4, 16),
                      "two orbits of length <= n/2 overflow n(n-1)/2"),
    "prop4": Verifier(
        verify_prop4, ("n", "l"), (4, 40),
        "l trivial blocks within the budget sum to >= n(l-1)+2",
        lambda n: [(n, l) for l in range(3, 7)],
        modes=("paper", "strict"),
    ),
    "prop5": Verifier(
        verify_prop5, ("n", "q", "l"), (4, 40),
        "blocks beside (p^q) leave a residual >= n-q+1",
        lambda n: [(n, q, l) for q in range(2, n // 2 + 1) if n % q == 0
                   for l in range(3, 7)],
    ),
    "epsilon-orbit": Verifier(
        verify_epsilon_orbit_claim, ("n", "p", "q"), (2, 14),
        "patterns with >= n-q+1 ones attach no orbit <= (p^q)",
        lambda n: [(n, p, n // p) for p in range(2, n + 1) if n % p == 0],
    ),
}


def verification_sweep(
    max_n: int | None = None, cex_cap: int = DEFAULT_CEX_CAP
) -> list[VerificationReport]:
    """Every registered verifier over its n_range, capped at max_n."""
    lowest = min(v.n_range[0] for v in VERIFIERS.values())
    if max_n is not None and max_n < lowest:
        raise InvalidInputError(f"max-n must be >= {lowest}, got {max_n}")
    reports: list[VerificationReport] = []
    for v in VERIFIERS.values():
        lo, hi = v.n_range
        for n in range(lo, (hi if max_n is None else min(hi, max_n)) + 1):
            reports.extend(v.func(*args, cex_cap=cex_cap) for args in v.cases(n))
    return reports


# -- the verdict engine ----------------------------------------------------------


@dataclass(frozen=True)
class Vanishes:
    """The integral vanishes; `by` names the statement that forces it."""

    by: str
    witness: dict


@dataclass(frozen=True)
class EquationFails:
    """The dimension equation cannot hold for this shape of data."""

    by: str
    equation_report: EquationReport


@dataclass(frozen=True)
class NotApplicable:
    """The equation fails numerically and no covered pattern explains it."""

    reason: str


@dataclass(frozen=True)
class NotConcluded:
    """The equation holds but no verified statement decides vanishing."""

    reason: str


Verdict = Union[Vanishes, EquationFails, NotApplicable, NotConcluded]


def verdict_to_json(v: Verdict) -> dict:
    if isinstance(v, Vanishes):
        return {"verdict": "vanishes", "by": v.by, "witness": v.witness}
    if isinstance(v, EquationFails):
        return {
            "verdict": "equation_fails",
            "by": v.by,
            "equation_report": v.equation_report.to_json(),
        }
    if isinstance(v, NotApplicable):
        return {"verdict": "not_applicable", "reason": v.reason}
    if isinstance(v, NotConcluded):
        return {"verdict": "not_concluded", "reason": v.reason}
    raise InvalidInputError(f"not a verdict: {echo(v)}")


def _eisenstein_with_rect_head(rep: RepDescriptor) -> bool:
    """Induced from at least two blocks, leading constituent Speh-type with
    parts >= 2 (a nontrivial rectangle)."""
    if not isinstance(rep, Eisenstein):
        return False
    head = attached_orbit(rep.constituents[0])
    rect = head.rectangle()
    return rect is not None and rect[0] >= 2


def vanishing_verdict(spec: IntegralSpec) -> Verdict:
    """Decide what the verified statements say about one integral.

    Rules, first decisive one wins: lemma1 (two Speh-type representations),
    prop3 (l = 2, equation fails), prop1 (l = 2), cor1 (l >= 3, leading
    trivial blocks jointly too large) and prop5 (l >= 3, all but one lead
    with a trivial block above n/2, and that one is Speh-type).  Which rule
    decides does not depend on the order of the representations.  Every
    Vanishes/EquationFails carries the inequalities it re-verified; anything
    else falls through to NotApplicable/NotConcluded.  Proposition 4 is
    checked by verify_prop4, not applied here: its block above n/2 can only
    lead, where cor1 has already tested the same sum.
    """
    if spec.l < 2:
        raise InvalidInputError(
            f"vanishing_verdict needs at least 2 representations, got {spec.l}"
        )
    n = spec.n
    reps = spec.representations
    l = spec.l
    report = check_dim_equation(spec)

    # Two Speh-type representations: their dimensions alone overflow the
    # budget, so the equation must have failed.
    if sum(1 for r in reps if is_speh_type(r)) >= 2:
        if report.holds:
            raise InternalError("two rectangular orbits satisfied the equation")
        return EquationFails(by="lemma1", equation_report=report)

    if not report.holds:
        if l == 2:
            a, b = reps
            pair = any(
                _eisenstein_with_rect_head(x)
                and (is_speh_type(y) or _eisenstein_with_rect_head(y))
                for x, y in ((a, b), (b, a))
            )
            if pair and all(attached_orbit(r).length <= n // 2 for r in reps):
                return EquationFails(by="prop3", equation_report=report)
        return NotApplicable(
            reason=(
                f"dimension equation fails ({report.lhs} != {report.rhs}) "
                "and no covered failure pattern applies"
            )
        )

    # Equation holds.  Look for a pattern that still forces vanishing.
    if l == 2:
        for i, r in enumerate(reps):
            m = top_trivial_block(r)
            if m is not None:
                return Vanishes(
                    by="prop1",
                    witness={
                        "representation_index": i,
                        "top_trivial_block": m,
                        "equation_report": report.to_json(),
                    },
                )
        return NotConcluded(
            reason="prop1: no representation is induced with a one-dimensional "
            "leading constituent"
        )

    # l >= 3: Corollary 1, then Proposition 5.
    tops = [top_trivial_block(r) for r in reps]
    if None in tops:
        reason = (
            "cor1: not every representation is induced with a one-dimensional "
            "leading constituent"
        )
    else:
        total, threshold = sum(tops), n * (l - 1) + 2
        if check_corollary1(n, l, tops):
            return Vanishes(
                by="cor1",
                witness={
                    "top_trivial_blocks": tops,
                    "block_sum": total,
                    "required": threshold,
                    "equation_report": report.to_json(),
                },
            )
        reason = f"cor1: leading block sum {total} < {threshold}"

    # prop5: a Speh-type representation never leads with a trivial block
    # above n/2, so its shape, not its position, marks it as the rectangle.
    small = [i for i, m in enumerate(tops) if m is None or 2 * m <= n]
    if len(small) == 1 and is_speh_type(reps[small[0]]):
        p, q = attached_orbit(reps[small[0]]).rectangle()
        leading = [m for i, m in enumerate(tops) if i != small[0]]
        rb = residual_bound(n, leading)
        required = n - q + 1
        if rb >= required:
            return Vanishes(
                by="prop5",
                witness={
                    "leading_blocks": leading,
                    "rectangle": [p, q],
                    "residual_bound": rb,
                    "required": required,
                    "equation_report": report.to_json(),
                },
            )
    return NotConcluded(reason=reason)
