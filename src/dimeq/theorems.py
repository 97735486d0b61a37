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
import json
import math
from collections import namedtuple

from .equation import EquationReport, check_dim_equation
from .errors import InternalError, InvalidInputError, Record, ResourceLimitError, echo
from .errors import need_int, need_tuple
from .partitions import (
    Dominance,
    EpsilonVector,
    Partition,
    balanced_partition,
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
    is_speh_type,
    top_trivial_block,
)

DEFAULT_CEX_CAP = 100
MAX_LEADING_BLOCKS = 1000  # the most leading blocks _block_sweep walks


class VerificationReport(
    Record, fields=("statement", "parameters", "space_size", "passed", "counterexamples")
):
    """What a verifier swept and what it found.

    counterexamples is empty exactly when passed; when the cap truncated the
    list, parameters["counterexamples_total"] holds the full count.
    """

    def __init__(
        self, statement: str, parameters: dict, space_size: int, passed: bool,
        counterexamples: tuple[dict, ...],
    ) -> None:
        d = self.__dict__
        d["statement"], d["parameters"], d["space_size"] = statement, parameters, space_size
        d["passed"], d["counterexamples"] = passed, counterexamples

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


# -- partition counts, for the sweeps that check one minimum per class ----------


def _partition_counts(n: int) -> list[int]:
    """at_most[k], the number of partitions of n into at most k parts (by
    transposition, into parts of at most k), for 0 <= k <= n; so n has
    at_most[k] - at_most[k-1] partitions of exactly k parts.

    O(n^2) time in one O(n) row: row[m] counts the partitions of m into parts
    of at most k, and admitting parts k adds those of m - k.
    """
    row = [1] + [0] * n
    at_most = [row[n]]
    for k in range(1, n + 1):
        for m in range(k, n + 1):
            row[m] += row[m - k]
        at_most.append(row[n])
    return at_most


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
    need_int(n, 2, "verify_lemma1")
    need_int(cex_cap, 0, "verify_lemma1", "cex_cap")
    # divisors paired up to isqrt(n): the large ones descending, then the small
    low = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    ps = [n // d for d in low] + [d for d in reversed(low) if d > 1 and d * d != n]
    rects = [Partition.from_runs([(p, n // p)]) for p in ps]
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

    I = n + rep_dim(mu) - sum_i i*lam_i; rep_dim(mu) is the pair sum
    sum_{i<j} m_i m_j over the parts m of mu's transpose.  Positive exactly
    when orbit_dim(lam) + orbit_dim(mu) exceeds n^2 - n; 2I is that excess.
    """
    if lam.n != mu.n:
        raise InvalidInputError(
            f"lemma2_I needs partitions of the same n, got {echo(lam.n)} and {echo(mu.n)}"
        )
    if mu.is_trivial_orbit():
        raise InvalidInputError("lemma2_I requires a nontrivial second partition")
    # sum_i i*lam_i by runs: m parts v after s earlier ones add v*m*(2s+m+1)/2
    weighted = s = 0
    for v, m in lam.runs:
        weighted += v * m * (2 * s + m + 1) // 2
        s += m
    return lam.n + mu.rep_dim() - weighted


def verify_lemma2(n: int, cex_cap: int = DEFAULT_CEX_CAP) -> VerificationReport:
    """For every nontrivial mu of n and every nontrivial lam of length at
    most n - len(mu) + 1, the two orbit dimensions sum to more than n^2 - n.

    The zero orbit (1^n) is excluded on both sides: one-dimensional
    representations never enter the integrals.  Coverage is exhaustive but
    aggregated: the mu of length L, and the lam of length at most
    K = min(n - L + 1, n - 1), have their smallest orbit dimensions at
    balanced_partition(n, L) and balanced_partition(n, K), so that one pair
    covers all of theirs, and they are walked only when it fails.  The pairs
    are counted from _partition_counts.
    """
    need_int(n, 2, "verify_lemma2")
    need_int(cex_cap, 0, "verify_lemma2", "cex_cap")
    at_most = _partition_counts(n)
    # low[k]: the smallest orbit dimension of a partition with at most k parts
    low = [0] + [balanced_partition(n, k).orbit_dim() for k in range(1, n)]
    bound = n * n - n

    space = 0
    violations: list[dict] = []
    for length in range(1, n):
        most = min(n - length + 1, n - 1)
        space += (at_most[length] - at_most[length - 1]) * at_most[most]
        if low[length] + low[most] > bound:
            continue
        lams = list(enumerate_partitions(n, max_length=most))
        for mu in enumerate_partitions(n, max_length=length):
            for lam in lams:
                s = mu.orbit_dim() + lam.orbit_dim()
                if mu.length == length and s <= bound:
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


class Lemma2Case(Record, fields=("a", "p1", "p2", "partition")):
    """One near-rectangular case partition (a^p1, (a-1)^p2) in the reduction.

    a, p1 and p2 are ints (not bools) with a >= 2, p1 >= 1, p2 >= 0, each
    checked by need_int in that order; the partition is built from their
    runs.  With n = a*p1 + (a-1)*p2 and m1 = n - (p1+p2) + 1 these imply the
    reduction's invariants, so they need no check of their own:
    m1 - a = (a-1)(p1-1) + (a-2)p2 >= 0, so 2 <= a <= m1; for a == 2,
    n - (2*m1-2) = p2 >= 0; for a >= 3, n lies in the window left < n <= right,
    with left = (a*m1-(a+1))/(a-1) and right = ((a-1)*m1-a)/(a-2), since
    n - left = (p2+1)/(a-1) > 0 and right - n = (p1-1)/(a-2) >= 0.
    Conversely, with s = n - m1 + 1 the window reads (a-1)*s < n <= a*s, so
    n lies in the a-window exactly when a = ceil(n/s).
    """

    def __init__(self, a: int, p1: int, p2: int) -> None:
        need_int(a, 2, "Lemma2Case", "a")
        need_int(p1, 1, "Lemma2Case", "p1")
        need_int(p2, 0, "Lemma2Case", "p2")
        runs = [(v, m) for v, m in ((a, p1), (a - 1, p2)) if m]
        d = self.__dict__
        d["a"], d["p1"], d["p2"], d["partition"] = a, p1, p2, Partition.from_runs(runs)


def lemma2_reduction_cases(n: int, m1: int) -> list[Lemma2Case]:
    """The near-rectangular partitions the main inequality reduces to: one,
    balanced_partition(n, s), where s = n - m1 + 1 is the length bound.

    The candidate for a has p2 = a*s - n parts of a-1 and p1 = s - p2 parts
    of a.  Both counts are admissible (p1 >= 1, p2 >= 0) exactly when
    (a-1)*s < n <= a*s, that is for a = ceil(n/s) alone.  That a lies in
    [2, m1]: a >= 2 as s < n, and a <= m1 as m1*s - n = (s-1)(n-s) >= 0.
    """
    need_int(n, 2, "lemma2_reduction_cases")
    need_int(m1, 2, "lemma2_reduction_cases", "m1", n)
    s = n - m1 + 1
    a = -(-n // s)
    p2 = a * s - n
    return [Lemma2Case(a=a, p1=s - p2, p2=p2)]


def _ratio(num: int, den: int) -> str:
    """num/den in lowest terms, written "p/q" (den > 0)."""
    g = math.gcd(num, den)
    return f"{num // g}/{den // g}"


def verify_lemma2_reduction(n: int, cex_cap: int = DEFAULT_CEX_CAP) -> VerificationReport:
    """Three checks that the near-rectangular reduction is sound at this n.

    (i)   every case partition satisfies the positivity inequality against
          every nontrivial mu with the matching transpose head m1; the
          smallest rep dim of such a mu, which (i) reads off
          balanced_partition(n, m1), is recomputed by columns (i-alt), apart
          from rep_dim's row formula, and the two must agree;
    (ii)  every candidate lam (head at most m1-1, length at most n-m1+1)
          dominates the case, so it really is the floor of the search space;
    (iii) for a >= 3, when n lies in the a-window, n is at least
          (3a-2)(m1-1)/(3a-4) — the margin the window argument consumes.

    Each m1 has one case, balanced_partition(n, s) with s = n - m1 + 1, and
    n lies in the window of a = ceil(n/s) alone (see Lemma2Case), so (iii)
    checks that a only, and (ii) only counts its candidates: as partitions
    of at most s parts they all dominate the case.  (i) is aggregated: it
    checks the dominance minimum of its class of mu, walks the class only
    when that fails, and counts it from _partition_counts.  The i-alt
    minimum comes from one row of a max-plus knapsack over column lengths,
    grown with m1, so the whole check takes O(n^2) steps.

    The bare-rational comparison "window-left >= (3a-2)(m1-1)/(3a-4)" fails
    at four small (a, m1) corners even though every integer n in those
    windows passes; such corners are reported in
    parameters["literal_side_inequality_failures"], not as counterexamples.
    """
    need_int(n, 2, "verify_lemma2_reduction")
    need_int(cex_cap, 0, "verify_lemma2_reduction", "cex_cap")
    at_most = _partition_counts(n)
    space = 0
    violations: list[dict] = []
    literal_notes: list[dict] = []
    # best[t]: the largest sum of C(c_j, 2) over columns c_j <= m1 summing to t
    best = [0] * (n + 1)

    for m1 in range(2, n + 1):
        (case,) = lemma2_reduction_cases(n, m1)
        s = n - m1 + 1

        # (i) positivity on the case partitions; lemma2_I reads mu only
        # through its rep dim, smallest at balanced_partition(n, m1).  That
        # premise is checked by columns: a mu of length m1 has a column of m1
        # and others of at most m1, and rep dim C(n,2) - sum C(c_j, 2).
        if m1 < n:
            space += at_most[m1] - at_most[m1 - 1]
            pair = m1 * (m1 - 1) // 2
            for t in range(m1, n + 1):
                best[t] = max(best[t], best[t - m1] + pair)
            low = balanced_partition(n, m1)
            alt = n * (n - 1) // 2 - pair - best[n - m1]
            if alt != low.rep_dim():
                violations.append(
                    {"branch": "i-alt", "m1": m1, "rep_dim": low.rep_dim(), "alternate": alt}
                )
            if lemma2_I(case.partition, low) <= 0:
                for mu in enumerate_partitions(n, max_length=m1):
                    margin = lemma2_I(case.partition, mu)
                    if mu.length == m1 and margin <= 0:
                        violations.append(
                            {
                                "branch": "i",
                                "case": list(case.partition.parts),
                                "mu": list(mu.parts),
                                "margin": margin,
                            }
                        )

        # (ii) counted: the candidates fill an s x (m1-1) box, the partitions
        # into at most s parts, less those of largest part >= m1 (all within
        # s parts), counted transposed.
        space += at_most[s] - (at_most[n] - at_most[m1 - 1])

        # (iii) window margin at the one a whose window holds n, when a >= 3;
        # fractions (denominators > 0) cross-multiplied
        a = case.a
        if a >= 3:
            left, left_den = a * m1 - (a + 1), a - 1
            space += 1
            needed, needed_den = (3 * a - 2) * (m1 - 1), 3 * a - 4
            if n * needed_den < needed:
                violations.append(
                    {
                        "branch": "iii",
                        "a": a,
                        "m1": m1,
                        "n": n,
                        "needed": _ratio(needed, needed_den),
                    }
                )
            if left * needed_den < needed * left_den:
                literal_notes.append(
                    {
                        "a": a,
                        "m1": m1,
                        "window_left": _ratio(left, left_den),
                        "needed": _ratio(needed, needed_den),
                    }
                )

    params = {"n": n, "literal_side_inequality_failures": literal_notes}
    return _finish("lemma2_reduction", params, space, violations, cex_cap)


# -- short orbits --------------------------------------------------------------


def verify_prop3(n: int, cex_cap: int = DEFAULT_CEX_CAP) -> VerificationReport:
    """Any two orbits of length at most n/2 have rep dims summing past
    n(n-1)/2, and each such orbit dominates the all-twos floor.

    Aggregated: every such orbit dominates balanced_partition(n, n // 2),
    which has the smallest rep dim among them, so when that one clears half
    the bound and dominates the floor, every pair and every orbit passes.
    The orbits are walked through _pair_sweep only when it does not; their
    number comes from _partition_counts.
    """
    need_int(n, 2, "verify_prop3")
    need_int(cex_cap, 0, "verify_prop3", "cex_cap")
    k = _partition_counts(n)[n // 2]
    floor = dominance_floor(n)
    bound = n * (n - 1) // 2
    low = balanced_partition(n, n // 2)
    violations: list[dict] = []
    if 2 * low.rep_dim() <= bound or not low.dominates(floor):
        lams = list(enumerate_partitions(n, max_length=n // 2))
        _, violations = _pair_sweep(lams, floor, bound, "orbit")
    return _finish("prop3", {"n": n, "orbits": k}, k * (k + 1) // 2 + k, violations, cex_cap)


# -- residual block bookkeeping -------------------------------------------------


def _check_blocks(caller: str, n: int, m1s: tuple[int, ...]) -> None:
    """n is an int >= 2, and every trivial block is an int in [1, n-1]."""
    need_int(n, 2, caller)
    for m in m1s:
        need_int(m, 1, caller, "block", n - 1)


def residual_bound(n: int, m1s: tuple[int, ...] | list[int]) -> int:
    """What remains of the first trivial block after paying n - m for each
    later block: sum(m) - (k-1)*n - 1.

    Computed by the step recursion r_1 = m_1 - 1, r_{j+1} = r_j - (n - m_{j+1})
    and cross-checked against the closed form.  May be negative.
    """
    m1s = need_tuple(m1s, "residual_bound", "blocks")
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
    m1s = need_tuple(m1s, "check_corollary1", "blocks")
    need_int(l, 2, "check_corollary1", "l")
    if len(m1s) != l:
        raise InvalidInputError(
            f"check_corollary1 needs one block per representation, got l={echo(l)} and "
            f"{len(m1s)} blocks"
        )
    _check_blocks("check_corollary1", n, m1s)
    return sum(m1s) >= n * (l - 1) + 2


def _block_sweep(
    n: int, k: int, budget: int, below: int
) -> tuple[int, int, list[tuple[int, ...]]]:
    """(space, feasible, short) over the nonincreasing k-tuples of blocks m in
    (n/2, n-1]: how many there are, C(|big| + k - 1, k); how many have costs
    m(n-m) summing to at most budget; and which of those sum below `below`.

    On that range the cost rises strictly as m falls, so the cheapest way to
    fill the slots left after a block is to repeat it: the blocks that can
    extend a prefix are those whose repetition fits, found by one bisect.
    The last slot is counted by one bisect, not walked, and as big[i] =
    n-1-i, its blocks that leave the sum below `below` are the suffix from
    index n + sum(prefix) - below: only those become tuples.  A walk past
    MAX_LEADING_BLOCKS leading blocks is refused with ResourceLimitError.
    """
    big = range(n - 1, n // 2, -1)
    cost = [m * (n - m) for m in big]
    feasible = 0
    short: list[tuple[int, ...]] = []
    stack = [((), 0, 0)]  # (leading blocks, first index, cost spent)
    while stack:
        prefix, start, spent = stack.pop()
        left = k - len(prefix)
        if left == 1:
            end = bisect.bisect_right(cost, budget - spent, start)
            feasible += end - start
            for i in range(max(start, n + sum(prefix) - below), end):
                short.append(prefix + (big[i],))
            continue
        if len(prefix) == MAX_LEADING_BLOCKS:
            raise ResourceLimitError(f"block search too deep: n={echo(n)}, {k} slots")
        for i in range(start, bisect.bisect_right(cost, (budget - spent) // left, start)):
            stack.append((prefix + (big[i],), i, spent + cost[i]))
    return math.comb(len(big) + k - 1, k), feasible, short


def verify_prop4(
    n: int, l: int, mode: str = "paper", cex_cap: int = DEFAULT_CEX_CAP
) -> VerificationReport:
    """Blocks obeying the dimension budget must be jointly large.

    Integer search: over l trivial blocks m with sum m(n-m) <= n(n-1)/2,
    check sum(m) >= n(l-1) + 2.  In "paper" mode every block ranges over
    (n/2, n-1], the regime the statement asserts; in "strict" mode the last
    block ranges over [1, n-1], which is *expected* to produce violations —
    the report then documents the exact gap (small last blocks).

    The search is _block_sweep: a pruned walk over the leading blocks in
    (n/2, n-1] that counts the last block's choices with one bisect and
    expands into tuples only those whose sum falls short.  Strict mode runs
    it once per last block m in [1, n-1], over the l-1 leading blocks with
    the budget and threshold reduced by m's share.  space_size counts the
    whole space in closed form: all l-tuples in paper mode, and all
    (l-1)-tuple heads times the n - 1 last blocks in strict mode.

    In paper mode the closed-form bound l*n/2 + sqrt((l^2-2l)n^2 + 2ln)/2
    >= (l-1)n + 2 is also checked, exactly: both sides square to integers,
    so no tolerance is needed (any float tolerance down to 0 is satisfied).
    It adds one case to space_size.
    """
    need_int(n, 4, "verify_prop4")
    need_int(l, 3, "verify_prop4", "l")
    need_int(cex_cap, 0, "verify_prop4", "cex_cap")
    if mode not in ("paper", "strict"):
        raise InvalidInputError(f"mode must be 'paper' or 'strict', got {echo(mode)}")
    budget = n * (n - 1) // 2
    threshold = n * (l - 1) + 2
    if mode == "paper":
        space, feasible, short = _block_sweep(n, l, budget, threshold)
    else:
        space = feasible = 0
        short = []
        for m in range(n - 1, 0, -1):
            s, f, heads = _block_sweep(n, l - 1, budget - m * (n - m), threshold - m)
            space += s
            feasible += f
            short += [head + (m,) for head in heads]
    violations = [
        {"blocks": list(tup), "block_sum": sum(tup), "required": threshold} for tup in short
    ]

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
    have residual_bound = sum(m) - (l-2)n - 1 >= n - q + 1.  The same
    _block_sweep as verify_prop4 counts the feasible (l-1)-tuples and returns
    those whose sum falls short, each reported through residual_bound;
    space_size counts all the (l-1)-tuples, feasible or not, in
    closed form.  The closed-form minimizer check is
    performed exactly when the minimizer lies within the block range
    (2(l-1)(n-1) <= n(q-1)); otherwise the feasible region is empty and the
    closed form is flagged vacuous rather than evaluated outside its domain.
    An evaluated closed form adds one case to space_size.
    """
    need_int(n, 4, "verify_prop5")
    if n % need_int(q, 1, "verify_prop5", "q") != 0 or n // q < 2:
        raise InvalidInputError(
            f"q must divide n with quotient >= 2, got n={echo(n)}, q={echo(q)}"
        )
    need_int(l, 3, "verify_prop5", "l")
    need_int(cex_cap, 0, "verify_prop5", "cex_cap")
    budget = n * (q - 1) // 2
    required = n - q + 1
    space, feasible, short = _block_sweep(n, l - 1, budget, required + (l - 2) * n + 1)
    violations = [
        {"blocks": list(tup), "residual_bound": residual_bound(n, tup), "required": required}
        for tup in short
    ]

    # closed form at the constrained minimizer m* = n/2 + sqrt(D)/(2(l-1)),
    # D = (l-1)^2 n^2 - 2n(l-1)(q-1): residual > n - q + 1 iff sqrt(D) > R.
    applicable = 2 * (l - 1) * (n - 1) <= n * (q - 1)
    closed: dict = {"applicable": applicable}
    if applicable:
        disc = (l - 1) * (l - 1) * n * n - 2 * n * (l - 1) * (q - 1)
        rhs = (l - 1) * n - 2 * (q - 2)
        holds = disc > rhs * rhs  # rhs >= n + 4 > 0, as q <= n/2 and l >= 3
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
    for name, value, low in (("n", n, None), ("p", p, 2), ("q", q, 1)):
        need_int(value, low, "verify_epsilon_orbit_claim", name)
    if p * q != n:
        raise InvalidInputError(f"need n == p*q, got n={echo(n)}, p={echo(p)}, q={echo(q)}")
    need_int(cex_cap, 0, "verify_epsilon_orbit_claim", "cex_cap")
    target = Partition.from_runs([(p, q)])
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


Verifier = namedtuple(
    "Verifier", "func params n_range help cases modes", defaults=(lambda n: ((n,),), ())
)
Verifier.__doc__ = """How `dimeq verify` calls one verify_* function (func), and what
`verify all` sweeps with it.

params are its integer arguments in call order, one --flag each; help is
the line `dimeq verify --help` shows for it; modes, when given, are the
choices of its mode argument, the first the default.  `verify all` calls
it, in the default mode, on every argument tuple of cases(n) for each n in
the inclusive n_range; cases defaults to the one tuple (n,).
"""


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
    need_int(cex_cap, 0, "verification_sweep", "cex_cap")
    lowest = min(v.n_range[0] for v in VERIFIERS.values())
    if max_n is not None:
        need_int(max_n, lowest, "verification_sweep", "max_n")
    reports: list[VerificationReport] = []
    for v in VERIFIERS.values():
        lo, hi = v.n_range
        for n in range(lo, (hi if max_n is None else min(hi, max_n)) + 1):
            reports.extend(v.func(*args, cex_cap=cex_cap) for args in v.cases(n))
    return reports


# -- the verdict engine ----------------------------------------------------------


class Vanishes(Record, fields=("by", "witness")):
    """The integral vanishes; `by` names the statement that forces it."""

    def __init__(self, by: str, witness: dict) -> None:
        d = self.__dict__
        d["by"], d["witness"] = by, witness


class EquationFails(Record, fields=("by", "equation_report")):
    """The dimension equation cannot hold for this shape of data."""

    def __init__(self, by: str, equation_report: EquationReport) -> None:
        d = self.__dict__
        d["by"], d["equation_report"] = by, equation_report


class NotApplicable(Record, fields=("reason",)):
    """The equation fails numerically and no covered pattern explains it."""

    def __init__(self, reason: str) -> None:
        self.__dict__["reason"] = reason


class NotConcluded(Record, fields=("reason",)):
    """The equation holds but no verified statement decides vanishing."""

    def __init__(self, reason: str) -> None:
        self.__dict__["reason"] = reason


Verdict = Vanishes | EquationFails | NotApplicable | NotConcluded


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
    if None not in tops:
        # Representation i leads with a one-dimensional constituent on a block
        # m_i, and its blocks b_j (at least two, weakly decreasing) are at
        # most m_i, so its dimension is at least sum_{j<k} b_j b_k =
        # (n^2 - sum_j b_j^2)/2 >= n(n - m_i)/2.  The equation then gives
        # sum_i (n - m_i) <= n - 1.  Equality needs every b_j = m_i, so
        # m_i <= n/2 and, as l >= 3, sum_i (n - m_i) >= 3n/2 > n - 1.  So
        # sum_i m_i >= n(l-1) + 2: Corollary 1 always holds here.
        total, threshold = sum(tops), n * (l - 1) + 2
        if not check_corollary1(n, l, tops):
            raise InternalError(f"the equation holds but leading blocks {echo(tops)} fail cor1")
        return Vanishes(
            by="cor1",
            witness={
                "top_trivial_blocks": tops,
                "block_sum": total,
                "required": threshold,
                "equation_report": report.to_json(),
            },
        )
    reason = "cor1: not every representation is induced with a one-dimensional leading constituent"

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
