"""Independent checks of dimeq's verdicts, written without importing dimeq.

Dimensions come from closed forms on the descriptor JSON: the induced route
for Eisenstein data (constituent dimensions plus pairwise block products),
and run-length prefix sums for explicit orbits.  Orbits are kept as
run-length lists [(value, multiplicity), ...], so rank-length inputs cost
O(parts) to read and O(runs) to combine.

check_verdict accepts a verdict when the equation status allows it and,
for `vanishes`, when every inequality its witness cites holds on the
descriptors.  It does not look at reason strings or at which rule fired.
"""

from __future__ import annotations

import itertools

Runs = list[tuple[int, int]]


def parts_to_runs(parts: list[int]) -> Runs:
    runs: Runs = []
    for p in parts:
        if runs and runs[-1][0] == p:
            runs[-1] = (p, runs[-1][1] + 1)
        else:
            runs.append((p, 1))
    return runs


def add_runs(a: Runs, b: Runs) -> Runs:
    """Componentwise sum of two partitions, the shorter padded with zeros."""
    out: Runs = []

    def push(value: int, mult: int) -> None:
        if out and out[-1][0] == value:
            out[-1] = (value, out[-1][1] + mult)
        else:
            out.append((value, mult))

    i = j = 0
    left_a = a[0][1] if a else 0
    left_b = b[0][1] if b else 0
    while i < len(a) and j < len(b):
        step = min(left_a, left_b)
        push(a[i][0] + b[j][0], step)
        left_a -= step
        left_b -= step
        if left_a == 0:
            i += 1
            left_a = a[i][1] if i < len(a) else 0
        if left_b == 0:
            j += 1
            left_b = b[j][1] if j < len(b) else 0
    for rest, k, left in ((a, i, left_a), (b, j, left_b)):
        if k < len(rest):
            push(rest[k][0], left)
            for value, mult in rest[k + 1 :]:
                push(value, mult)
    return out


def orbit(rep: dict, rank: int) -> Runs:
    """Attached orbit of a descriptor of the given rank, as runs."""
    kind = rep["kind"]
    if kind == "generic":
        return [(rank, 1)]
    if kind == "trivial":
        return [(1, rank)]
    if kind == "speh":
        return [(rep["p"], rep["q"])]
    if kind == "orbit":
        return parts_to_runs(rep["parts"])
    if kind == "eisenstein":
        total: Runs = []
        for b, c in zip(rep["blocks"], rep["constituents"]):
            total = add_runs(total, orbit(c, b))
        return total
    raise ValueError(f"unknown kind {kind!r}")


def dim(rep: dict, rank: int) -> int:
    """Gelfand-Kirillov dimension in closed form."""
    kind = rep["kind"]
    if kind == "generic":
        return rank * (rank - 1) // 2
    if kind == "trivial":
        return 0
    if kind == "speh":
        p, q = rep["p"], rep["q"]
        return p * q * q * (p - 1) // 2
    if kind == "orbit":
        # n^2 - sum_i (2i-1) lam_i; a run of m parts v starting at index i0
        # contributes v * ((i0+m-1)^2 - (i0-1)^2).
        weighted = 0
        before = 0
        for value, mult in parts_to_runs(rep["parts"]):
            weighted += value * ((before + mult) ** 2 - before**2)
            before += mult
        return (rank * rank - weighted) // 2
    if kind == "eisenstein":
        blocks = rep["blocks"]
        return sum(dim(c, b) for b, c in zip(blocks, rep["constituents"])) + (
            rank * rank - sum(b * b for b in blocks)
        ) // 2
    raise ValueError(f"unknown kind {kind!r}")


def _is_trivial(runs: Runs) -> bool:
    return len(runs) == 1 and runs[0][0] == 1


def trivial_blocks(rep: dict) -> list[int]:
    """Sizes of an Eisenstein descriptor's blocks whose constituent is
    one-dimensional, in block order; empty for any other kind."""
    if rep["kind"] != "eisenstein":
        return []
    return [
        b
        for b, c in zip(rep["blocks"], rep["constituents"])
        if _is_trivial(orbit(c, b))
    ]


def top_block(rep: dict) -> int | None:
    """Leading block size when rep is Eisenstein with a trivial leading
    constituent, else None."""
    if rep["kind"] != "eisenstein":
        return None
    b, c = rep["blocks"][0], rep["constituents"][0]
    return b if _is_trivial(orbit(c, b)) else None


def equation(spec: dict) -> dict:
    n = spec["n"]
    lhs = sum(dim(r, n) for r in spec["representations"])
    rhs = n * (n - 1) // 2
    return {"lhs": lhs, "rhs": rhs, "holds": lhs == rhs, "slack": lhs - rhs}


def _assignable(demands: list, l: int) -> bool:
    """True when the predicates in demands hold on distinct representation
    indices out of range(l).  Witnesses may cite representations in any
    order; l is small, so brute force over the assignments."""
    return any(
        all(d(i) for d, i in zip(demands, perm))
        for perm in itertools.permutations(range(l), len(demands))
    )


def _check_witness(spec: dict, w: dict) -> str | None:
    n = spec["n"]
    reps = spec["representations"]
    l = len(reps)
    tops = [top_block(r) for r in reps]
    checked = 0

    if "top_trivial_block" in w:
        i = w.get("representation_index")
        if l != 2 or not isinstance(i, int) or not 0 <= i < l:
            return "top_trivial_block witness needs l == 2 and a valid index"
        if tops[i] is None or tops[i] != w["top_trivial_block"]:
            return f"representation {i} has no leading trivial block {w['top_trivial_block']}"
        checked += 1

    # Block-sum witnesses: the cited trivial blocks belong to distinct
    # representations, and their sum reaches n(l-1) + 2.
    cited: list[int] | None = None
    if "top_trivial_blocks" in w:
        cited = w["top_trivial_blocks"]
        if None in tops or sorted(cited) != sorted(tops):
            return f"cited leading blocks {cited} are not the leading trivial blocks {tops}"
    if "distinguished_block" in w:
        lead, mj = w.get("leading_blocks", []), w["distinguished_block"]
        if len(lead) != l - 1 or not all(2 * m > n for m in lead + [mj]):
            return "distinguished-block witness needs l-1 leading blocks, all above n/2"
        demands = [lambda i, m=m: tops[i] == m for m in lead]
        demands.append(lambda i: mj in trivial_blocks(reps[i]))
        if not _assignable(demands, l):
            return f"blocks {lead} + [{mj}] are not trivial blocks of distinct representations"
        cited = lead + [mj]
    if "block_sum" in w:
        if cited is None or w["block_sum"] != sum(cited):
            return "block_sum is not the sum of cited trivial blocks"
        if w.get("required") != n * (l - 1) + 2:
            return f"required {w.get('required')} != n(l-1)+2 = {n * (l - 1) + 2}"
        if w["block_sum"] < w["required"]:
            return f"block_sum {w['block_sum']} < required {w['required']}"
        checked += 1

    if "residual_bound" in w:
        lead, rect = w.get("leading_blocks", []), w.get("rectangle")
        if len(lead) != l - 1 or not all(2 * m > n for m in lead) or not rect:
            return "residual witness needs l-1 leading blocks above n/2 and a rectangle"
        p, q = rect
        demands = [lambda i, m=m: tops[i] == m for m in lead]
        demands.append(lambda i: orbit(reps[i], n) == [(p, q)])
        if not _assignable(demands, l):
            return f"blocks {lead} and rectangle {rect} do not match distinct representations"
        rb = sum(lead) - (len(lead) - 1) * n - 1
        if w["residual_bound"] != rb:
            return f"residual_bound {w['residual_bound']} != {rb}"
        if w.get("required") != n - q + 1 or rb < n - q + 1:
            return f"residual_bound {rb} below required n-q+1 = {n - q + 1}"
        checked += 1

    if not checked:
        return f"no recognised inequality in witness {sorted(w)}"
    return None


def check_verdict(spec: dict, verdict: dict) -> str | None:
    """None when the verdict is consistent with the spec, else the reason."""
    eq = equation(spec)
    kind = verdict.get("verdict")
    report = verdict.get("equation_report")
    if kind == "vanishes":
        report = verdict.get("witness", {}).get("equation_report", report)
    if report is not None and report != eq:
        return f"equation report {report} != {eq}"
    if kind in ("equation_fails", "not_applicable"):
        return None if not eq["holds"] else f"{kind} but the equation holds"
    if kind == "not_concluded":
        return None if eq["holds"] else "not_concluded but the equation fails"
    if kind == "vanishes":
        if not eq["holds"]:
            return "vanishes but the equation fails"
        return _check_witness(spec, verdict.get("witness", {}))
    return f"unknown verdict {kind!r}"
