"""Seeded inputs for the benchmark's workloads.

Nothing here imports dimeq: the program under test only ever sees the
generated inputs.  The same seed gives the same inputs.  Each generator
returns a list of operations, each a JSON-serialisable list whose first
item is a stable key for the operation.

Draws are stratified so that the amount of work in a pass hardly depends on
the seed, which moves orders, samples, output formats and small jitters.
"""

from __future__ import annotations

import itertools
import random

import oracle

WORKLOADS = ("verify_sweep", "vanish_census", "vanish_large", "solve_scan")

# -- verify_sweep ----------------------------------------------------------------


def verify_grid() -> list[list]:
    """The 602 verifier calls of `dimeq verify all`, in its order.

    Frozen here on purpose: when the CLI's ranges grow, this workload does
    not.  Each entry is [function name, keyword arguments].
    """
    grid: list[list] = []
    for n in range(2, 26):
        grid.append(["verify_lemma2", {"n": n}])
    for n in range(2, 17):
        grid.append(["verify_lemma2_reduction", {"n": n}])
    for n in range(2, 61):
        grid.append(["verify_lemma1", {"n": n}])
    for n in range(4, 17):
        grid.append(["verify_prop3", {"n": n}])
    for n in range(4, 41):
        for l in range(3, 7):
            grid.append(["verify_prop4", {"n": n, "l": l, "mode": "paper"}])
    for n in range(4, 41):
        for q in range(2, n // 2 + 1):
            if n % q == 0:
                for l in range(3, 7):
                    grid.append(["verify_prop5", {"n": n, "q": q, "l": l}])
    for n in range(2, 15):
        for p in range(2, n + 1):
            if n % p == 0:
                grid.append(["verify_epsilon_orbit_claim", {"n": n, "p": p, "q": n // p}])
    return grid


def verify_sweep(seed: int) -> list[list]:
    """[canonical index, function, kwargs] for the whole grid, order permuted."""
    ops = [[i, f, kw] for i, (f, kw) in enumerate(verify_grid())]
    random.Random(seed).shuffle(ops)
    return ops


# -- solve_scan ------------------------------------------------------------------

SOLVE_N = range(16, 29)
SOLVE_L = range(2, 6)
SOLVE_FLAGS = ((), ("--exclude-trivial",), ("--max-one-dominant",),
               ("--exclude-trivial", "--max-one-dominant"))
SOLVE_FORMATS = ("json", "csv")
SOLVE_BOUNDS = ["--max-n", str(max(SOLVE_N)), "--max-l", str(max(SOLVE_L))]


def solve_argv(n: int, l: int, flags: tuple, fmt: str) -> list[str]:
    return ["equation", "solve", "--n", str(n), "--l", str(l), *flags,
            "--format", fmt, *SOLVE_BOUNDS]


def solve_grid() -> list[list[str]]:
    """Every argv the workload can draw: the finite grid the recorder covers."""
    return [solve_argv(n, l, flags, fmt) for n in SOLVE_N for l in SOLVE_L
            for flags in SOLVE_FLAGS for fmt in SOLVE_FORMATS]


def solve_scan(seed: int) -> list[list]:
    """[key, argv]: every (n, l, flags) once, with a seeded format and order.

    Search time grows steeply with n and l, and the flags change it by up to
    3x (--exclude-trivial drops most solutions), so the whole grid runs in
    every pass; a free draw of n, l and flags would swing the pass time by
    more than the bounds the benchmark enforces.  The seed draws the order,
    and which of the two settings with trivial orbits, and which of the two
    without, print csv rather than json: csv output is a third larger, and
    the largest output sets the pass's peak memory.
    """
    rng = random.Random(seed)
    ops = []
    for n in SOLVE_N:
        for l in SOLVE_L:
            formats = rng.sample(SOLVE_FORMATS, 2) + rng.sample(SOLVE_FORMATS, 2)
            # SOLVE_FLAGS alternates settings without and with --exclude-trivial.
            for flags, fmt in zip(SOLVE_FLAGS, (formats[0], formats[2], formats[1], formats[3])):
                argv = solve_argv(n, l, flags, fmt)
                ops.append([" ".join(argv), argv])
    rng.shuffle(ops)
    return ops


# -- vanish_census -----------------------------------------------------------------

CENSUS_N = range(4, 17)
CENSUS_OPS = 20000
CENSUS_RANDOM_SHARE = 0.9  # of the sampled operations; see census_multisets

GENERIC = {"kind": "generic"}
TRIVIAL = {"kind": "trivial"}


def _speh(p: int, q: int) -> dict:
    return {"kind": "speh", "p": p, "q": q}


def _rectangles(n: int) -> list[dict]:
    """Speh(p, q) with p, q >= 2 and p*q == n."""
    return [_speh(p, n // p) for p in range(2, n) if n % p == 0]


def _constituents(b: int) -> list[dict]:
    """Constituents of rank b: trivial, generic or Speh."""
    return [TRIVIAL] + ([GENERIC] + _rectangles(b) if b > 1 else [])


def _block_shapes(n: int, k: int) -> list[tuple[int, ...]]:
    """Weakly decreasing k-tuples of positive integers summing to n."""
    def rec(left: int, cap: int, slots: int):
        if slots == 1:
            if 1 <= left <= cap:
                yield (left,)
            return
        for first in range(min(cap, left - slots + 1), 0, -1):
            for rest in rec(left - first, first, slots - 1):
                yield (first,) + rest
    return list(rec(n, n, k))


def _random_orbit(rng: random.Random, n: int) -> dict:
    """A partition of n other than (n) and (1^n), by random cuts."""
    while True:
        cuts = sorted(rng.sample(range(1, n), rng.randint(1, min(4, n - 1))))
        runs = [b - a for a, b in zip([0] + cuts, cuts + [n])]
        parts = sorted(runs, reverse=True)
        if parts[0] > 1:
            return {"kind": "orbit", "parts": parts}


def census_alphabet(rng: random.Random, n: int) -> list[dict]:
    """Top-level descriptors of rank n."""
    out = [GENERIC] + _rectangles(n)
    for orbit in (_random_orbit(rng, n) for _ in range(4)):
        if orbit not in out:
            out.append(orbit)
    for k in (2, 3):
        for blocks in _block_shapes(n, k):
            for cons in itertools.product(*(_constituents(b) for b in blocks)):
                out.append({"kind": "eisenstein", "blocks": list(blocks),
                            "constituents": list(cons)})
    return out


def census_multisets(seed: int) -> list[list[dict]]:
    """Multisets of descriptors, each as the list of its distinct orderings
    (specs), until the orderings add up to about CENSUS_OPS.

    Multisets on which the equation holds are rare in this grammar (about
    400 of them, 1.4k orderings), so they are all taken: every pair that
    meets the budget, and for l in 3..4 every choice of l-1 Eisensteins with
    a trivial leading block above n/2 plus a last descriptor that meets it.
    These are the shapes the prop1/cor1/prop4/prop5 rules look for.  The
    rest is sampled: CENSUS_RANDOM_SHARE of it multisets of l in 2..4
    descriptors drawn at random (the equation mostly fails), the remainder
    pairs of an Eisenstein with a rectangular leading constituent and a
    Speh (the prop3 shape).
    """
    rng = random.Random(seed)
    alpha = {n: census_alphabet(rng, n) for n in CENSUS_N}
    dims = {n: [oracle.dim(d, n) for d in descs] for n, descs in alpha.items()}
    by_dim: dict[int, dict[int, list[int]]] = {n: {} for n in CENSUS_N}
    for n in CENSUS_N:
        for i, d in enumerate(dims[n]):
            by_dim[n].setdefault(d, []).append(i)

    def completions(n: int, chosen: tuple[int, ...]) -> list[int]:
        return by_dim[n].get(n * (n - 1) // 2 - sum(dims[n][i] for i in chosen), [])

    def rect_head(d: dict) -> bool:
        if d["kind"] != "eisenstein":
            return False
        runs = oracle.orbit(d["constituents"][0], d["blocks"][0])
        return len(runs) == 1 and runs[0][0] >= 2

    multisets: list[list[dict]] = []
    seen: set = set()

    def add(n: int, idxs) -> int:
        key = (n, tuple(sorted(idxs)))
        if key in seen:
            return 0
        seen.add(key)
        orders = sorted(set(itertools.permutations(key[1])))
        multisets.append([{"n": n, "representations": [alpha[n][i] for i in order]}
                          for order in orders])
        return len(orders)

    emitted = 0
    for n in CENSUS_N:
        for i in range(len(alpha[n])):
            for j in completions(n, (i,)):
                emitted += add(n, (i, j))
        tops = [i for i, d in enumerate(alpha[n]) if (oracle.top_block(d) or 0) * 2 > n]
        for l in (3, 4):
            for head in itertools.combinations_with_replacement(tops, l - 1):
                for last in completions(n, head):
                    emitted += add(n, head + (last,))

    heads = {n: [i for i, d in enumerate(alpha[n]) if rect_head(d)] for n in CENSUS_N}
    rects = {n: [i for i, d in enumerate(alpha[n]) if d["kind"] == "speh"] for n in CENSUS_N}
    random_until = emitted + round((CENSUS_OPS - emitted) * CENSUS_RANDOM_SHARE)
    while emitted < CENSUS_OPS:
        n = rng.choice(CENSUS_N)
        if emitted < random_until:
            size = len(alpha[n])
            emitted += add(n, [rng.randrange(size) for _ in range(rng.randint(2, 4))])
        elif heads[n] and rects[n]:
            emitted += add(n, [rng.choice(heads[n]), rng.choice(rects[n])])
    return multisets


def vanish_census(seed: int) -> list[list]:
    """[multiset id, spec JSON] for every ordering of every sampled multiset."""
    return [[mid, spec] for mid, orders in enumerate(census_multisets(seed))
            for spec in orders]


# -- vanish_large ------------------------------------------------------------------

LARGE_RANKS = tuple(round(25_000 * 2 ** (k / 2)) for k in range(5))  # 2.5e4 .. 1e5
LARGE_JITTER = 0.02


def _eis_trivial(blocks: list[int]) -> dict:
    return {"kind": "eisenstein", "blocks": blocks, "constituents": [TRIVIAL] * len(blocks)}


def vanish_large(seed: int) -> list[list]:
    """[key, spec JSON]: one spec per family at each nominal rank.

    The seed moves each rank by at most LARGE_JITTER and shuffles the
    order.  Families, one per verdict the engine gives at this size:
      lemma1         generic + Speh(2, n/2): two rectangles, equation fails.
      cor1           three (n-1, 1) trivial Eisensteins: the equation fails
                     for n > 6, so not_applicable.
      prop5          n = 4a^2, two (n-a, a) trivial Eisensteins + Speh(a, 4a):
                     the equation holds and the residual bound is met.
      orbit          explicit orbits (2, 1^(n-2)) and a three-part orbit that
                     meets the budget: a rank-length parts list, not_concluded.
    """
    rng = random.Random(seed)

    def near(rank: float, jitter: float = LARGE_JITTER) -> int:
        return round(rank * (1 + rng.uniform(-jitter, jitter)))

    ops = []
    for rank in LARGE_RANKS:
        n = near(rank) // 2 * 2
        ops.append([f"lemma1 n={n}", {"n": n, "representations": [GENERIC, _speh(2, n // 2)]}])
        n = near(rank)
        ops.append([f"cor1 n={n}", {"n": n, "representations": [_eis_trivial([n - 1, 1])] * 3}])
        a = near((rank / 4) ** 0.5, LARGE_JITTER / 2)  # n grows as a^2
        n = 4 * a * a
        e = _eis_trivial([n - a, a])
        ops.append([f"prop5 n={n}", {"n": n, "representations": [e, e, _speh(a, 4 * a)]}])
        n = near(rank)
        n += n % 3 == 0
        # (2, 1^(n-2)) has dimension n-1; (k+1, k, k) or (k+1, k+1, k) has the
        # rest of n(n-1)/2, since a partition's dimension is the budget minus
        # sum (i-1) lam_i, and that sum is n-1 for these.
        k = n // 3
        third = [k + 1, k, k] if n % 3 == 1 else [k + 1, k + 1, k]
        ops.append([f"orbit n={n}", {"n": n, "representations": [
            {"kind": "orbit", "parts": [2] + [1] * (n - 2)},
            {"kind": "orbit", "parts": third}]}])
    rng.shuffle(ops)
    return ops
