"""
The dimension equation and its solution space
==============================================

A tuple of representations on GL_n can only pair into a nonvanishing
unipotent integral if the representation dimensions sum to n(n-1)/2 --
the reduced budget -- or n^2 - 1 before reduction.  This script checks
specs against both forms and enumerates which orbit combinations could
ever balance the books.
"""

from dimeq import (
    Generic,
    IntegralSpec,
    ResourceLimitError,
    Speh,
    check_dim_equation,
    check_dim_equation_full,
    enumerate_orbit_solutions,
    minimal_eisenstein,
    reduce_to_whittaker_form,
)

# a generic representation alone saturates the reduced budget
spec = IntegralSpec(6, (Generic(6),))
r = check_dim_equation(spec)
print(f"single generic on GL_6: {r.lhs} == {r.rhs} -> holds={r.holds}")

# two Speh blocks overflow it (this failure pattern is certified exhaustively
# by verify_lemma1; see demo 04)
pair = IntegralSpec(4, (Speh(2, 2), Speh(2, 2)))
r = check_dim_equation(pair)
print(f"Speh(2,2) twice on GL_4: {r.lhs} != {r.rhs}, slack {r.slack}")

# the full (unreduced) form wants n^2 - 1 across at least three factors
triple = IntegralSpec(3, (Generic(3), Generic(3), minimal_eisenstein(3)))
r = check_dim_equation_full(triple)
print(f"full form on GL_3: {r.lhs} == {r.rhs} -> holds={r.holds}")

# the reduction bookkeeping: generic dim == target, minimal dim == n-1
for n in (2, 6, 10, 45):
    generic, minimal, target = reduce_to_whittaker_form(n)
    print(f"n={n:3}: generic {generic}, minimal {minimal}, target {target}")

# which orbit multisets could balance the reduced budget at all?
for n in (3, 4, 5, 6):
    sols = enumerate_orbit_solutions(n, 2)
    pretty = ["{" + ", ".join(str(p) for p in s) + "}" for s in sols]
    print(f"n={n}, l=2:", pretty or "none")

# dropping the zero orbit removes the degenerate pairings
print("n=4 nontrivial only:",
      [[str(p) for p in s] for s in enumerate_orbit_solutions(4, 2, exclude_trivial=True)])

# the search refuses to run unbounded; raise the ceiling explicitly if you
# mean it (the CLI exposes the same knobs as --max-n / --max-l)
try:
    enumerate_orbit_solutions(13, 2)
except ResourceLimitError as exc:
    print("refused:", exc)
sols = enumerate_orbit_solutions(13, 2, max_n=13)
print(f"n=13 with the gate opened: {len(sols)} solutions")
