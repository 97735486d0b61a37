"""Exact partition/orbit-dimension calculus for global integrals on GL_n.

Partitions label unipotent orbits; representation descriptors carry attached
orbits; the dimension equation books their sizes against n(n-1)/2.  The
theorems module verifies the supporting statements exhaustively at desk
scale, and the verdict engine applies them to concrete integral data.
"""

from types import ModuleType as _ModuleType

from .equation import (
    DEFAULT_MAX_L,
    DEFAULT_MAX_N,
    EquationReport,
    check_dim_equation,
    check_dim_equation_full,
    enumerate_orbit_solutions,
    reduce_to_whittaker_form,
)
from .errors import InternalError, InvalidInputError, ResourceLimitError
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
    ExplicitOrbit,
    Generic,
    IntegralSpec,
    RepDescriptor,
    Speh,
    TrivialConstituent,
    attached_orbit,
    dim_rep,
    is_speh_type,
    minimal_eisenstein,
    rank,
    rep_from_json,
    rep_to_json,
    spec_from_json,
    spec_to_json,
    top_trivial_block,
)
from .theorems import (
    DEFAULT_CEX_CAP,
    EquationFails,
    Lemma2Case,
    NotApplicable,
    NotConcluded,
    Vanishes,
    Verdict,
    VerificationReport,
    check_corollary1,
    lemma2_I,
    lemma2_reduction_cases,
    residual_bound,
    vanishing_verdict,
    verdict_to_json,
    verify_epsilon_orbit_claim,
    verify_lemma1,
    verify_lemma2,
    verify_lemma2_reduction,
    verify_prop3,
    verify_prop4,
    verify_prop5,
)

__version__ = "0.1.0"

# The public names are the ones imported above: every global except the
# underscored ones and the submodules that those imports bind.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
