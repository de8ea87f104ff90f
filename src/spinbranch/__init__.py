"""Exact combinatorics of modular branching: signature sequences, crystal
operators on p-strict partitions, and raising-coefficient algebra."""

from types import ModuleType as _ModuleType

from .core import DeltaFunction, SignedSet, Weight, check_characteristic, res_p
from .crystal import (
    CrystalGraph,
    PStrictPartition,
    beta_signature,
    branching_tables,
    cont_p,
    crystal_graph,
    e_tilde,
    f_tilde,
    rim_signature,
    spin_stats,
)
from .indices import (
    Certificate,
    ConstructionPlan,
    IndexClassification,
    classify_indices,
    extension_plan,
    index_report,
    non_normal_certificate,
    primitive_plan,
)
from .poly import Polynomial, exact_div, f_poly, g1, g2, lin_reduce, sigma_apply, u_poly
from .raising import (
    U0Element,
    bracket_hom,
    eval_at_weight,
    raising_closed,
    raising_rec,
    u0_b,
    u0_c,
    u0_h,
    u0_h_eps,
    u0_hbar,
)
from .sigseq import (
    Flow,
    build_full_flow,
    flow_analyze,
    lead_plus_index,
    partial_flow,
    product_of,
    r_beta,
    reduce_seq,
    resolution_of,
    section_of,
    split_index,
)


def clear_caches() -> None:
    """Empty the four bounded memos: r_beta's words with the residue
    reductions kept beside them, the f family (f, g1 and g2 share one,
    keyed by D within (i..j) and S's steps), the closed forms' g brackets
    keyed by g's parameters, and the raising recursion; and poly's bounded
    table of monomials, through which the raising memo shares its ints."""
    from . import poly, raising, sigseq

    for memo in (sigseq._words, poly._f_cached, raising._g_bracket, raising._rec):
        memo.cache_clear()
    poly._MONOMIALS.clear()


# the names imported above, less the submodules that importing them binds
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
__version__ = "0.1.0"
