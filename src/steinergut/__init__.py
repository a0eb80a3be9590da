"""Exact Steiner distance indices for small graphs, with bound verification.

The package computes group-distance weighted indices (degree-product and
degree-sum weighted Steiner distance sums over all k-subsets), evaluates a
battery of closed-form bounds on them in exact rational arithmetic, and can
sweep every small graph up to isomorphism to confirm where the bounds hold
and where they are equalities.
"""

from .bounds import (
    BOUND_GROUPS,
    BOUND_IDS,
    BoundCheck,
    EqualityWitness,
    amgm_sum,
    cor41,
    diagnose_equality,
    equality_witness,
    evaluate_bounds,
    expand_bound_ids,
    lem22,
    prop21,
    ps_product,
    thm32,
)
from .canon import canonical_graph, canonical_key, canonical_key_and_perms
from .cli import run_cli
from .errors import (
    ComplementDisconnected,
    DegenerateDegrees,
    Disconnected,
    EmptySet,
    IndexOutOfRange,
    InvalidFamilyOrder,
    KOutOfRange,
    LoopEdge,
    MalformedHeader,
    NoCaseApplies,
    NonCanonicalPadding,
    NotTight,
    OrderTooLarge,
    SteinerGutError,
    TrailingGarbage,
)
from .exact import Scalar, SquareRoot, decimal_str, frac_str, value_str
from .families import (
    FAMILIES,
    FamilySpec,
    FormulaAudit,
    audit_for_order,
    audit_formulas,
    closed_form_complete_corrected,
    closed_form_complete_printed,
    closed_form_path_printed,
    closed_form_star,
    generate,
)
from .graph import (
    MAX_ORDER,
    DegreeProfile,
    Graph,
    complement,
    degree_profile,
    edge_mask,
    from_adjacency,
    from_edge_list,
    from_edge_mask,
    induced_connected,
    is_connected,
    is_k_connected,
    is_regular,
    iter_bits,
    mask_of,
    relabel,
)
from .graph6 import graph6_decode, graph6_encode
from .indices import (
    IndexReport,
    gutman,
    index_report,
    k_subset_masks,
    steiner_degree_distance,
    steiner_gutman,
    steiner_wiener,
)
from .steiner import (
    INF,
    DreyfusWagner,
    SteinerTable,
    pairwise_distances,
    steiner_all_subsets,
    steiner_oracle,
    steiner_single,
)
from .verify import (
    ENUMERATION_CAP,
    OBJECTIVES,
    CheckRow,
    EnumerationSpec,
    ExtremalResult,
    TightCase,
    VerificationReport,
    Violation,
    enumerate_graphs,
    find_extremal,
    report_to_dict,
    shard_graphs,
    sweep,
    write_checks_csv,
)

__version__ = "0.1.0"
