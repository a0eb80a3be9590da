"""Exact Steiner distance indices for small graphs, with bound verification.

The package computes group-distance weighted indices (degree-product and
degree-sum weighted Steiner distance sums over all k-subsets), evaluates a
battery of closed-form bounds on them in exact rational arithmetic, and can
sweep every small graph up to isomorphism to confirm where the bounds hold
and where they are equalities.

Importing the package loads none of its layers: each exported name is
imported from its home module on first access (PEP 562), so a script that
only computes indices never loads the bound, sweep or family layers.
"""

from importlib import import_module as _import_module

# home module -> the names the package exports from it
_EXPORTS = {
    "bounds": (
        "BOUND_GROUPS BOUND_IDS BoundCheck EqualityWitness diagnose_equality equality_witness "
        "evaluate_bounds expand_bound_ids"
    ),
    "canon": "canonical_graph",
    "cli": "run_cli",
    "errors": (
        "ComplementDisconnected Disconnected EmptySet IndexOutOfRange InvalidFamilyOrder "
        "KOutOfRange LoopEdge MalformedHeader NoCaseApplies NonCanonicalPadding NotTight "
        "OrderTooLarge SteinerGutError TrailingGarbage"
    ),
    "exact": "Scalar SquareRoot decimal_str frac_str value_str",
    "families": (
        "FAMILIES FamilySpec FormulaAudit audit_for_order audit_formulas "
        "closed_form_complete_corrected closed_form_complete_printed closed_form_path_printed "
        "closed_form_star generate"
    ),
    "graph": (
        "MAX_ORDER Graph complement edge_mask from_adjacency from_edge_list from_edge_mask "
        "induced_connected is_connected is_k_connected is_regular iter_bits mask_of relabel"
    ),
    "graph6": "graph6_decode graph6_encode",
    "indices": (
        "OBJECTIVES IndexReport gutman index_report steiner_degree_distance steiner_gutman "
        "steiner_wiener"
    ),
    "steiner": (
        "INF DreyfusWagner SteinerTable pairwise_distances steiner_all_subsets steiner_oracle "
        "steiner_single"
    ),
    "verify": (
        "ENUMERATION_CAP LABELED_CAP EnumerationSpec ExtremalResult TightCase VerificationReport "
        "Violation enumerate_graphs find_extremal report_to_dict sweep"
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, imported from its home module on first access and kept here."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
