"""Strongly regular multicirculants: constructions, 3-isoregularity checks,
integer parameter certificates, and exhaustive symbol searches."""

from .graphs import (
    Graph,
    cartesian_product,
    complement,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    line_graph,
    path_graph,
)
from .symbols import (
    BicirculantSymbol,
    Symbol,
    TricirculantSymbol,
    bicirculant,
    circulant,
    parse_symbol,
    symbol_graph,
    tricirculant,
)
from .named import gq22_vertex, gq22_voltage, named_graph, named_tags, paley, triangular
from .isomorphism import invariant_fingerprint, is_isomorphic
from .formats import Graph6Error, decode_graph6, encode_graph6, to_dot
from .srg import (
    SrgParams,
    complement_params,
    eigenvalues,
    hoffman_bound,
    is_nontrivial_srg,
    srg_params,
    subconstituent,
)
from .isoregularity import (
    DPartition,
    EdgeLocalParams,
    IsoProfile,
    IsoType,
    NonEdgeLocalParams,
    d_partition,
    d_partition_expected_sizes,
    edge_iso_params,
    is_k_isoregular,
    is_locally_3isoregular,
    is_locally_3isoregular_at,
    iso_profile,
    iso_type,
    nonedge_iso_params,
    subconstituent_characterization,
    subset_valency,
    t_vertex_condition,
)
from .paramtheory import (
    Certificate,
    LocalParamSolution,
    bicirc_odd_family,
    certify_bicirc_odd,
    certify_family_b,
    certify_family_c,
    certify_range,
    certify_tri_family1,
    certify_tri_family2,
    claim_holds,
    edge_relations_check,
    even_m_candidates,
    feasible_edge_params,
    feasible_local_params,
    leung_ma_families,
    nonedge_relations_check,
    replay_certificate,
    tricirc_families,
)
from .search import (
    OddRunResult,
    SearchCapError,
    SearchResult,
    SearchSpec,
    confirm_nonexistence_bicirc_odd,
    search_bicirculant,
    search_tricirculant_srg,
    symmetric_subsets,
)

__version__ = "0.1.0"
