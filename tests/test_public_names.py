"""The package's public names, pinned: a name the toolkit does not use (a
graph constructor only the tests call, say) belongs in tests/conftest.py, so
adding one to the package, or removing one, is a deliberate edit here."""

import types

import isoreg
from isoreg import Graph

PUBLIC_NAMES = [
    "BicirculantSymbol", "Certificate", "DPartition", "EdgeLocalParams", "Graph", "Graph6Error",
    "IsoProfile", "IsoType", "LocalParamSolution", "NonEdgeLocalParams", "OddRunResult",
    "SearchCapError", "SearchResult", "SearchSpec", "SrgParams", "Symbol", "TricirculantSymbol",
    "bicirc_odd_family", "bicirculant", "certify_bicirc_odd", "certify_family_b",
    "certify_family_c", "certify_range", "certify_tri_family1", "certify_tri_family2",
    "circulant", "claim_holds", "complement", "complement_params", "complete_graph",
    "confirm_nonexistence_bicirc_odd", "d_partition", "d_partition_expected_sizes",
    "decode_graph6", "edge_iso_params", "edge_relations_check", "eigenvalues", "encode_graph6",
    "even_m_candidates", "feasible_edge_params", "feasible_local_params", "gq22_vertex",
    "gq22_voltage", "hoffman_bound", "invariant_fingerprint", "is_isomorphic", "is_k_isoregular",
    "is_locally_3isoregular", "is_locally_3isoregular_at", "iso_profile", "iso_type",
    "leung_ma_families", "line_graph", "named_graph", "named_tags", "nonedge_iso_params",
    "nonedge_relations_check", "paley", "parse_symbol", "replay_certificate",
    "search_bicirculant", "search_tricirculant_srg", "srg_params", "subconstituent",
    "subconstituent_characterization", "subset_valency", "symbol_graph", "t_vertex_condition",
    "to_dot", "triangular", "tricirc_families", "tricirculant",
]

GRAPH_METHODS = [
    "adjacent", "degree", "edge_count", "edges", "from_edges", "induced", "is_regular", "n",
    "neighbors", "row", "rows",
]


def test_public_names_are_pinned():
    # Submodules are attributes too, once imported, and which ones are
    # depends on what ran before; they are not names the package exports.
    names = sorted(
        name for name, value in vars(isoreg).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def test_graph_methods_are_pinned():
    assert sorted(name for name in vars(Graph) if not name.startswith("_")) == GRAPH_METHODS
