"""semforge: super edge-magic labelings of graphs of equal order and size.

Construction of certified labeled families, verification of the
consecutive-sum certificate, arc-selected digraph products, and pruned
exhaustive search with cross-checkable non-existence certificates.
"""

from .errors import (
    BadAssignment,
    BadParam,
    NoSuchOrientation,
    NotSem,
    ResourceLimit,
    SemforgeError,
    VerificationFailed,
)
from .families import (
    FAMILIES,
    CertifiedLabeledGraph,
    build_deer,
    build_mixed_loop_stars,
    build_odd_copies_lk1n,
    build_two_lk11_lk1n,
    build_two_lk1m_lk1n,
    caterpillar_graph,
    cycle_graph,
    loop_graph,
    odd_cycle_labeling,
    star_with_loop,
)
from .graphs import (
    AdjacencyMatrix,
    Digraph,
    Graph,
    adjacency_matrix,
    canonical_form,
    corona,
    disjoint_union,
    format_digraph,
    format_graph,
    indegree_one_orientation,
    isomorphic,
    parse_digraph,
    parse_graph,
    parse_graph_or_digraph,
    relabel_digraph,
    underlying,
    union_offsets,
)
from .labelings import (
    CounterdiagonalProfile,
    FullLabeling,
    SumWindow,
    VertexLabeling,
    certificate_json,
    complement,
    complete_to_edge_magic,
    counterdiagonal_profile,
    identity_labeling,
    induced_sums,
    is_sem,
    labeling_from_json,
    labeling_json,
    rotate_pi,
    verify_edge_magic,
)
from .product import (
    LabeledFamily,
    canonical_product_labeling,
    constant_assignment,
    corona_union_via_product,
    corona_iso_check,
    kronecker,
    lift_to_product,
    load_family,
    otimes_h,
    parse_assignment,
    save_family,
)
from .search import (
    ResourceBudget,
    SearchReport,
    census_equal_order_size,
    certify_not_sem,
    enumerate_snk,
    exhaustive_sem_search,
    explore_even_copies,
    find_sem,
    report_json,
)

__version__ = "0.1.0"
