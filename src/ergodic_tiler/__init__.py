"""Finite-model laboratory for weighted graph tiling experiments."""

from .errors import (
    BadDenominator,
    BadMagnification,
    BadModel,
    CrossComponent,
    DisconnectedClass,
    EmptySet,
    ErgodicTilerError,
    InsufficientCapacity,
    InvariantBreach,
    MalformedFlow,
    MalformedGraph,
    NotCoherent,
    NotClosed,
    NotDisjoint,
    StallDiagnostic,
    TooLargeForExact,
)
from .graph import (
    Cocycle,
    RhoMeasure,
    WeightedGraph,
    build_graph,
    is_connected_set,
    quotient,
    read_graph_file,
    rho_order_key,
    rho_sorted,
    write_graph_file,
)
from .partition import CoherentLimit, EquivRel, Prepartition, coherent_limit
from .averages import VertexFunction, mean_over
from .flows import (
    BalanceReport,
    RhoFlow,
    balance_check,
    define_flow,
    disbalance_report,
    global_balance,
    read_flow_file,
    sum_flows,
    validate_flow,
    write_flow_file,
)
from .packing import (
    CellFamily,
    CentralFamily,
    ConnectedFamily,
    PackCertificate,
    SearchBudget,
    audit_packed,
    audit_saturated,
    family_S_membership,
    find_pack,
    is_p_pack,
    packed,
    packed_and_saturated,
    saturate,
)
from .visibility import (
    Block,
    block,
    block_decomposition,
    cone,
)
from .cuts import (
    CutReport,
    edge_measure_from_maps,
    edge_price,
    is_K_finitizing_edge_cut,
    is_K_finitizing_vertex_cut,
    limsup_mass,
    uniform_edge_measure,
    vanishing_sequence,
    vertex_price,
)
from .models import ModelBundle, ModelSpec, generate_model
from .tiling import (
    TilingState,
    cutting_one_side_delta,
    linf_reduction,
    ratio_experiment,
    run_tiling,
    schedule_constants,
)
from .reports import ConvergenceReport, StageRow, emit_report, parse_report_csv

__version__ = "0.1.0"
