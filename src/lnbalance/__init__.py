"""Balance measurement and collaborative rebalancing for payment channel networks."""

__version__ = "0.1.0"

from .cycles import Strategy, enumerate_cycles, foaf_node_set
from .evaluation import (
    EvaluationReport,
    RouteCache,
    cheapest_path,
    evaluate_network,
    gini_distribution,
    ks_distance,
)
from .ingestion import (
    SnapshotRecord,
    allocate_funds_coinflip,
    generate_synthetic,
    largest_scc,
    load_snapshot,
    load_state,
    write_snapshot,
    write_state,
)
from .model import (
    Channel,
    NetworkGraph,
    RebalanceCycle,
    apply_circular_payment,
    network_imbalance,
    node_gini,
)
from .rebalancer import (
    FeeLedger,
    SimulationConfig,
    SimulationResult,
    attempt_rebalance,
    candidate_channels,
    check_sink_condition,
    desired_amount,
    max_agreeable_amount,
    record_fees,
    run_simulation,
)

__all__ = [
    "Channel",
    "EvaluationReport",
    "FeeLedger",
    "NetworkGraph",
    "RebalanceCycle",
    "RouteCache",
    "SimulationConfig",
    "SimulationResult",
    "SnapshotRecord",
    "Strategy",
    "allocate_funds_coinflip",
    "apply_circular_payment",
    "attempt_rebalance",
    "candidate_channels",
    "cheapest_path",
    "check_sink_condition",
    "desired_amount",
    "enumerate_cycles",
    "evaluate_network",
    "foaf_node_set",
    "generate_synthetic",
    "gini_distribution",
    "ks_distance",
    "largest_scc",
    "load_snapshot",
    "load_state",
    "max_agreeable_amount",
    "network_imbalance",
    "node_gini",
    "record_fees",
    "run_simulation",
    "write_snapshot",
    "write_state",
]
