"""Maximum-bandwidth node-disjoint path pairs in capacitated networks."""

from .bench import BenchmarkReport, RunConfig, run_benchmark, write_plot_data, write_report_csv
from .exact import (
    DEFAULT_PATH_CAP,
    EnumerationCapError,
    IlpModel,
    build_ilp,
    delta,
    enumerate_simple_paths,
    export_ilp,
    optimal_pair_bruteforce,
    pair_to_assignment,
)
from .graph import (
    Graph,
    PathPair,
    SplitMix64,
    TopologyError,
    assign_random_bandwidths,
    bottleneck,
    generate_random_graph,
    parse_topology,
    serialize_topology,
    validate_pair,
    validate_path,
)
from .mba import mba_pair
from .mlbdp import (
    DisjointResult,
    VNodeTable,
    mlbdp_full,
    mlbdp_single,
    reconstruct_pair,
    run_limit_search,
    unique_bandwidths,
    virtual_link_count,
)
from .sample import FIVE_NODE_TEXT, five_node_network
from .widest import WidestTree, extract_widest_path, max_bandwidth_tree

__version__ = "0.1.0"

__all__ = [
    "BenchmarkReport",
    "DEFAULT_PATH_CAP",
    "DisjointResult",
    "EnumerationCapError",
    "FIVE_NODE_TEXT",
    "Graph",
    "IlpModel",
    "PathPair",
    "RunConfig",
    "SplitMix64",
    "TopologyError",
    "VNodeTable",
    "WidestTree",
    "assign_random_bandwidths",
    "bottleneck",
    "build_ilp",
    "delta",
    "enumerate_simple_paths",
    "export_ilp",
    "extract_widest_path",
    "five_node_network",
    "generate_random_graph",
    "max_bandwidth_tree",
    "mba_pair",
    "mlbdp_full",
    "mlbdp_single",
    "optimal_pair_bruteforce",
    "pair_to_assignment",
    "parse_topology",
    "reconstruct_pair",
    "run_benchmark",
    "run_limit_search",
    "serialize_topology",
    "unique_bandwidths",
    "validate_pair",
    "validate_path",
    "virtual_link_count",
    "write_plot_data",
    "write_report_csv",
]
