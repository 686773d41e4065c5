"""Maximum-bandwidth node-disjoint path pairs in capacitated networks.

The package namespace holds the supported surface; everything else stays
importable from its submodule (widestpair.mlbdp, widestpair.exact, ...).
"""

from .bench import RunConfig, run_benchmark, write_plot_data, write_report_csv
from .exact import EnumerationCapError, export_ilp, optimal_pair_bruteforce
from .graph import (
    Graph,
    TopologyError,
    assign_random_bandwidths,
    generate_random_graph,
    parse_topology,
    serialize_topology,
    validate_pair,
)
from .mba import mba_pair
from .mlbdp import VNodeTable, mlbdp_full
from .sample import five_node_network
from .widest import max_bandwidth_tree

__version__ = "0.1.0"

__all__ = [
    "EnumerationCapError",
    "Graph",
    "RunConfig",
    "TopologyError",
    "VNodeTable",
    "assign_random_bandwidths",
    "export_ilp",
    "five_node_network",
    "generate_random_graph",
    "max_bandwidth_tree",
    "mba_pair",
    "mlbdp_full",
    "optimal_pair_bruteforce",
    "parse_topology",
    "run_benchmark",
    "serialize_topology",
    "validate_pair",
    "write_plot_data",
    "write_report_csv",
]
