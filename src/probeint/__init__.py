"""Recognition of interval graphs, interval bigraphs and probe interval
graphs from their (bi)adjacency matrices, with verifiable certificates."""

from .bigraphs import (
    BigraphIntervals,
    check_rc_valid,
    diagonalize,
    find_rc_partition,
    intervals_from_diagonalized,
    is_interval_bigraph,
    verify_bigraph_rep,
)
from .certificates import Certificate, ProbeCertificate, VerificationError
from .ferrers import (
    FerrersFactorization,
    couple_graph,
    decompose_two_ferrers,
    ferrers_dim_le_2,
    interval_iff_dim2,
    is_ferrers,
    probe_dim3_decomposition,
)
from .graphs import (
    Graph,
    augmented_adjacency,
    build_graph,
    probe_bigraph,
    symmetric_bigraph,
)
from .intervals import (
    find_quasi_linear_order,
    intervals_from_quasi_linear,
    is_interval_graph,
    is_quasi_linear,
    verify_interval_rep,
)
from .matrices import LabeledMatrix, from_rows, from_zero_one
from .oracles import (
    bigraph_oracle,
    enumerate_graphs,
    interval_oracle,
    interval_split_check,
    probe_oracle,
)
from .probes import (
    align_probe_columns,
    probe_representation,
    recognize_char1,
    recognize_char2,
    recognize_qxl,
    reduced_associated_graph,
    scan_forbidden,
    verify_probe_rep,
)

__version__ = "0.1.0"

__all__ = [
    "BigraphIntervals",
    "Certificate",
    "FerrersFactorization",
    "Graph",
    "LabeledMatrix",
    "ProbeCertificate",
    "VerificationError",
    "align_probe_columns",
    "augmented_adjacency",
    "bigraph_oracle",
    "build_graph",
    "check_rc_valid",
    "couple_graph",
    "decompose_two_ferrers",
    "diagonalize",
    "enumerate_graphs",
    "ferrers_dim_le_2",
    "find_quasi_linear_order",
    "find_rc_partition",
    "from_rows",
    "from_zero_one",
    "interval_iff_dim2",
    "interval_oracle",
    "interval_split_check",
    "intervals_from_diagonalized",
    "intervals_from_quasi_linear",
    "is_ferrers",
    "is_interval_bigraph",
    "is_interval_graph",
    "is_quasi_linear",
    "probe_bigraph",
    "probe_dim3_decomposition",
    "probe_oracle",
    "probe_representation",
    "recognize_char1",
    "recognize_char2",
    "recognize_qxl",
    "reduced_associated_graph",
    "scan_forbidden",
    "symmetric_bigraph",
    "verify_bigraph_rep",
    "verify_interval_rep",
    "verify_probe_rep",
]
