"""Cutsize distributions of balanced hypergraph bipartitions for regular
random ensembles, their growth rates, and block-diagonal encodability checks.
"""

from .asymptotics import (GrowthPoint, VerdictRow, balanced_growth_rate,
                          balanced_growth_rate_closed, binary_entropy, curve,
                          growth_rate, inner_infimum, peak_growth, peak_sigma,
                          typical_min_cutsize, verdict, write_curve_csv,
                          write_verdict_csv)
from .core import (BinaryMatrix, CapExceeded, EncodabilityVerdict,
                   Hypergraph, Partition, as_ratio,
                   check_block_diagonalizable, cutsize, gf2_rank,
                   hypergraph_from_matrix, is_balanced,
                   matrix_from_hypergraph, max_parallel_degree,
                   min_cutsize_bruteforce, tanner_to_hypergraph)
from .ensemble import (RNG_ALGORITHM, EnsembleParams, enumerate_all,
                       instance_classes, sample, validate)
from .exact_distribution import (CutsizeTable, balanced_first_part_range,
                                 constellation_coeff, cutsize_table,
                                 expected_balanced_bipartitions,
                                 expected_bipartitions,
                                 log2_expected_bipartitions,
                                 stream_table_csv, write_balanced_rows,
                                 write_table_rows)
from .formats import read_alist, read_partition, write_alist, write_partition
from .oracle import (MonteCarloEstimate, count_bipartitions,
                     exact_ensemble_average, monte_carlo_average,
                     write_estimate_csv)

__version__ = "0.1.0"

__all__ = [
    "BinaryMatrix", "CapExceeded", "CutsizeTable",
    "EncodabilityVerdict", "EnsembleParams", "GrowthPoint", "Hypergraph",
    "MonteCarloEstimate", "Partition", "RNG_ALGORITHM",
    "VerdictRow", "as_ratio", "balanced_first_part_range",
    "balanced_growth_rate", "balanced_growth_rate_closed", "binary_entropy",
    "check_block_diagonalizable", "constellation_coeff", "count_bipartitions",
    "curve", "cutsize", "cutsize_table",
    "enumerate_all", "exact_ensemble_average", "expected_balanced_bipartitions",
    "expected_bipartitions", "gf2_rank", "growth_rate",
    "hypergraph_from_matrix", "inner_infimum", "instance_classes",
    "is_balanced",
    "log2_expected_bipartitions", "matrix_from_hypergraph",
    "max_parallel_degree", "min_cutsize_bruteforce", "monte_carlo_average",
    "peak_growth", "peak_sigma", "read_alist", "read_partition", "sample",
    "stream_table_csv", "tanner_to_hypergraph", "typical_min_cutsize",
    "validate", "verdict", "write_alist", "write_balanced_rows",
    "write_curve_csv", "write_estimate_csv", "write_partition",
    "write_table_rows", "write_verdict_csv",
]
