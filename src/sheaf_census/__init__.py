"""Exact enumeration of character-sheaf censuses for the orthogonal and
equal-signature symmetric pairs of the double covers, with a verification
harness for every generating-function identity involved."""

__version__ = "1.0.0"

from .partitions import (
    BiPartition,
    Partition,
    count_bipartitions,
    count_distinct_odd_partitions,
    count_distinct_partitions,
    count_partitions,
    enum_distinct_odd_balanced,
    enum_partitions,
    weighted_odd_partition_sum,
)
from .qseries import (
    FormalSeries,
    ProductFactor,
    bilateral_sum,
    parse_series_expr,
    prod_series,
)
from .diagrams import (
    SignedYoungDiagram,
    classify,
    diagram,
    diii_kappa1_bijection,
    enum_lambda,
    enum_lambda_b,
    enum_lambda_even,
    enum_sigma,
    enum_sigma_b,
    format_diagram,
    join,
    mu_t,
    orbit_multiplicity,
    parse_diagram,
)
from .groups import (
    Kappa1Data,
    eta,
    kappa1_data_BDI,
    kappa1_data_DIII,
    l_of,
    omega_set,
    pi_size,
)
from .census import (
    CensusReport,
    OrbitLabel,
    StratumEntry,
    aggregate_T,
    census_bdi_k0,
    census_bdi_k1,
    census_diii,
    count_formula_k0,
    count_formula_k1,
    cuspidal_counts,
    full_support_counts,
    hecke_count,
    nilpotent_support_counts,
    subset_report,
    theta_k0_count,
    theta_k1_count,
)
from .verify import IdentityCheck, run_suite, suite_ids
