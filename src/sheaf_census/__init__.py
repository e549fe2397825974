"""Exact enumeration of character-sheaf censuses for the orthogonal and
equal-signature symmetric pairs of the double covers, with a verification
harness for every generating-function identity involved.

Importing the package loads no submodule: each name below is imported from
its submodule when first read (PEP 562), so a command pays only for the
layers it runs."""

__version__ = "1.0.0"

# read by the CLI's parser as well as by census and verify
SUBSETS = ("all", "cuspidal", "nilpotent", "full")
DEFAULT_SWEEP = 24

# each submodule -> the names the package exports from it
_EXPORTS = {
    "partitions": ("BiPartition", "Partition", "count_bipartitions",
                   "count_distinct_odd_partitions", "count_distinct_partitions",
                   "count_partitions", "enum_distinct_odd_balanced", "enum_partitions",
                   "weighted_odd_partition_sum"),
    "qseries": ("FormalSeries", "bilateral_sum", "parse_series_expr", "prod_series"),
    "diagrams": ("SignedYoungDiagram", "classify", "diagram", "diii_kappa1_bijection",
                 "enum_lambda", "enum_lambda_b", "enum_lambda_even", "enum_sigma",
                 "enum_sigma_b", "format_diagram", "mu_t", "parse_diagram"),
    "groups": ("Kappa1Data", "eta", "kappa1_data_BDI", "kappa1_data_DIII", "omega_set",
               "pi_size"),
    "census": ("CensusReport", "OrbitLabel", "StratumEntry", "aggregate_T", "census_bdi_k0",
               "census_bdi_k1", "census_diii", "count_formula_k0", "count_formula_k1",
               "cuspidal_counts", "hecke_count", "nilpotent_support_counts", "subset_report",
               "theta_k0_count", "theta_k1_count"),
    "verify": ("IdentityCheck", "run_suite", "suite_ids"),
}
# each exported name, submodules included -> the submodule that holds it
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = importlib.import_module(f"{__name__}.{_HOME[name]}")
    if name != _HOME[name]:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
