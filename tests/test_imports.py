"""The package imports lazily: `import sheaf_census` loads no submodule, each
exported name resolves on first read, and each command imports only the
layers it runs."""
import subprocess
import sys

import pytest

import sheaf_census

from test_cli import child_env

# every name the package exported when its __init__ imported each submodule,
# by the submodule that defines it
EXPORTED = {
    "partitions": ["BiPartition", "Partition", "count_bipartitions",
                   "count_distinct_odd_balanced", "count_distinct_odd_partitions", "count_distinct_partitions",
                   "count_partitions", "enum_distinct_odd_balanced", "enum_partitions",
                   "weighted_odd_partition_sum"],
    "qseries": ["FormalSeries", "bilateral_sum", "parse_series_expr", "prod_series"],
    "diagrams": ["SignedYoungDiagram", "classify", "diagram", "diii_kappa1_bijection",
                 "enum_lambda", "enum_lambda_b", "enum_lambda_even", "enum_sigma",
                 "enum_sigma_b", "format_diagram", "mu_t", "parse_diagram"],
    "groups": ["Kappa1Data", "eta", "kappa1_data_BDI", "kappa1_data_DIII", "omega_set",
               "pi_size"],
    "census": ["CensusReport", "OrbitLabel", "StratumEntry", "aggregate_T", "census_bdi_k0",
               "census_bdi_k1", "census_diii", "count_formula_k0", "count_formula_k1",
               "cuspidal_counts", "hecke_count", "nilpotent_support_counts", "subset_report",
               "theta_k0_count", "theta_k1_count"],
    "verify": ["IdentityCheck", "run_suite", "suite_ids"],
}
NAMES = sorted([*EXPORTED, *(name for names in EXPORTED.values() for name in names)])


def test_every_export_is_its_submodules_object():
    for module, names in EXPORTED.items():
        home = getattr(sheaf_census, module)
        assert home is sys.modules[f"sheaf_census.{module}"]
        for name in names:
            assert getattr(sheaf_census, name) is getattr(home, name)


def test_all_and_dir_list_the_exports():
    assert sorted(sheaf_census.__all__) == NAMES
    assert set(NAMES) <= set(dir(sheaf_census))
    assert "__version__" in dir(sheaf_census)


def test_an_unknown_name_is_refused_by_name():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        sheaf_census.no_such_name


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=child_env(), check=True)


def test_a_bare_import_loads_no_submodule_and_reads_one_on_first_use():
    proc = _fresh("import sys, sheaf_census\n"
                  "print(sorted(m for m in sys.modules if m.startswith('sheaf_census')))\n"
                  "print(sheaf_census.census.census_bdi_k0(3, 2).total)")
    assert proc.stdout == "['sheaf_census']\n11\n"


# prints, after a command's own output, the sheaf_census modules it loaded
LOADED = ("import sys\n"
          "from sheaf_census.cli import main\n"
          "code = main(sys.argv[1:])\n"
          "print(code, *sorted(m for m in sys.modules if m.startswith('sheaf_census')))")
FRONT = ["sheaf_census", "sheaf_census.cli"]
LAYERS = [f"sheaf_census.{m}" for m in ("partitions", "qseries", "diagrams", "groups", "census")]


@pytest.mark.parametrize("argv, modules", [
    (["--version"], FRONT),
    (["--help"], FRONT),
    (["series", "--expr", "prod(1+x^{2s})", "--order", "4"], FRONT + ["sheaf_census.qseries"]),
    (["orbits", "bdi", "--p", "3", "--q", "2"],
     FRONT + ["sheaf_census.diagrams", "sheaf_census.groups", "sheaf_census.partitions"]),
    (["orbits", "diii", "--n", "3", "--format", "table"],
     FRONT + ["sheaf_census.diagrams", "sheaf_census.groups", "sheaf_census.partitions"]),
    (["census", "bdi", "--p", "3", "--q", "2", "--check"], FRONT + LAYERS),
    (["verify", "--suite", "tb1", "--order", "12", "--sweep", "6"],
     FRONT + LAYERS + ["sheaf_census.verify"]),
])
def test_each_command_imports_only_its_layers(argv, modules):
    code, *loaded = _fresh(LOADED, *argv).stdout.splitlines()[-1].split()
    assert (code, loaded) == ("0", sorted(modules))
