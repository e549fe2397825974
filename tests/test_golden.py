"""Golden CLI outputs: the exact stdout of a fixed set of commands, compared
byte for byte. Refactors must leave every file in tests/golden/ unchanged.

Regenerate (only when an output change is intended and documented):

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from sheaf_census.cli import main

GOLDEN_DIR = Path(__file__).with_name("golden")

# every README example, plus larger orbit and census cases
COMMANDS = {
    "orbits_bdi_3_2_table": ["orbits", "bdi", "--p", "3", "--q", "2", "--format", "table"],
    "orbits_bdi_3_2_richardson_table": ["orbits", "bdi", "--p", "3", "--q", "2",
                                        "--richardson", "--format", "table"],
    "orbits_diii_4_table": ["orbits", "diii", "--n", "4", "--format", "table"],
    "census_bdi_3_2_k0_table": ["census", "bdi", "--p", "3", "--q", "2", "--central", "k0",
                                "--format", "table"],
    "census_bdi_3_2_both_check": ["census", "bdi", "--p", "3", "--q", "2", "--central", "both",
                                  "--check"],
    "census_bdi_4_2_nilpotent_table": ["census", "bdi", "--p", "4", "--q", "2", "--subset",
                                       "nilpotent", "--format", "table"],
    "census_diii_4_k1": ["census", "diii", "--n", "4", "--central", "k1"],
    "verify_all_40_24": ["verify", "--suite", "all", "--order", "40", "--sweep", "24"],
    "verify_tb1_euler_20": ["verify", "--suite", "tb1", "euler-smoke", "--order", "20"],
    # an odd sweep, and orders below and above the m <= 30 cap of the fn checks
    "verify_all_12_9": ["verify", "--suite", "all", "--order", "12", "--sweep", "9"],
    "verify_all_50_13_csv": ["verify", "--suite", "all", "--order", "50", "--sweep", "13",
                             "--format", "csv"],
    "series_prod_order10": ["series", "--expr", "prod(1+x^{2s})(1+x^{1s})", "--order", "10"],
    "series_half_coeff0": ["series", "--expr", "1/2 * prod(1+x^{2s-1})(1+x^{1s})",
                           "--coeff", "0"],
    "orbits_diii_6": ["orbits", "diii", "--n", "6"],
    "orbits_diii_6_richardson": ["orbits", "diii", "--n", "6", "--richardson"],
    "orbits_bdi_5_4_richardson": ["orbits", "bdi", "--p", "5", "--q", "4", "--richardson"],
    "census_diii_6_both_check": ["census", "diii", "--n", "6", "--central", "both", "--check"],
    # the csv rows of a census, with decorated and undecorated supports
    "census_bdi_5_4_csv": ["census", "bdi", "--p", "5", "--q", "4", "--format", "csv"],
    # class-3 rows carry four decorations; the class filter on a non-Richardson listing
    "orbits_bdi_6_6": ["orbits", "bdi", "--p", "6", "--q", "6"],
    "orbits_bdi_6_5_sigma2_csv": ["orbits", "bdi", "--p", "6", "--q", "5", "--class", "sigma2",
                                  "--format", "csv"],
    # series at large order: big integers, rational scalars, inverses of products
    "series_inv_prod_order400": ["series", "--expr",
                                 "3/7*inv(prod(1+x^{2s+1})(1+x^{3s-1}))", "--order", "400"],
    "series_prod_diff_order400_csv": ["series", "--expr",
                                      "5/4*prod(1+x^{2s})-7/9*prod(1-x^{3s-1})^2",
                                      "--order", "400", "--format", "csv"],
    "series_inv_nonunit_order60_csv": ["series", "--expr", "inv(2/3*prod(1-x^{1s}) + 1/5*x^3)",
                                       "--order", "60", "--format", "csv"],
    # each sub-census with its --check route, both centrals, on pairs where it
    # is non-empty: (3, 2) near-split, (6, 3) a staircase pair
    "census_bdi_3_2_cuspidal_check": ["census", "bdi", "--p", "3", "--q", "2", "--central",
                                      "both", "--subset", "cuspidal", "--check"],
    "census_bdi_6_3_nilpotent_check_table": ["census", "bdi", "--p", "6", "--q", "3",
                                             "--central", "both", "--subset", "nilpotent",
                                             "--check", "--format", "table"],
    "census_bdi_3_2_full_check_csv": ["census", "bdi", "--p", "3", "--q", "2", "--central",
                                      "both", "--subset", "full", "--check", "--format", "csv"],
    "census_diii_4_full_check_table": ["census", "diii", "--n", "4", "--central", "both",
                                       "--subset", "full", "--check", "--format", "table"],
    # larger censuses: empty-mu rows, decorated m = 0 supports, 2-row merges and
    # Lambda_b supports, in all three formats
    "census_bdi_10_10_both_check_csv": ["census", "bdi", "--p", "10", "--q", "10", "--central",
                                        "both", "--check", "--format", "csv"],
    "census_bdi_9_7_both_check": ["census", "bdi", "--p", "9", "--q", "7", "--central", "both",
                                  "--check"],
    "census_diii_10_check_table": ["census", "diii", "--n", "10", "--check", "--format", "table"],
}


def _run(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_golden_output(name, monkeypatch):
    monkeypatch.delenv("SHEAF_CENSUS_ORDER", raising=False)
    code, out = _run(COMMANDS[name])
    assert code == 0
    expected = (GOLDEN_DIR / f"{name}.out").read_bytes()
    assert out.encode() == expected


if __name__ == "__main__":
    os.environ.pop("SHEAF_CENSUS_ORDER", None)
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in COMMANDS.items():
        code, out = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN_DIR / f"{name}.out").write_bytes(out.encode())
