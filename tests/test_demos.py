"""The demos run to completion. Demo 04 is the full identity suite, which
the verify_all_40_24 golden output already covers. The README's library
quick start runs too, and prints what it shows."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_partitions_and_series.py", "02_orbits_and_diagrams.py",
         "03_census_walkthrough.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_prints_its_orbits(capsys):
    [snippet] = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    exec(snippet, {})
    assert capsys.readouterr().out.splitlines() == [
        "5+ [I] sigma-b2 1",
        "5+ [II] sigma-b2 1",
        "3- 1+^2 [I] sigma-b2 1",
        "3- 1+^2 [II] sigma-b2 1",
        "2+ 2- 1+ [I] sigma-b2 1",
        "2+ 2- 1+ [II] sigma-b2 1",
        "3+ 1+ 1- sigma-b2 1",
        "1+^3 1-^2 sigma-b2 4",
    ]
