"""The package's wiring: its console script, its public names, the
tableau the kernel shares with scipy, what the limiting route imports
(numpy, not scipy), and the README's library quick start, run as written.
What each command-line config imports is checked with its run, in
tests/test_cli.py."""
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import windwaves.cli
from windwaves import rayleigh


def test_console_script_is_the_cli_main():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml",
              "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    entry = EntryPoint("windwaves", scripts["windwaves"], "console_scripts")
    assert entry.load() is windwaves.cli.main


def test_public_names_resolve():
    # tools that walk the public names, such as the benchmark's tracer,
    # getattr each one: a stale entry would break them
    for info in pkgutil.iter_modules(windwaves.__path__):
        module = importlib.import_module(f"windwaves.{info.name}")
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert missing == [], info.name


def test_tableau_is_scipys_bit_for_bit():
    from scipy.integrate._ivp import dop853_coefficients as ref

    # the kernel executes scipy's tableau file without importing scipy;
    # tests/test_rayleigh.py checks the slot-ordered weights against it
    tableau = rayleigh._TABLEAU
    assert tableau.N_STAGES == ref.N_STAGES
    for name in ("C", "A", "B", "E5", "E3"):
        a, b = getattr(tableau, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    want = ref.C[:ref.N_STAGES, None]
    assert rayleigh._DOP_C.shape == want.shape
    assert rayleigh._DOP_C.tobytes() == want.tobytes()


LIMIT_SCRIPT = """\
import json, sys
from windwaves import AnalyticProfile, FluidParams, limiting_solution, miles_c_sharp
parabola = AnalyticProfile(f=lambda x: 4.0 * x * (1.0 - 0.5 * x),
                           df=lambda x: 4.0 - 4.0 * x, d2f=lambda x: -4.0,
                           h_plus=2.0, name="parabola")
lim = limiting_solution(parabola, 1.0, 1.5, +1)
# g = 2.25 puts c_k near 1.5, below U's maximum 2: two layers
asym = miles_c_sharp(parabola, FluidParams(1.22, 1000.0, 2.25, h_plus=2.0), 1.0)
print(json.dumps({"jumps": [len(lim.jumps), len(asym.layers)],
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""


def test_limiting_route_imports_no_scipy():
    env = dict(os.environ,
               PYTHONPATH=str(Path(windwaves.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", LIMIT_SCRIPT], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report == {"jumps": [2, 2], "scipy": []}


def test_readme_quick_start_runs_as_written(capsys):
    # the seed c_k + eps c_1 is one Muller step from the root
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    root = namespace["root"]
    assert root.converged and root.iterations == 1
    assert capsys.readouterr().out == \
        f"{root.c} {root.growth_rate} {root.classification}\n"
