"""What a CLI run on a tanh or table wind, a malformed config and the
limiting route import: numpy, not scipy."""
import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import windwaves
from windwaves import rayleigh

FLUIDS = """
[fluids]
rho_plus = 1.22
rho_minus = 1000.0
g = 9.8
sigma = 0
h_plus = 5.0
"""


def tanh(u_max):
    return f"[profile]\nkind = tanh\nu_max = {u_max}\nd = 1.0\nh_plus = 5.0\n"


TABLE = "[profile]\nkind = table\npath = {table}\n"

JOBS = {
    "sweep": FLUIDS + tanh(10.0) + "[mode]\nk_min = 0.3\nk_max = 3.0\nn = 4\n"
                                   "[run]\ncommand = sweep\n",
    "certify": FLUIDS + tanh(1.0) + "[mode]\nk = 1.0\n[certify]\n"
                                    "epsilon = 1e-3\n"
                                    "[run]\ncommand = certify-stable\n",
    "asym": FLUIDS + tanh(10.0) + "[mode]\nk = 1.3\n[run]\ncommand = asym\n",
    "table-solve": FLUIDS + TABLE + "[mode]\nk = 1.2\n"
                                    "[run]\ncommand = solve\n",
    "table-asym": FLUIDS + TABLE + "[mode]\nk = 1.3\n[run]\ncommand = asym\n",
    # a uniform wind's certificate on an unbounded column, which the closed
    # form answers
    "constant-certify": FLUIDS.replace("h_plus = 5.0\n", "")
    + "[profile]\nkind = constant\nu0 = 0.5\nh_plus = inf\n"
      "[mode]\nk = 1.2\n[certify]\nepsilon = 0.00122\n"
      "[run]\ncommand = certify-stable\n",
    "certify-stable": FLUIDS + tanh(1.0) + "[mode]\nk = 1.2\n[certify]\n"
                                           "epsilon = 0.00122\n"
                                           "[run]\ncommand = certify-stable\n",
}
#: the jobs whose certificate must hold: no root in either rectangle
CERTIFIED = ("certify", "constant-certify", "certify-stable")

#: configuration errors, exit status 2: a non-integer n, a zero wavenumber,
#: the ramp's closed form on a finite air column, a zero certificate radius,
#: and a constant shear on a column below the interface
MALFORMED = {name: FLUIDS + text for name, text in {
    "n-four": tanh(10.0) + "[mode]\nk_min = 0.3\nk_max = 3.0\nn = four\n"
                           "[run]\ncommand = sweep\n",
    "k-zero": tanh(10.0) + "[mode]\nk = 0\n[run]\ncommand = ck\n",
    "pwl-finite-column": tanh(10.0) + "[mode]\nk = 1.0\n[pwl]\nmu = 5.51\n"
                                      "x2_star = 1.0\neps_list = 0.01\n"
                                      "[run]\ncommand = pwl\n",
    "certify-zero-radius": tanh(1.0) + "[mode]\nk = 1.2\n[certify]\n"
                                       "epsilon = 0.00122\n"
                                       "radius_fraction = 0\n"
                                       "[run]\ncommand = certify-stable\n",
    "linear-negative-column": "[profile]\nkind = linear\nu0 = 0.0\nmu = 2.0\n"
                              "h_plus = -2.0\n[mode]\nk = 1.0\n"
                              "[run]\ncommand = asym\n",
}.items()}

#: each config's run, and the run of its --dump-config output, by stdout
SCRIPT = """\
import contextlib, io, json, sys
import windwaves.cli

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = windwaves.cli.main(list(argv))
    return status, out.getvalue()

runs = []
for path in sys.argv[1:]:
    status, out = run("--config", path)
    rerun = None
    if status == 0:
        with open(path + ".dumped.ini", "w", encoding="utf-8") as fh:
            fh.write(run("--config", path, "--dump-config")[1])
        rerun = run("--config", path + ".dumped.ini")
    runs.append([status, out, rerun])
print(json.dumps({"runs": runs,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""


def test_cli_jobs_import_no_scipy(tmp_path):
    table = tmp_path / "wind.table"  # 40 samples of the tanh (10, 1, 5) wind
    table.write_text("".join(f"{x!r} {10.0 * math.tanh(x)!r}\n"
                             for x in np.linspace(0.0, 5.0, 40).tolist()),
                     encoding="utf-8")
    paths = []
    for name, text in {**JOBS, **MALFORMED}.items():
        path = tmp_path / f"{name}.ini"
        path.write_text(text.format(table=table.as_posix()), encoding="utf-8")
        paths.append(str(path))
    env = dict(os.environ,
               PYTHONPATH=str(Path(windwaves.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", SCRIPT, *paths], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["scipy"] == []
    assert [status for status, _, _ in report["runs"]] == \
        [0] * len(JOBS) + [2] * len(MALFORMED)
    for name, (_, stdout, rerun) in zip(JOBS, report["runs"]):
        assert stdout.strip(), name
        # the normalized config runs to the same stdout, byte for byte
        assert rerun == [0, stdout], name
        if name in CERTIFIED:
            # the row ends in count_upper, count_lower, certified
            assert stdout.splitlines()[-1].endswith(",0,0,1"), name


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
