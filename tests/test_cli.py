"""The command line, and every config it runs end to end.

``CONFIGS`` is the one table of configs: each row's INI text, its exit
status, and what its stdout must show.  ``SCRIPT`` runs them all, and the
rerun of each one's --dump-config output, in one process.
"""
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import windwaves
from windwaves import asymptotics, cli
from windwaves.cli import dump_config, main, parse_config
from windwaves.dispersion import FluidParams, ck
from windwaves.errors import ConfigError
from windwaves.profiles import PiecewiseLinearProfile, TabulatedProfile
from windwaves.rayleigh import pwl_impedance_cascade

FLUIDS = """
[fluids]
rho_plus = 1.22
rho_minus = 1000.0
g = 9.8
sigma = 0.0
h_plus = 5.0
h_minus = inf
"""
#: the fluids on an air column without a lid
UNBOUNDED = FLUIDS.replace("h_plus = 5.0\n", "")
TANH = "kind = tanh\nu_max = 10.0\nd = 1.0\nh_plus = 5.0"
#: the tanh wind of speed 1, below every c_k of the [mode]s here
SLOW = TANH.replace("u_max = 10.0", "u_max = 1.0")
RAMP = "kind = pwl\nmu = 10.0\nx2_star = 1.0\nh_plus = 5.0"
RAMP_INF = RAMP.replace("h_plus = 5.0", "h_plus = inf")
#: the 40-sample table of the tanh wind (see ``tables``)
TABLE = "kind = table\npath = {tanh40}"


def ini(profile: str, mode: str, command: str, fluids: str = FLUIDS) -> str:
    """The config of a wind over the fluids, a [mode] and a [run] command."""
    return (f"{fluids}\n[profile]\n{profile}\n\n[mode]\n{mode}\n\n"
            f"[run]\ncommand = {command}\n")


BASE = ini(TANH, "k = 1.0", "solve")
CK = ini(TANH, "k = 1.0", "ck")
#: a three-k sweep of the tanh wind
SWEEP = ini(TANH, "k_min = 0.5\nk_max = 2.0\nn = 3", "sweep")
#: certify-stable on a wind below c_k, which certifies
CERTIFY = ini(TANH.replace("u_max = 10.0", "u_max = 1.5"), "k = 1.0",
              "certify-stable") + "\n[certify]\nepsilon = 0.001\n"
#: the ramp's closed form, on a finite column, which it refuses
PWL = ini(TANH, "k = 1.0", "pwl") + "\n[pwl]\nmu = 5.51\nx2_star = 1.0\n" \
                                    "eps_list = 0.01\n"


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def data_rows(out: str) -> list[str]:
    """The rows of a table printed to stdout, below its header."""
    return [line for line in out.splitlines()
            if line and not line.startswith("#")][1:]


def converged(out: str) -> None:
    """Every sweep or solve row converged, and no row failed."""
    rows = data_rows(out)
    assert rows and all(row.endswith(",1") for row in rows)
    assert not any(line.startswith("# failed at k")
                   for line in out.splitlines())


def two_layers(out: str) -> None:
    """The growth constant has a row for each of two critical layers."""
    assert len(data_rows(out)) == 2
    assert not any(line.startswith("# no critical layer")
                   for line in out.splitlines())


def certified(out: str) -> None:
    """No root in either rectangle: count_upper, count_lower, certified."""
    assert out.splitlines()[-1].endswith(",0,0,1")


def prints(line: str) -> Callable[[str], None]:
    def check(out: str) -> None:
        assert line in out.splitlines()
    return check


def names(place: str) -> Callable[[str], None]:
    """The error names a file and line that ends in place."""
    def check(err: str) -> None:
        assert f"{place}: expected 'x2 value', got " in err
    return check


class Config(NamedTuple):
    """A row of ``CONFIGS``."""

    text: str
    #: 0, or 2 for a malformed config: one "config error:" line on stderr
    status: int = 0
    #: what a run's stdout, or a malformed config's stderr, must show
    checks: tuple[Callable[[str], None], ...] = ()
    #: how many times a run warns that the sign hypotheses fail
    warns: int = 0


#: every config the command line runs end to end; ``{name}`` fields are the
#: tables and wavenumbers of ``tables``
CONFIGS = {
    # the tanh wind: a sweep, its growth constant, and its certificates
    # below c_k
    "sweep": Config(ini(TANH, "k_min = 0.3\nk_max = 3.0\nn = 4", "sweep"),
                    checks=(converged,)),
    "asym": Config(ini(TANH, "k = 1.0", "asym")),
    "certify": Config(ini(SLOW, "k = 1.0", "certify-stable")
                      + "\n[certify]\nepsilon = 1e-3\n", checks=(certified,)),
    "certify-stable": Config(ini(SLOW, "k = 1.2", "certify-stable")
                             + "\n[certify]\nepsilon = 0.00122\n",
                             checks=(certified,)),
    # a uniform wind's certificate on an unbounded column, which the closed
    # form answers
    "constant-certify": Config(ini("kind = constant\nu0 = 0.5\nh_plus = inf",
                                   "k = 1.2", "certify-stable", UNBOUNDED)
                               + "\n[certify]\nepsilon = 0.00122\n",
                               checks=(certified,)),
    # the growth constant of a piecewise-linear ramp comes from the
    # closed-form cascade: U'' = 0 at its layer, where the sign hypotheses
    # say nothing, and no kernel shoot; so does every impedance of its sweep
    "pwl-asym": Config(ini(RAMP, "k = 1.0", "asym")),
    "pwl-sweep": Config(ini(RAMP, "k_min = 0.5\nk_max = 3.0\nn = 6", "sweep"),
                        checks=(converged,)),
    # the same ramp on unbounded columns; out to k 900 the gap below the
    # kink is 900 decay lengths, and the layer is found from the pieces
    "pwl-inf-sweep": Config(ini(RAMP_INF, "k_min = 0.5\nk_max = 900.0\nn = 6",
                                "sweep", UNBOUNDED), checks=(converged,)),
    "pwl-inf-asym": Config(ini(RAMP_INF, "k = 1.0", "asym", UNBOUNDED)),
    # near the capillary-gravity minimum, |k| h+ = 1500: the shoot passes
    # the float range and is rescaled, and the layer term, below the path's
    # rounding, takes the Frobenius limiting route
    "capillary-asym": Config(ini(TANH, "k = 300.0", "asym", FLUIDS.replace(
        "sigma = 0.0", "sigma = 0.074"))),
    # a thin column with strong surface tension at k 1979.5: the one
    # layer's term, ~9e-258, is below the path's rounding and takes the
    # Frobenius route, whose u1 ~ 3e-257 must not underflow
    "thin-capillary-asym": Config(
        ini("kind = tanh\nu_max = 10.0\nd = 0.05\nh_plus = 0.25",
            "k = 1979.5", "asym",
            FLUIDS.replace("sigma = 0.0\nh_plus = 5.0",
                           "sigma = 50.0\nh_plus = 0.25")),
        checks=(prints("# unstable = True"),)),
    "table-solve": Config(ini(TABLE, "k = 1.2", "solve"),
                          checks=(converged,)),
    "table-asym": Config(ini(TABLE, "k = 1.3", "asym")),
    # c_k 1e-8 below the interior maximum of a nine-knot jet table: the
    # growth constant has both layers
    "jet-asym": Config(ini("kind = table\npath = {jet9}", "k = {jet_k}",
                           "asym"), checks=(two_layers,)),
    # c_k 1e-7 below knot 3 of a 48-knot jet table: the lower layer's
    # Frobenius patch spans the knot, which must not cut it
    "knot-asym": Config(ini("kind = table\npath = {jet48}", "k = {knot_k}",
                            "asym"), checks=(two_layers,), warns=1),
    # the same jet table's sweep above its negative growth constants: every
    # c_k has two layers, whose terms come from the jumps along the path,
    # and from Frobenius where the upper one is below the path's rounding
    # (k above ~2.3)
    "jet48-sweep": Config(ini("kind = table\npath = {jet48}",
                              "k_min = 0.7\nk_max = 3.0\nn = 12", "sweep"),
                          checks=(converged,), warns=12),
    # U = 5 x^2: U'' > 0 at the layer, so the sufficient sign hypotheses
    # fail and the run warns, once
    "convex-asym": Config(ini("kind = table\npath = {convex24}", "k = 1.0",
                              "asym", FLUIDS.replace("h_plus = 5.0",
                                                     "h_plus = 2.0")),
                          checks=(prints("# sufficient_signs_hold = False"),),
                          warns=1),
    # a constant-shear wind, and the same wind sampled as a table: collinear
    # samples make a zero-curvature wind, which the closed form answers
    "linear-sweep": Config(ini("kind = linear\nu0 = 0.0\nmu = 2.0\n"
                               "h_plus = 5.0",
                               "k_min = 0.5\nk_max = 3.0\nn = 6", "sweep"),
                           checks=(converged,)),
    "linear-table-sweep": Config(ini("kind = table\npath = {linear6}",
                                     "k_min = 0.5\nk_max = 3.0\nn = 6",
                                     "sweep"), checks=(converged,)),
    # configuration errors: each exits 2 with one "config error:" line
    **{name: Config(text, 2) for name, text in {
        "non_integer_n": CK.replace("k = 1.0", "k_min = 0.5\nk_max = 2.0\nn = four"),
        "non_integer_max_iter": CK + "\n[solver]\nmax_iter = 6.5\n",
        "non_integer_branch": CK + "branch = x\n",
        "non_number_in_eps_list":
            CK + "\n[pwl]\nmu = 5.0\nx2_star = 1.0\neps_list = 0.01 zz\n",
        "unknown_key_in_pwl":
            CK + "\n[pwl]\nmu = 5.0\nx2_star = 1.0\neps_list = 0.01\nbogus = 1\n",
        "unknown_key_in_certify":
            CK + "\n[certify]\nepsilon = 0.001\nradius_frac = 0.5\n",
        "unknown_section": CK + "\n[solvr]\ntol = 1e-9\n",
        "ramp_kink_at_column_top": BASE.replace("command = solve", "command = asym")
            .replace(TANH, "kind = pwl\nmu = 10.0\nx2_star = 5.0\nh_plus = 5.0"),
        "linear_below_interface": BASE.replace("command = solve", "command = asym")
            .replace(TANH, "kind = linear\nu0 = 0.0\nmu = 2.0\nh_plus = -2.0"),
        "constant_empty_column": BASE.replace("command = solve", "command = asym")
            .replace(TANH, "kind = constant\nu0 = 5.0\nh_plus = 0.0"),
        "zero_k": CK.replace("k = 1.0", "k = 0"),
        "non_finite_k": BASE.replace("k = 1.0", "k = nan"),
        "log_spacing_from_zero":
            CK.replace("k = 1.0", "k_min = 0\nk_max = 2.0\nn = 3\nspacing = log"),
        "sweep_below_zero": BASE.replace("command = solve", "command = sweep")
            .replace("k = 1.0", "k_min = -1.0\nk_max = 2.0\nn = 3"),
        "solve_negative_k": BASE.replace("k = 1.0", "k = -1.0"),
        "pwl_finite_column": PWL,
        "pwl_surface_tension": PWL.replace("sigma = 0.0\nh_plus = 5.0\n",
                                           "sigma = 0.074\n"),
        "pwl_negative_eps": PWL.replace("h_plus = 5.0\nh_minus", "h_minus")
            .replace("eps_list = 0.01", "eps_list = 0.01 -0.5"),
        "pwl_eps_one": PWL.replace("h_plus = 5.0\nh_minus", "h_minus")
            .replace("eps_list = 0.01", "eps_list = 1"),
        "certify_zero_epsilon": CERTIFY.replace("epsilon = 0.001", "epsilon = 0"),
        "certify_epsilon_above_one":
            CERTIFY.replace("epsilon = 0.001", "epsilon = 2"),
        "certify_nan_epsilon": CERTIFY.replace("epsilon = 0.001", "epsilon = nan"),
        "certify_zero_radius_fraction": CERTIFY + "radius_fraction = 0\n",
        "certify_negative_radius_fraction": CERTIFY + "radius_fraction = -1\n",
        "certify_nan_radius_fraction": CERTIFY + "radius_fraction = nan\n",
        "certify_radius_fraction_above_one": CERTIFY + "radius_fraction = 2\n",
        "certify_negative_im_floor": CERTIFY + "im_floor = -1e-10\n",
        "certify_nan_im_floor": CERTIFY + "im_floor = nan\n",
        "certify_im_floor_above_radius": CERTIFY + "im_floor = 1\n",
        # a NaN number fails every bound, and a profile states its own
        "nan_air_depth": SWEEP.replace("h_plus = 5.0\nh_minus",
                                       "h_plus = nan\nh_minus"),
        "nan_air_depth_everywhere": SWEEP.replace("h_plus = 5.0", "h_plus = nan"),
        "nan_gravity": SWEEP.replace("g = 9.8", "g = nan"),
        "nan_surface_tension": SWEEP.replace("sigma = 0.0", "sigma = nan"),
        "tanh_zero_d": SWEEP.replace("d = 1.0", "d = 0"),
        "tanh_nan_d": SWEEP.replace("d = 1.0", "d = nan"),
        "tanh_nan_u_max": SWEEP.replace("u_max = 10.0", "u_max = nan"),
        "tanh_column_mismatch": SWEEP.replace(TANH, TANH.replace("5.0", "4.0")),
        "pwl_nan_column": BASE.replace("command = solve", "command = asym")
            .replace(TANH, "kind = pwl\nmu = 10.0\nx2_star = 1.0\nh_plus = nan"),
        # the solver's tolerances are positive and finite, and max_iter >= 1: a
        # NaN error norm cuts every step of every element to 2^18 steps
        "solver_nan_rayleigh_tol": CERTIFY + "\n[solver]\nrayleigh_tol = nan\n",
        "solver_nan_rayleigh_tol_asym": BASE.replace("command = solve",
                                                     "command = asym")
            + "\n[solver]\nrayleigh_tol = nan\n",
        "solver_nan_rayleigh_tol_sweep": SWEEP + "\n[solver]\nrayleigh_tol = nan\n",
        "solver_negative_rayleigh_tol": SWEEP + "\n[solver]\nrayleigh_tol = -1\n",
        "solver_nan_tol": SWEEP + "\n[solver]\ntol = nan\n",
        "solver_zero_max_iter": SWEEP + "\n[solver]\nmax_iter = 0\n",
    }.items()},
    # a table row with a sample that is not a number names its file and line,
    # as one with a wrong column count does
    "table_non_numeric_sample": Config(ini("kind = table\npath = {no_number}",
                                           "k = 1.0", "asym"), 2,
                                       checks=(names("no_number.table:3"),)),
    "table_wrong_column_count": Config(ini("kind = table\npath = {three_columns}",
                                           "k = 1.0", "asym"), 2,
                                       checks=(names("three_columns.table:2"),)),
}


def write_table(path: Path, xs: list, us: list) -> str:
    """A wind table of the speeds us at the altitudes xs; returns its path."""
    path.write_text("".join(f"{x!r} {u!r}\n" for x, u in zip(xs, us)),
                    encoding="utf-8")
    return path.as_posix()


def tables(folder: Path) -> dict:
    """The ``{name}`` fields of ``CONFIGS``: the tables, written to folder,
    and the wavenumbers whose c_k lies 1e-8 below the nine-knot jet's
    maximum and 1e-7 below knot 3 of the 48-knot jet."""
    tanh40 = [5 * i / 39 for i in range(40)]
    jet9 = [5 * i / 8 for i in range(9)]
    us9 = [10 * math.sin(0.9 * math.pi * x / 5) for x in jet9]
    jet48 = [5 * i / 47 for i in range(48)]
    us48 = [8 * math.e * x * math.exp(-x) for x in jet48]
    convex24 = [2 * i / 23 for i in range(24)]  # U = 5 x^2 on [0, 2]
    linear6 = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    u_max = TabulatedProfile(jet9, us9).u_bounds()[1]
    u_knot = TabulatedProfile(jet48, us48).value(jet48[3] - 1e-7)
    # malformed tables: a sample that is no number on line 3, and three
    # columns on line 2
    no_number = folder / "no_number.table"
    no_number.write_text("0 0\n# a comment line\n1 abc\n2 2\n5 3\n",
                         encoding="utf-8")
    three_columns = folder / "three_columns.table"
    three_columns.write_text("0 0\n1 2 3\n2 2\n5 3\n", encoding="utf-8")
    return {
        "tanh40": write_table(folder / "tanh40.table", tanh40,
                              [10 * math.tanh(x) for x in tanh40]),
        "jet9": write_table(folder / "jet9.table", jet9, us9),
        "jet48": write_table(folder / "jet48.table", jet48, us48),
        "convex24": write_table(folder / "convex24.table", convex24,
                                [5 * x * x for x in convex24]),
        "linear6": write_table(folder / "linear6.table", linear6,
                               [2 * x for x in linear6]),
        "no_number": no_number.as_posix(),
        "three_columns": three_columns.as_posix(),
        "jet_k": repr(9.8 / (u_max - 1e-8) ** 2),
        "knot_k": repr(9.8 / u_knot ** 2),
    }


#: each config's run, the run of its --dump-config output, and the scipy
#: modules first loaded while they ran (a scipy import of the package
#: itself is the first config's).  A run is its exit status (an escaped
#: exception's traceback), stdout, stderr and the message of every warning:
#: each one is recorded, also a repeat from the same line
SCRIPT = """\
import contextlib, io, json, sys, traceback, warnings

def scipy():
    return {m for m in sys.modules if m.split(".")[0] == "scipy"}

def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \\
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            status = windwaves.cli.main(list(argv))
        except Exception:  # the other configs still run
            status = traceback.format_exc()
    return {"status": status, "out": out.getvalue(), "err": err.getvalue(),
            "warnings": [str(w.message) for w in caught]}

loaded = scipy()
import windwaves.cli
report = []
for path in sys.argv[1:]:
    first, rerun = run("--config", path), None
    if first["status"] == 0:
        with open(path + ".dumped.ini", "w", encoding="utf-8") as fh:
            fh.write(run("--config", path, "--dump-config")["out"])
        rerun = run("--config", path + ".dumped.ini")
    report.append({"run": first, "rerun": rerun,
                   "scipy": sorted(scipy() - loaded)})
    loaded = scipy()
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def runs(tmp_path_factory) -> dict:
    """Every config's record from one ``SCRIPT`` process, by name."""
    folder = tmp_path_factory.mktemp("configs")
    fields = tables(folder)
    paths = []
    for name, config in CONFIGS.items():
        path = folder / f"{name}.ini"
        path.write_text(config.text.format(**fields), encoding="utf-8")
        paths.append(str(path))
    env = dict(os.environ,
               PYTHONPATH=str(Path(windwaves.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", SCRIPT, *paths], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    return dict(zip(CONFIGS, json.loads(out.stdout.splitlines()[-1])))


class TestParsing:
    def test_roundtrip_identity(self):
        cfg = parse_config(BASE)
        again = parse_config(dump_config(cfg))
        assert again == cfg

    def test_roundtrip_with_all_sections(self):
        text = BASE.replace("command = solve", "command = pwl") + """
[pwl]
mu = 5.51
x2_star = 1.0
eps_list = 0.01 0.001

[certify]
epsilon = 0.001
"""
        cfg = parse_config(text)
        assert parse_config(dump_config(cfg)) == cfg

    def test_inf_depth_accepted(self):
        cfg = parse_config(BASE)
        assert math.isinf(cfg.fluids.h_minus)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(BASE + "\n[solver]\nbogus = 1\n")

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(BASE.replace("command = solve", "command = dance"))

    def test_missing_fluids_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[run]\ncommand = ck\n")

    def test_k_and_range_conflict(self):
        with pytest.raises(ConfigError):
            parse_config(BASE.replace("k = 1.0", "k = 1.0\nk_min = 0.5"))

    def test_missing_table_file(self):
        text = BASE.replace(TANH, "kind = table\npath = /nonexistent/wind.txt")
        with pytest.raises(ConfigError):
            parse_config(text)


class TestCommands:
    def test_ck_table(self, tmp_path, capsys):
        text = BASE.replace("command = solve", "command = ck").replace(
            "k = 1.0", "k_min = 1.0\nk_max = 4.0\nn = 3\nspacing = log")
        assert main(["--config", write_config(tmp_path, text)]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "k,c_plus,c_minus"
        assert len(lines) == 4
        k, cp, cm = (float(v) for v in lines[1].split(","))
        assert cp == pytest.approx(math.sqrt(9.8), rel=1e-12)
        assert cm == pytest.approx(-math.sqrt(9.8), rel=1e-12)

    def test_kh_report_contains_physical_onset(self, tmp_path, capsys):
        text = """
[fluids]
rho_plus = 1.22
rho_minus = 1000.0
g = 9.81
sigma = 0.074

[run]
command = kh
"""
        assert main(["--config", write_config(tmp_path, text)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        u0, kc, lam = (float(v) for v in lines[-1].split(","))
        assert u0 == pytest.approx(6.6, rel=0.05)
        assert lam == pytest.approx(0.017, rel=0.10)

    def test_solve_single_k(self, tmp_path, capsys):
        assert main(["--config", write_config(tmp_path, BASE)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "k,re_c,im_c,growth_rate,residual,converged"
        row = [l for l in lines if not l.startswith("#")][1]
        k, re_c, im_c, growth, resid, conv = (float(v) for v in row.split(","))
        assert conv == 1
        assert im_c > 0.0  # tanh wind at k=1 is unstable
        assert growth == pytest.approx(k * im_c)

    def test_sweep_deterministic_and_json(self, tmp_path):
        cfg_path = write_config(tmp_path, SWEEP)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["--config", cfg_path, "--output", str(out1)]) == 0
        assert main(["--config", cfg_path, "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        outj = tmp_path / "a.json"
        assert main(["--config", cfg_path, "--output", str(outj),
                     "--format", "json"]) == 0
        payload = json.loads(outj.read_text())
        assert payload["columns"][0] == "k"
        assert len(payload["rows"]) == 3

    def test_json_is_strict_with_a_non_finite_cell(self, tmp_path, capsys):
        # im_c / sqrt(eps) has no value at eps = 0: null in JSON, nan in CSV
        text = PWL.replace("h_plus = 5.0\nh_minus", "h_minus").replace(
            "eps_list = 0.01", "eps_list = 0 1e-3")
        path = write_config(tmp_path, text)
        assert main(["--config", path, "--format", "json"]) == 0

        def refuse(token):
            raise ValueError(f"not JSON: {token}")

        payload = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert payload["columns"][-1] == "im_c_over_sqrt_eps"
        rows = payload["rows"]
        assert len(rows) == 6
        assert [row[-1] is None for row in rows] == [True] * 3 + [False] * 3
        assert main(["--config", path]) == 0
        assert [row.split(",")[-1] for row in
                data_rows(capsys.readouterr().out)[:3]] == ["nan"] * 3

    def test_asym_layer_table(self, tmp_path, capsys):
        text = CONFIGS["asym"].text
        assert main(["--config", write_config(tmp_path, text)]) == 0
        out = capsys.readouterr().out
        assert "c_sharp" in out
        assert "s,u_prime,u_double_prime,u1,term" in out
        assert len(data_rows(out)) == 1

    def test_asym_on_piecewise_linear_wind(self, tmp_path, capsys):
        # U'' vanishes at the layer inside the ramp, so the layer's term and
        # c_sharp are 0; below the layer y'' = k^2 y with y(0) = 1, y'(0) = Z
        text = CONFIGS["pwl-asym"].text
        assert main(["--config", write_config(tmp_path, text),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "c_sharp = 0" in payload["notes"]
        [(s, u_prime, u_double_prime, u1, term)] = payload["rows"]
        assert (u_double_prime, term) == (0.0, 0.0)
        k = 1.0
        profile = PiecewiseLinearProfile.ramp(10.0, 1.0, h_plus=5.0)
        c_k = ck(FluidParams(1.22, 1000.0, 9.8, h_plus=5.0), k)
        assert s == pytest.approx(c_k / 10.0, rel=1e-12)
        z = pwl_impedance_cascade(profile, k, c_k).real
        want = (math.cosh(k * s) + z * math.sinh(k * s) / k) ** 2
        assert abs(u1 - want) <= 1e-8

    def test_asym_on_an_unbounded_ramp(self, tmp_path, capsys):
        # the ramp on [0, inf): its layer comes from its pieces, and its
        # growth constant, 0, from the closed form
        text = CONFIGS["pwl-inf-asym"].text
        assert main(["--config", write_config(tmp_path, text),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "c_sharp = 0" in payload["notes"]
        [(s, u_prime, u_double_prime, u1, term)] = payload["rows"]
        assert (u_prime, u_double_prime, term) == (10.0, 0.0, 0.0)
        k = 1.0
        c_k = ck(FluidParams(1.22, 1000.0, 9.8), k)
        assert s == pytest.approx(c_k / 10.0, rel=1e-12)
        # y(0) = 1 and y'(0) = Z, the unbounded ramp's rational form
        alpha = 10.0 - 10.0 / (2 * k) * (1 + math.exp(-2 * k))
        beta = 10.0 - 10.0 / (2 * k) * (1 - math.exp(-2 * k))
        z = -k * (c_k - alpha) / (c_k - beta)
        want = (math.cosh(k * s) + z * math.sinh(k * s) / k) ** 2
        assert u1 == pytest.approx(want, rel=1e-12)

    def test_certify_stable(self, tmp_path, capsys):
        text = CERTIFY
        assert main(["--config", write_config(tmp_path, text)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row = lines[-1].split(",")
        assert row[-1] == "1"  # certified
        assert row[5] == "0" and row[6] == "0"

    def test_certify_stable_output_same_on_either_route(self, tmp_path, capsys,
                                                       monkeypatch):
        text = CERTIFY
        path = write_config(tmp_path, text)
        square = asymptotics.square_roots_real
        decided = []
        monkeypatch.setattr(asymptotics, "square_roots_real",
                            lambda *args, **kwargs: decided.append(
                                square(*args, **kwargs)) or decided[-1])
        assert main(["--config", path]) == 0
        one_round = capsys.readouterr().out
        monkeypatch.setattr(asymptotics, "square_roots_real",
                            lambda *args, **kwargs: False)
        assert main(["--config", path]) == 0
        assert decided == [True]
        assert capsys.readouterr().out == one_round

    def test_certify_failure_exit_code(self, tmp_path):
        # c_k inside the range of U: hypothesis violated -> solver failure (3)
        text = BASE.replace("command = solve", "command = certify-stable") + """
[certify]
epsilon = 0.001
"""
        assert main(["--config", write_config(tmp_path, text)]) == 3

    def test_pwl_command(self, tmp_path, capsys):
        gamma0 = math.sqrt(9.8)
        bracket = 1.0 - (1.0 - math.exp(-2.0)) / 2.0
        mu = gamma0 / bracket
        text = f"""
[fluids]
rho_plus = 1.22
rho_minus = 1000.0
g = 9.8

[mode]
k = 1.0

[pwl]
mu = {mu!r}
x2_star = 1.0
eps_list = 0.001 0.0001

[run]
command = pwl
"""
        assert main(["--config", write_config(tmp_path, text)]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.strip().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 6  # three roots per density ratio
        growth = [float(r.split(",")[4]) for r in rows]
        assert max(growth[:3]) == pytest.approx(max(growth[3:]), rel=0.05)

    def test_dump_config_flag(self, tmp_path, capsys):
        assert main(["--config", write_config(tmp_path, BASE),
                     "--dump-config"]) == 0
        dumped = capsys.readouterr().out
        assert parse_config(dumped) == parse_config(BASE)

    def test_config_error_exit_code(self, tmp_path):
        assert main(["--config", write_config(tmp_path, "[run]\n")]) == 2
        assert main(["--config", str(tmp_path / "missing.ini")]) == 2

    def test_command_override(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert main(["--config", path, "--command", "ck"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("k,c_plus,c_minus")

    def test_stable_sweep_exit_zero(self, tmp_path, capsys):
        text = """
[fluids]
rho_plus = 1.22
rho_minus = 1000.0
g = 9.81
sigma = 0.074

[profile]
kind = constant
u0 = 3.0
h_plus = inf

[mode]
k_min = 100.0
k_max = 700.0
n = 4

[run]
command = sweep
"""
        assert main(["--config", write_config(tmp_path, text)]) == 0
        rows = [l for l in capsys.readouterr().out.strip().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 4
        for row in rows:
            vals = row.split(",")
            assert float(vals[2]) == pytest.approx(0.0, abs=1e-10)  # im_c
            assert vals[5] == "1"  # converged

    def test_table_profile_solve(self, tmp_path, capsys):
        xs = [5.0 * i / 40 for i in range(41)]
        table = tmp_path / "wind.txt"
        table.write_text(
            "# altitude [m]  speed [m/s]\n"
            + "".join(f"{x!r} {10.0 * math.tanh(x)!r}\n" for x in xs))
        text = f"""
[fluids]
rho_plus = 1.22
rho_minus = 1000.0
g = 9.8
h_plus = 5.0

[profile]
kind = table
path = {table}

[mode]
k = 1.0

[run]
command = solve
"""
        assert main(["--config", write_config(tmp_path, text)]) == 0
        rows = [l for l in capsys.readouterr().out.strip().splitlines()
                if not l.startswith("#")]
        k, re_c, im_c, growth, resid, conv = (float(v) for v in rows[1].split(","))
        assert conv == 1
        assert im_c > 0.0  # tabulated tanh wind stays unstable at k = 1

    def test_percent_in_a_table_path(self, tmp_path, capsys):
        # values are literal: a % is itself, never an interpolation
        folder = tmp_path / "50%"
        folder.mkdir()
        table = folder / "wind%%.table"
        table.write_text("".join(f"{x!r} {10.0 * math.tanh(x)!r}\n"
                                 for x in (5.0 * i / 39 for i in range(40))))
        text = BASE.replace("command = solve", "command = asym").replace(
            TANH, f"kind = table\npath = {table}")
        path = write_config(tmp_path, text)
        assert main(["--config", path]) == 0
        out = capsys.readouterr().out
        assert "# unstable = True" in out.splitlines()
        assert main(["--config", path, "--dump-config"]) == 0
        dumped = capsys.readouterr().out
        assert f"path = {table}" in dumped.splitlines()
        again = write_config(tmp_path, dumped, "dumped.ini")
        assert main(["--config", again]) == 0
        assert capsys.readouterr().out == out

    def test_reused_parser_leaks_no_state(self, tmp_path, capsys,
                                          monkeypatch):
        path = write_config(tmp_path, BASE.replace(
            "sigma = 0.0", "sigma = 0.074").replace("command = solve",
                                                    "command = kh"))
        calls = [["--format", "json"], ["--command", "ck"], ["--dump-config"],
                 ["--format", "xml"], []]

        def call(args):
            try:
                status = main(["--config", path, *args])
            except SystemExit as exc:  # argparse refuses a bad argv
                status = exc.code
            return status, capsys.readouterr()

        # each call as the first of a process, on a parser of its own, then
        # all in turn on one parser
        monkeypatch.setattr(cli, "_argument_parser",
                            cli._argument_parser.__wrapped__)
        first = [call(args) for args in calls]
        monkeypatch.undo()
        assert [status for status, _ in first] == [0, 0, 0, 2, 0]
        cli._argument_parser.cache_clear()
        for args, want in zip(calls, first):
            assert call(args) == want, args
        assert cli._argument_parser.cache_info().misses == 1

    def test_asym_without_layer_is_informative(self, tmp_path, capsys):
        text = BASE.replace("u_max = 10.0", "u_max = 1.5").replace(
            "command = solve", "command = asym")
        assert main(["--config", write_config(tmp_path, text)]) == 0
        out = capsys.readouterr().out
        assert "no critical layer" in out

class TestConfigRuns:
    """Every config that runs exits 0, with what its row checks on stdout
    and nothing on stderr, imports no scipy, warns as often as its row says,
    and its --dump-config output reruns to the same stdout, byte for byte."""

    @pytest.mark.parametrize(
        "name", [name for name, c in CONFIGS.items() if c.status == 0])
    def test_config_run(self, runs, name):
        config, report = CONFIGS[name], runs[name]
        assert report["scipy"] == []
        run = report["run"]
        assert (run["status"], run["err"]) == (0, "")
        assert run["out"].strip()
        for check in config.checks:
            check(run["out"])
        assert [message.startswith("sufficient sign hypotheses")
                for message in run["warnings"]] == [True] * config.warns
        assert report["rerun"] == run


def assert_config_error(status, err):
    assert status == 2
    [line] = err.strip().splitlines()
    assert line.startswith("config error: ")


class TestMalformedInput:
    """Every malformed input exits 2 with one 'config error:' line."""

    @pytest.mark.parametrize(
        "name", [name for name, c in CONFIGS.items() if c.status == 2])
    def test_malformed_config(self, runs, name):
        report = runs[name]
        assert report["scipy"] == []
        assert report["run"]["warnings"] == []
        assert_config_error(report["run"]["status"], report["run"]["err"])
        for check in CONFIGS[name].checks:
            check(report["run"]["err"])

    @pytest.mark.parametrize("rows", [
        "0 0\n1 1\n0.5 2\n5 3\n",  # altitudes not increasing
        "0 0\n1 1\n5 3\n",  # fewer than 4 rows
        "0 0\n1 fast\n2 2\n5 3\n",  # a bad line
        "0 0\n1 nan\n2 2\n5 3\n",  # a sample that is not a number
    ], ids=["non_increasing", "three_rows", "bad_line", "nan_sample"])
    def test_malformed_table(self, tmp_path, capsys, rows):
        table = tmp_path / "wind.txt"
        table.write_text(rows)
        text = BASE.replace("command = solve", "command = asym").replace(
            TANH, f"kind = table\npath = {table}")
        status = main(["--config", write_config(tmp_path, text)])
        assert_config_error(status, capsys.readouterr().err)

    def test_unwritable_output(self, tmp_path, capsys):
        path = write_config(tmp_path, CK)
        out = str(tmp_path / "missing" / "out.csv")
        status = main(["--config", path, "--output", out])
        assert_config_error(status, capsys.readouterr().err)

    def test_negative_k_keeps_working(self, tmp_path, capsys):
        path = write_config(tmp_path, CK.replace("k = 1.0", "k = -1.0"))
        assert main(["--config", path]) == 0
        assert capsys.readouterr().out.startswith("k,c_plus,c_minus")

    def test_run_ignores_unread_keys(self, tmp_path, capsys):
        path = write_config(tmp_path, CK + "jobs = 4\n")
        assert main(["--config", path]) == 0
        assert capsys.readouterr().out.startswith("k,c_plus,c_minus")

    def test_dump_lists_every_default(self):
        cfg = parse_config(CK)
        dumped = dump_config(cfg)
        for line in ("n = 0", "spacing = linear", "max_iter = 60",
                     "sigma = 0", "branch = 1"):
            assert line in dumped.splitlines()
        assert parse_config(dumped) == cfg
