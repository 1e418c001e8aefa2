import json
import math
import warnings

import pytest

from windwaves import asymptotics, cli
from windwaves.cli import dump_config, main, parse_config
from windwaves.dispersion import FluidParams, ck
from windwaves.errors import ConfigError
from windwaves.profiles import PiecewiseLinearProfile
from windwaves.rayleigh import pwl_impedance_cascade

BASE = """
[fluids]
rho_plus = 1.22
rho_minus = 1000.0
g = 9.8
sigma = 0.0
h_plus = 5.0
h_minus = inf

[profile]
kind = tanh
u_max = 10.0
d = 1.0
h_plus = 5.0

[mode]
k = 1.0

[run]
command = solve
"""


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
        text = BASE.replace("kind = tanh\nu_max = 10.0\nd = 1.0\nh_plus = 5.0",
                            "kind = table\npath = /nonexistent/wind.txt")
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
        text = BASE.replace("command = solve", "command = sweep").replace(
            "k = 1.0", "k_min = 0.5\nk_max = 2.0\nn = 3")
        cfg_path = write_config(tmp_path, text)
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

    def test_asym_layer_table(self, tmp_path, capsys):
        text = BASE.replace("command = solve", "command = asym")
        assert main(["--config", write_config(tmp_path, text)]) == 0
        out = capsys.readouterr().out
        assert "c_sharp" in out
        assert "s,u_prime,u_double_prime,u1,term" in out
        data_rows = [l for l in out.strip().splitlines()
                     if l and not l.startswith("#")][1:]
        assert len(data_rows) == 1

    def test_asym_on_piecewise_linear_wind(self, tmp_path, capsys):
        # U'' vanishes at the layer inside the ramp, so the layer's term and
        # c_sharp are 0; below the layer y'' = k^2 y with y(0) = 1, y'(0) = Z
        text = BASE.replace("command = solve", "command = asym").replace(
            "kind = tanh\nu_max = 10.0\nd = 1.0",
            "kind = pwl\nmu = 10.0\nx2_star = 1.0")
        # every layer term is 0, so the sign hypotheses say nothing: no
        # warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
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
        # growth constant, 0, from the closed form, without a warning
        text = BASE.replace("command = solve", "command = asym").replace(
            "h_plus = 5.0", "h_plus = inf").replace(
            "kind = tanh\nu_max = 10.0\nd = 1.0",
            "kind = pwl\nmu = 10.0\nx2_star = 1.0")
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
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
        text = BASE.replace("u_max = 10.0", "u_max = 1.5").replace(
            "command = solve", "command = certify-stable") + """
[certify]
epsilon = 0.001
"""
        assert main(["--config", write_config(tmp_path, text)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        row = lines[-1].split(",")
        assert row[-1] == "1"  # certified
        assert row[5] == "0" and row[6] == "0"

    def test_certify_stable_output_same_on_either_route(self, tmp_path, capsys,
                                                       monkeypatch):
        text = BASE.replace("u_max = 10.0", "u_max = 1.5").replace(
            "command = solve", "command = certify-stable") + """
[certify]
epsilon = 0.001
"""
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


CK = BASE.replace("command = solve", "command = ck")
TANH = "kind = tanh\nu_max = 10.0\nd = 1.0\nh_plus = 5.0"
PWL = BASE.replace("command = solve", "command = pwl") + """
[pwl]
mu = 5.51
x2_star = 1.0
eps_list = 0.01
"""
#: certify-stable on a wind below c_k, which certifies
CERTIFY = BASE.replace("u_max = 10.0", "u_max = 1.5").replace(
    "command = solve", "command = certify-stable") + """
[certify]
epsilon = 0.001
"""
#: a three-k sweep of the tanh wind
SWEEP = BASE.replace("command = solve", "command = sweep").replace(
    "k = 1.0", "k_min = 0.5\nk_max = 2.0\nn = 3")
MALFORMED = {
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
}


def assert_config_error(status, capsys):
    assert status == 2
    [line] = capsys.readouterr().err.strip().splitlines()
    assert line.startswith("config error: ")


class TestMalformedInput:
    """Every malformed input exits 2 with one 'config error:' line."""

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_config(self, tmp_path, capsys, name):
        path = write_config(tmp_path, MALFORMED[name])
        assert_config_error(main(["--config", path]), capsys)

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
        assert_config_error(main(["--config", write_config(tmp_path, text)]),
                            capsys)

    def test_unwritable_output(self, tmp_path, capsys):
        path = write_config(tmp_path, CK)
        out = str(tmp_path / "missing" / "out.csv")
        assert_config_error(main(["--config", path, "--output", out]), capsys)

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
