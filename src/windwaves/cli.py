"""Batch front-end: INI-style configs in, CSV/JSON tables out.

Commands
--------
ck              phase-speed table of the vacuum-limit wave
kh              uniform-wind onset threshold (speed, wavenumber, wavelength)
solve           single-k eigenvalue, seeded from the growth asymptotics
sweep           growth curve over a k range (CSV schema:
                k,re_c,im_c,growth_rate,residual,converged)
asym            growth-constant report with the per-layer table
certify-stable  off-axis root count near c_k (no-critical-layer regime)
pwl             piecewise-linear ramp cubic over a list of density ratios

Exit status: 0 success (including sweeps with annotated per-row failures),
2 configuration error, 3 solver failure.
"""
from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass, replace
from io import StringIO
from pathlib import Path
from typing import Optional, Sequence

from .asymptotics import miles_c_sharp, necessity_certificate
from .dispersion import FluidParams, ck, kh_threshold, pwl_dispersion
from .eigensolver import ScanStrategy, scan_k
from .errors import ConfigError, NoCriticalLayer, WindwavesError
from .profiles import (
    ConstantProfile,
    LinearShearProfile,
    PiecewiseLinearProfile,
    ShearProfile,
    TanhProfile,
    load_tabulated,
)

__all__ = ["RunConfig", "parse_config", "dump_config", "run", "main"]

COMMANDS = ("ck", "kh", "solve", "sweep", "asym", "certify-stable", "pwl")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class ProfileConfig:
    kind: str
    params: tuple[tuple[str, float], ...] = ()
    table: Optional[str] = None

    def get(self, name: str) -> float:
        for key, val in self.params:
            if key == name:
                return val
        raise ConfigError(f"profile option '{name}' missing for kind={self.kind}")

    def build(self) -> ShearProfile:
        if self.kind == "constant":
            return ConstantProfile(self.get("u0"), h_plus=self.get("h_plus"))
        if self.kind == "linear":
            return LinearShearProfile(self.get("u0"), self.get("mu"),
                                      h_plus=self.get("h_plus"))
        if self.kind == "tanh":
            return TanhProfile(self.get("u_max"), self.get("d"),
                               h_plus=self.get("h_plus"))
        if self.kind == "pwl":
            return PiecewiseLinearProfile.ramp(self.get("mu"), self.get("x2_star"),
                                               h_plus=self.get("h_plus"))
        if self.kind == "table":
            if self.table is None:
                raise ConfigError("table profile needs 'path'")
            return load_tabulated(self.table)
        raise ConfigError(f"unknown profile kind '{self.kind}'")


@dataclass(frozen=True)
class ModeConfig:
    k: Optional[float] = None
    k_min: Optional[float] = None
    k_max: Optional[float] = None
    n: int = 0
    spacing: str = "linear"

    def k_values(self) -> list[float]:
        if self.k is not None:
            return [self.k]
        if self.k_min is None or self.k_max is None or self.n < 2:
            raise ConfigError("mode needs either k, or k_min/k_max/n >= 2")
        if self.spacing == "linear":
            step = (self.k_max - self.k_min) / (self.n - 1)
            return [self.k_min + i * step for i in range(self.n)]
        if self.spacing == "log":
            ratio = self.k_max / self.k_min
            return [self.k_min * ratio ** (i / (self.n - 1)) for i in range(self.n)]
        raise ConfigError(f"unknown spacing '{self.spacing}'")

    def single_k(self) -> float:
        ks = self.k_values()
        if len(ks) != 1:
            raise ConfigError("this command needs a single wavenumber k")
        return ks[0]


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-11
    max_iter: int = 60
    rayleigh_tol: float = 1e-10


@dataclass(frozen=True)
class PwlConfig:
    mu: float
    x2_star: float
    eps_list: tuple[float, ...]


@dataclass(frozen=True)
class CertifyConfig:
    epsilon: float
    radius_fraction: float = 1.0
    im_floor: float = 1e-10


@dataclass(frozen=True)
class RunConfig:
    fluids: FluidParams
    profile: Optional[ProfileConfig]
    mode: ModeConfig
    command: str
    solver: SolverConfig = SolverConfig()
    output: Optional[str] = None
    fmt: str = "csv"
    branch: int = +1
    pwl: Optional[PwlConfig] = None
    certify: Optional[CertifyConfig] = None


_FLUID_KEYS = ("rho_plus", "rho_minus", "g", "sigma", "h_plus", "h_minus")
_PROFILE_KINDS = {
    "constant": ("u0", "h_plus"),
    "linear": ("u0", "mu", "h_plus"),
    "tanh": ("u_max", "d", "h_plus"),
    "pwl": ("mu", "x2_star", "h_plus"),
    "table": (),
}


def _getfloat(sec, key: str, default: Optional[float] = None) -> float:
    if key not in sec:
        if default is None:
            raise ConfigError(f"missing '{key}' in [{sec.name}]")
        return default
    try:
        return float(sec[key])
    except ValueError as exc:
        raise ConfigError(f"bad float for '{key}' in [{sec.name}]: {sec[key]!r}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse an INI run configuration; raises ConfigError on any defect."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc

    if "fluids" not in cp:
        raise ConfigError("missing [fluids] section")
    fl = cp["fluids"]
    for key in fl:
        if key not in _FLUID_KEYS:
            raise ConfigError(f"unknown key '{key}' in [fluids]")
    try:
        fluids = FluidParams(
            rho_plus=_getfloat(fl, "rho_plus"),
            rho_minus=_getfloat(fl, "rho_minus"),
            g=_getfloat(fl, "g"),
            sigma=_getfloat(fl, "sigma", 0.0),
            h_plus=_getfloat(fl, "h_plus", math.inf),
            h_minus=_getfloat(fl, "h_minus", math.inf),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    profile = None
    if "profile" in cp:
        sec = cp["profile"]
        kind = sec.get("kind", "")
        if kind not in _PROFILE_KINDS:
            raise ConfigError(f"unknown profile kind '{kind}'")
        if kind == "table":
            path = sec.get("path")
            if not path:
                raise ConfigError("table profile needs 'path'")
            if not Path(path).exists():
                raise ConfigError(f"profile table not found: {path}")
            profile = ProfileConfig(kind=kind, table=path)
        else:
            wanted = _PROFILE_KINDS[kind]
            for key in sec:
                if key != "kind" and key not in wanted:
                    raise ConfigError(f"unknown key '{key}' for {kind} profile")
            params = tuple((name, _getfloat(sec, name)) for name in wanted)
            profile = ProfileConfig(kind=kind, params=params)

    if "run" not in cp or "command" not in cp["run"]:
        raise ConfigError("missing [run] command")
    rn = cp["run"]
    command = rn["command"].strip()
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}' (choose from {COMMANDS})")

    mode = ModeConfig()
    if "mode" in cp:
        sec = cp["mode"]
        for key in sec:
            if key not in ("k", "k_min", "k_max", "n", "spacing"):
                raise ConfigError(f"unknown key '{key}' in [mode]")
        if "k" in sec and ("k_min" in sec or "k_max" in sec):
            raise ConfigError("give either k or a k range, not both")
        mode = ModeConfig(
            k=_getfloat(sec, "k") if "k" in sec else None,
            k_min=_getfloat(sec, "k_min") if "k_min" in sec else None,
            k_max=_getfloat(sec, "k_max") if "k_max" in sec else None,
            n=int(sec.get("n", "0")),
            spacing=sec.get("spacing", "linear"),
        )

    solver = SolverConfig()
    if "solver" in cp:
        sec = cp["solver"]
        for key in sec:
            if key not in ("tol", "max_iter", "rayleigh_tol"):
                raise ConfigError(f"unknown key '{key}' in [solver]")
        solver = SolverConfig(
            tol=_getfloat(sec, "tol", 1e-11),
            max_iter=int(sec.get("max_iter", "60")),
            rayleigh_tol=_getfloat(sec, "rayleigh_tol", 1e-10),
        )

    pwl_cfg = None
    if "pwl" in cp:
        sec = cp["pwl"]
        eps_raw = sec.get("eps_list", "").split()
        if not eps_raw:
            raise ConfigError("[pwl] needs a whitespace-separated eps_list")
        pwl_cfg = PwlConfig(mu=_getfloat(sec, "mu"),
                            x2_star=_getfloat(sec, "x2_star"),
                            eps_list=tuple(float(e) for e in eps_raw))

    certify_cfg = None
    if "certify" in cp:
        sec = cp["certify"]
        certify_cfg = CertifyConfig(
            epsilon=_getfloat(sec, "epsilon"),
            radius_fraction=_getfloat(sec, "radius_fraction", 1.0),
            im_floor=_getfloat(sec, "im_floor", 1e-10),
        )

    fmt = rn.get("format", "csv").strip()
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format '{fmt}'")
    output = rn.get("output", "").strip() or None
    branch = int(rn.get("branch", "1"))
    if branch not in (1, -1):
        raise ConfigError("branch must be 1 or -1")

    return RunConfig(fluids=fluids, profile=profile, mode=mode, command=command,
                     solver=solver, output=output, fmt=fmt, branch=branch,
                     pwl=pwl_cfg, certify=certify_cfg)


def dump_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig back to normalized INI (parse-stable)."""
    out = StringIO()
    fl = cfg.fluids
    out.write("[fluids]\n")
    for key in _FLUID_KEYS:
        out.write(f"{key} = {_fmt(getattr(fl, key))}\n")
    if cfg.profile is not None:
        out.write("\n[profile]\n")
        out.write(f"kind = {cfg.profile.kind}\n")
        if cfg.profile.table is not None:
            out.write(f"path = {cfg.profile.table}\n")
        for name, val in cfg.profile.params:
            out.write(f"{name} = {_fmt(val)}\n")
    out.write("\n[mode]\n")
    if cfg.mode.k is not None:
        out.write(f"k = {_fmt(cfg.mode.k)}\n")
    elif cfg.mode.k_min is not None:
        out.write(f"k_min = {_fmt(cfg.mode.k_min)}\n")
        out.write(f"k_max = {_fmt(cfg.mode.k_max)}\n")
        out.write(f"n = {cfg.mode.n}\n")
        out.write(f"spacing = {cfg.mode.spacing}\n")
    out.write("\n[solver]\n")
    out.write(f"tol = {_fmt(cfg.solver.tol)}\n")
    out.write(f"max_iter = {cfg.solver.max_iter}\n")
    out.write(f"rayleigh_tol = {_fmt(cfg.solver.rayleigh_tol)}\n")
    if cfg.pwl is not None:
        out.write("\n[pwl]\n")
        out.write(f"mu = {_fmt(cfg.pwl.mu)}\n")
        out.write(f"x2_star = {_fmt(cfg.pwl.x2_star)}\n")
        out.write(f"eps_list = {' '.join(_fmt(e) for e in cfg.pwl.eps_list)}\n")
    if cfg.certify is not None:
        out.write("\n[certify]\n")
        out.write(f"epsilon = {_fmt(cfg.certify.epsilon)}\n")
        out.write(f"radius_fraction = {_fmt(cfg.certify.radius_fraction)}\n")
        out.write(f"im_floor = {_fmt(cfg.certify.im_floor)}\n")
    out.write("\n[run]\n")
    out.write(f"command = {cfg.command}\n")
    out.write(f"format = {cfg.fmt}\n")
    out.write(f"branch = {cfg.branch}\n")
    if cfg.output:
        out.write(f"output = {cfg.output}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# command implementations: each returns (header, rows, comments)
# ---------------------------------------------------------------------------

def _cmd_ck(cfg: RunConfig):
    rows = []
    for k in cfg.mode.k_values():
        rows.append((k, ck(cfg.fluids, k, +1), ck(cfg.fluids, k, -1)))
    return ("k,c_plus,c_minus", rows, [])


def _cmd_kh(cfg: RunConfig):
    th = kh_threshold(cfg.fluids)
    return ("u0_min,k_crit,wavelength",
            [(th.u0_min, th.k_crit, th.wavelength)],
            ["units: m/s, rad/m, m"])


def _require_profile(cfg: RunConfig) -> ShearProfile:
    if cfg.profile is None:
        raise ConfigError(f"command '{cfg.command}' needs a [profile] section")
    return cfg.profile.build()


def _solve_rows(cfg: RunConfig, ks: Sequence[float]):
    profile = _require_profile(cfg)
    strategy = ScanStrategy(branch=cfg.branch, tol=cfg.solver.tol,
                            max_iter=cfg.solver.max_iter,
                            rayleigh_tol=cfg.solver.rayleigh_tol)
    curve = scan_k(profile, cfg.fluids, ks, strategy)
    rows = []
    for e in curve.entries:
        rows.append((e.k, e.c.real, e.c.imag, e.growth_rate, e.residual_norm,
                     int(e.converged)))
    return curve, rows


def _cmd_solve(cfg: RunConfig):
    k = cfg.mode.single_k()
    curve, rows = _solve_rows(cfg, [k])
    entry = curve.entries[0]
    if not entry.converged:
        raise WindwavesError(f"solve failed at k={k}: {entry.message}")
    comments = [f"classification = {entry.classification}"]
    return ("k,re_c,im_c,growth_rate,residual,converged", rows, comments)


def _cmd_sweep(cfg: RunConfig):
    ks = cfg.mode.k_values()
    curve, rows = _solve_rows(cfg, ks)
    comments = [f"failed at k = {_fmt(e.k)}: {e.message}"
                for e in curve.entries if not e.converged]
    return ("k,re_c,im_c,growth_rate,residual,converged", rows, comments)


def _cmd_asym(cfg: RunConfig):
    profile = _require_profile(cfg)
    k = cfg.mode.single_k()
    try:
        asym = miles_c_sharp(profile, cfg.fluids, k, cfg.branch,
                             tol=cfg.solver.rayleigh_tol)
    except NoCriticalLayer as exc:
        return ("s,u_prime,u_double_prime,u1,term", [],
                [f"no critical layer: {exc}",
                 f"c_k = {_fmt(ck(cfg.fluids, k, cfg.branch))}"])
    comments = [
        f"c_k = {_fmt(asym.c_k)}",
        f"f_I0 = {_fmt(asym.f_i0)}",
        f"c_sharp = {_fmt(asym.c_sharp)}",
        f"unstable = {asym.unstable}",
        f"sufficient_signs_hold = {asym.sufficient_signs_hold}",
    ]
    rows = [(l.position, l.u_prime, l.u_double_prime, l.u1, l.term)
            for l in asym.layers]
    return ("s,u_prime,u_double_prime,u1,term", rows, comments)


def _cmd_certify(cfg: RunConfig):
    if cfg.certify is None:
        raise ConfigError("certify-stable needs a [certify] section")
    profile = _require_profile(cfg)
    k = cfg.mode.single_k()
    c_k = ck(cfg.fluids, k, cfg.branch)
    umin, umax = profile.u_bounds()
    margin = min(abs(c_k - umin), abs(c_k - umax))
    radius = 0.25 * margin * cfg.certify.radius_fraction
    cert = necessity_certificate(profile, cfg.fluids, k, cfg.certify.epsilon,
                                 radius, branch=cfg.branch,
                                 im_floor=cfg.certify.im_floor,
                                 rayleigh_tol=cfg.solver.rayleigh_tol)
    rows = [(cert.k, cert.epsilon, cert.c_k, cert.margin, cert.search_radius,
             cert.count_upper, cert.count_lower,
             int(cert.certified_stable_near_ck))]
    return ("k,epsilon,c_k,margin,radius,count_upper,count_lower,certified",
            rows, [])


def _cmd_pwl(cfg: RunConfig):
    if cfg.pwl is None:
        raise ConfigError("pwl needs a [pwl] section")
    k = cfg.mode.single_k()
    rows = []
    comments = []
    for i, eps in enumerate(cfg.pwl.eps_list):
        d = pwl_dispersion(cfg.pwl.mu, cfg.pwl.x2_star, cfg.fluids, k,
                           epsilon=eps)
        if i == 0:
            comments += [f"alpha = {_fmt(d.cubic.alpha)}",
                         f"beta = {_fmt(d.cubic.beta)}",
                         f"u_star = {_fmt(d.cubic.u_star)}"]
        for j, r in enumerate(d.roots):
            rows.append((eps, j, r.real, r.imag,
                         r.imag / math.sqrt(eps) if eps > 0 else float("nan")))
    return ("eps,root,re_c,im_c,im_c_over_sqrt_eps", rows, comments)


_DISPATCH = {
    "ck": _cmd_ck,
    "kh": _cmd_kh,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "asym": _cmd_asym,
    "certify-stable": _cmd_certify,
    "pwl": _cmd_pwl,
}


def _render_csv(header: str, rows, comments) -> str:
    out = StringIO()
    for comment in comments:
        out.write(f"# {comment}\n")
    out.write(header + "\n")
    for row in rows:
        cells = [_fmt(v) if isinstance(v, float) else str(v) for v in row]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


def _render_json(command: str, header: str, rows, comments) -> str:
    cols = header.split(",")
    payload = {
        "command": command,
        "columns": cols,
        "rows": [list(row) for row in rows],
        "notes": list(comments),
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def run(cfg: RunConfig) -> int:
    """Execute one configured command; returns the process exit status."""
    try:
        header, rows, comments = _DISPATCH[cfg.command](cfg)
    except ConfigError:
        raise
    except WindwavesError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3

    text = (_render_csv(header, rows, comments) if cfg.fmt == "csv"
            else _render_json(cfg.command, header, rows, comments))
    if cfg.output:
        Path(cfg.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="windwaves",
        description="Wind-over-water shear flow stability analyses (SI units)")
    parser.add_argument("--config", required=True, help="INI run configuration")
    parser.add_argument("--command", choices=COMMANDS,
                        help="override the [run] command")
    parser.add_argument("--output", help="override the output path")
    parser.add_argument("--format", choices=("csv", "json"), dest="fmt",
                        help="override the output format")
    parser.add_argument("--dump-config", action="store_true",
                        help="echo the normalized configuration and exit")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(text)
        if args.command:
            cfg = replace(cfg, command=args.command)
        if args.output:
            cfg = replace(cfg, output=args.output)
        if args.fmt:
            cfg = replace(cfg, fmt=args.fmt)
        if args.dump_config:
            sys.stdout.write(dump_config(cfg))
            return 0
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
