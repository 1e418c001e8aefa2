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

Sections [fluids], [mode], [solver], [pwl] and [certify] are dataclasses
(``_SECTIONS``): each key is a field, read as the field's type, and a field
without a default is a required key.  [profile] takes ``kind`` and that
kind's keys (``_PROFILE_KINDS``).  [run] ignores keys it does not read; an
unknown key anywhere else, or an unknown section, is an error.

Exit status: 0 success (including sweeps with annotated per-row failures),
2 configuration error (a malformed config, a profile its class refuses, an
unwritable output), 3 solver failure.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from io import StringIO
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

from .asymptotics import miles_c_sharp, necessity_certificate
from .dispersion import FluidParams, ck, kh_threshold, pwl_dispersion
from .dispersion import _check_depth_consistency
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
    #: the kind's keys and their values, in ``_PROFILE_KINDS`` order
    params: tuple[tuple[str, float | str], ...] = ()

    def build(self) -> ShearProfile:
        """The profile; one that its class refuses, or a table that cannot
        be read, is a ConfigError."""
        try:
            return _PROFILE_KINDS[self.kind][0](**dict(self.params))
        except (ValueError, OSError) as exc:
            raise ConfigError(f"bad {self.kind} profile: {exc}") from exc


@dataclass(frozen=True)
class ModeConfig:
    k: Optional[float] = None
    k_min: Optional[float] = None
    k_max: Optional[float] = None
    n: int = 0
    spacing: str = "linear"

    def k_values(self) -> list[float]:
        """The wavenumbers, each finite and nonzero."""
        if self.k is not None:
            ks = [self.k]
        elif self.k_min is None or self.k_max is None or self.n < 2:
            raise ConfigError("mode needs either k, or k_min/k_max/n >= 2")
        elif self.spacing == "linear":
            step = (self.k_max - self.k_min) / (self.n - 1)
            ks = [self.k_min + i * step for i in range(self.n)]
        elif self.spacing == "log":
            ratio = self.k_max / self.k_min if self.k_min else 0.0
            if not ratio > 0.0:
                raise ConfigError("log spacing needs k_min and k_max of one "
                                  "sign")
            ks = [self.k_min * ratio ** (i / (self.n - 1)) for i in range(self.n)]
        else:
            raise ConfigError(f"unknown spacing '{self.spacing}'")
        if not all(k != 0.0 and math.isfinite(k) for k in ks):
            raise ConfigError("wavenumber k must be finite and nonzero")
        return ks

    def single_k(self) -> float:
        ks = self.k_values()
        if len(ks) != 1:
            raise ConfigError("this command needs a single wavenumber k")
        return ks[0]


@dataclass(frozen=True)
class PwlConfig:
    mu: float
    x2_star: float
    eps_list: tuple[float, ...]

    def __post_init__(self):
        # each comparison is False for a NaN
        if not (self.eps_list and all(0.0 <= e < 1.0 for e in self.eps_list)):
            raise ValueError("need a whitespace-separated eps_list, each "
                             "entry in [0, 1)")


@dataclass(frozen=True)
class CertifyConfig:
    epsilon: float
    radius_fraction: float = 1.0
    im_floor: float = 1e-10

    def __post_init__(self):
        # each comparison is False for a NaN
        if not (0.0 < self.epsilon < 1.0 and 0.0 < self.radius_fraction <= 1.0
                and self.im_floor >= 0.0):
            raise ValueError("need 0 < epsilon < 1, 0 < radius_fraction <= 1 "
                             "and im_floor >= 0")


@dataclass(frozen=True)
class RunConfig:
    fluids: FluidParams
    profile: Optional[ProfileConfig]
    mode: ModeConfig
    command: str
    solver: ScanStrategy = ScanStrategy()
    output: Optional[str] = None
    fmt: str = "csv"
    branch: int = +1
    pwl: Optional[PwlConfig] = None
    certify: Optional[CertifyConfig] = None


#: how a key's text becomes a value of its field's annotated type
_PARSERS = {float: float, Optional[float]: float, int: int, str: str,
            tuple[float, ...]: lambda text: tuple(map(float, text.split()))}


def _keys(cls, skip: tuple[str, ...] = ()) -> dict:
    """Each field of cls but skip: the parser of its type, and its default
    (``MISSING`` for a required key)."""
    hints = get_type_hints(cls)
    return {f.name: (_PARSERS[hints[f.name]], f.default)
            for f in fields(cls) if f.name not in skip}


#: each section that is one dataclass: the class and its keys; each is also
#: the name of its RunConfig field
_SECTIONS = {
    "fluids": (FluidParams, _keys(FluidParams)),
    "mode": (ModeConfig, _keys(ModeConfig)),
    "solver": (ScanStrategy, _keys(ScanStrategy, skip=("branch",))),
    "pwl": (PwlConfig, _keys(PwlConfig)),
    "certify": (CertifyConfig, _keys(CertifyConfig)),
}


def _profile_keys(*names: str) -> dict:
    return {name: (str if name in ("kind", "path") else float, MISSING)
            for name in ("kind",) + names}


#: each profile kind: its constructor and its [profile] keys
_PROFILE_KINDS = {
    "constant": (ConstantProfile, _profile_keys("u0", "h_plus")),
    "linear": (LinearShearProfile, _profile_keys("u0", "mu", "h_plus")),
    "tanh": (TanhProfile, _profile_keys("u_max", "d", "h_plus")),
    "pwl": (PiecewiseLinearProfile.ramp, _profile_keys("mu", "x2_star", "h_plus")),
    "table": (load_tabulated, _profile_keys("path")),
}


def _value(name: str, sec: dict, key: str, parse, default=MISSING):
    """Key of section name, parsed, or default if the key is absent."""
    if key not in sec:
        if default is MISSING:
            raise ConfigError(f"missing '{key}' in [{name}]")
        return default
    try:
        return parse(sec[key])
    except ValueError as exc:
        raise ConfigError(
            f"bad value for '{key}' in [{name}]: {sec[key]!r}") from exc


def _read(name: str, sec: dict, keys: dict) -> dict:
    """The values of section name by key; an unknown key is an error."""
    for key in sec:
        if key not in keys:
            raise ConfigError(f"unknown key '{key}' in [{name}]")
    return {key: _value(name, sec, key, parse, default)
            for key, (parse, default) in keys.items()}


def _section(sections: dict, name: str, absent=None):
    """Section name as its dataclass, or absent if there is none."""
    if name not in sections:
        return absent
    cls, keys = _SECTIONS[name]
    values = _read(name, sections[name], keys)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"[{name}]: {exc}") from exc


def parse_config(text: str) -> RunConfig:
    """Parse an INI run configuration; raises ConfigError on any defect.

    Values are literal: a ``%`` is read as itself, never interpolated.
    """
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",),
                                   interpolation=None)
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from exc
    # each section as a plain dict, [DEFAULT]'s keys merged in
    sections = {name: dict(cp.items(name)) for name in cp.sections()}
    for name in sections:
        if name not in _SECTIONS and name not in ("profile", "run"):
            raise ConfigError(f"unknown section [{name}]")

    fluids = _section(sections, "fluids")
    if fluids is None:
        raise ConfigError("missing [fluids] section")
    mode = _section(sections, "mode", ModeConfig())
    if mode.k is not None and (mode.k_min is not None or mode.k_max is not None):
        raise ConfigError("give either k or a k range, not both")

    profile = None
    if "profile" in sections:
        kind = sections["profile"].get("kind", "")
        if kind not in _PROFILE_KINDS:
            raise ConfigError(f"unknown profile kind '{kind}'")
        params = _read("profile", sections["profile"], _PROFILE_KINDS[kind][1])
        del params["kind"]
        if kind == "table" and not Path(params["path"]).is_file():
            raise ConfigError(f"profile table not found: {params['path']}")
        profile = ProfileConfig(kind=kind, params=tuple(params.items()))

    rn = sections.get("run", {})
    if "command" not in rn:
        raise ConfigError("missing [run] command")
    command = rn["command"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command '{command}' (choose from {COMMANDS})")
    fmt = rn.get("format", RunConfig.fmt)
    if fmt not in ("csv", "json"):
        raise ConfigError(f"unknown output format '{fmt}'")
    branch = _value("run", rn, "branch", int, RunConfig.branch)
    if branch not in (1, -1):
        raise ConfigError("branch must be 1 or -1")

    return RunConfig(fluids=fluids, profile=profile, mode=mode, command=command,
                     solver=_section(sections, "solver", RunConfig.solver),
                     output=rn.get("output") or None, fmt=fmt, branch=branch,
                     pwl=_section(sections, "pwl"),
                     certify=_section(sections, "certify"))


def _text(value) -> str:
    """A value as INI text that parses back to it."""
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, tuple):
        return " ".join(_text(v) for v in value)
    return str(value)


def dump_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig back to normalized INI (parse-stable)."""
    sections = {name: [(key, getattr(getattr(cfg, name), key)) for key in keys]
                for name, (_, keys) in _SECTIONS.items()
                if getattr(cfg, name) is not None}
    if cfg.profile is not None:
        sections["profile"] = [("kind", cfg.profile.kind), *cfg.profile.params]
    sections["run"] = [("command", cfg.command), ("format", cfg.fmt),
                       ("branch", cfg.branch), ("output", cfg.output)]
    return "\n".join(
        f"[{name}]\n" + "".join(f"{key} = {_text(value)}\n"
                                for key, value in items if value is not None)
        for name, items in sections.items())


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
    """The profile, on the air column of [fluids]."""
    if cfg.profile is None:
        raise ConfigError(f"command '{cfg.command}' needs a [profile] section")
    profile = cfg.profile.build()
    try:
        _check_depth_consistency(profile, cfg.fluids)
    except ValueError as exc:
        raise ConfigError(f"[profile]: {exc}") from exc
    return profile


def _solve_rows(cfg: RunConfig, ks: Sequence[float]):
    if min(ks) <= 0.0:
        raise ConfigError(f"command '{cfg.command}' needs every k > 0")
    curve = scan_k(_require_profile(cfg), cfg.fluids, ks,
                   replace(cfg.solver, branch=cfg.branch))
    return curve, [(e.k, e.c.real, e.c.imag, e.growth_rate, e.residual_norm,
                    int(e.converged)) for e in curve.entries]


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
    try:
        cert = necessity_certificate(
            profile, cfg.fluids, k, cfg.certify.epsilon, radius,
            branch=cfg.branch, im_floor=cfg.certify.im_floor,
            rayleigh_tol=cfg.solver.rayleigh_tol)
    except ValueError as exc:  # e.g. a radius not above im_floor
        raise ConfigError(f"certify-stable: {exc}") from exc
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
        try:
            d = pwl_dispersion(cfg.pwl.mu, cfg.pwl.x2_star, cfg.fluids, k,
                               epsilon=eps)
        except ValueError as exc:  # fluids or a ramp the closed form refuses
            raise ConfigError(f"pwl: {exc}") from exc
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
    """The run as strict JSON: a non-finite cell is null."""
    cols = header.split(",")
    payload = {
        "command": command,
        "columns": cols,
        "rows": [[None if isinstance(v, float) and not math.isfinite(v) else v
                  for v in row] for row in rows],
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
        try:
            Path(cfg.output).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write the output: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def _argument_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use and kept: parsing
    leaves no state in it, so a process that calls :func:`main` many times
    builds it once."""
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
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _argument_parser().parse_args(argv)

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
