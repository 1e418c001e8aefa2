"""Seeded job generator and output checks for the four benchmark workloads.

A job is one INI config (plus a profile table for ``table``) written as plain
decimal floats.  Job ``i`` of a workload draws each parameter from stratum
``(i * m) mod S`` of its range, jittered inside the stratum by a generator
seeded with ``(workload, seed, i)``.  Every run therefore covers the whole
parameter range in the same order, and the seed only moves each value inside
its stratum.

The checks parse every output and refine or recompute the headline number
at a tight tolerance with the program's own solvers, outside the timed
region; see ``Workload.refine_every``.
"""
from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

H_PLUS = 5.0
G = 9.8
RHO_PLUS = 1.22
RHO_MINUS = 1000.0
EPSILON = 1.22e-3
REF_TOL = 1e-13
#: a reported headline number farther than this from its reference fails
MAX_REL_ERR = 1e-6
#: relative error floor: one unit in the last place of a double
ULP = 2.0 ** -52

FLUIDS = (f"[fluids]\nrho_plus = {RHO_PLUS}\nrho_minus = {RHO_MINUS}\n"
          f"g = {G}\nsigma = 0\nh_plus = {H_PLUS}\n")


def dec(x: float) -> str:
    """Shortest round-trip decimal without an exponent."""
    return np.format_float_positional(x, unique=True, trim="-")


def lerp(lo: float, hi: float, t: float) -> float:
    return lo + (hi - lo) * t


@dataclass
class Job:
    index: int
    config: Path
    #: generated files, config last
    files: list[Path]
    #: the parameters the generator drew, for building the reference
    params: dict = field(default_factory=dict)


@dataclass
class Check:
    ok: bool
    #: worst relative error of the headline number, None when not measured
    rel_err: float | None = None
    reason: str = ""


def _rows(text: str) -> tuple[list[str], list[dict]]:
    lines = text.splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, list(csv.DictReader(io.StringIO("\n".join(body))))


def _verdict(err: float | None) -> Check:
    ok = err is None or err <= MAX_REL_ERR
    return Check(ok, err, "" if ok else f"relative error {err:.3g}")


def _rel(a: float, ref: float) -> float:
    return max(abs(a - ref) / abs(ref), ULP)


class Workload:
    name = ""
    why = ""
    #: a timed run runs one input per stratum, in whole rounds
    strata = 16
    #: a tight reference costs about as much as the job; refine every n-th
    #: row (rotating with the job index) so a run fits the time budget
    refine_every = 1

    def refined(self, index: int, row: int = 0) -> bool:
        return (index + row) % self.refine_every == 0

    def job(self, seed: int, index: int, tmp: Path) -> Job:
        rng = random.Random(f"perfbench/{self.name}/{seed}/{index}")
        # multipliers are coprime to the strata count: a Latin-square order
        u = [((index * m) % self.strata + rng.random()) / self.strata
             for m in (1, 3, 5, 7)]
        return self._job(index, u, tmp)

    def _job(self, index: int, u: list[float], tmp: Path) -> Job:
        raise NotImplementedError

    def check(self, ww, job: Job, output: str) -> Check:
        raise NotImplementedError

    @staticmethod
    def _write(tmp: Path, index: int, text: str) -> Path:
        path = tmp / f"job-{index}.ini"
        path.write_text(text, encoding="utf-8")
        return path

    @staticmethod
    def _fluids(ww):
        return ww.FluidParams(rho_plus=RHO_PLUS, rho_minus=RHO_MINUS, g=G,
                              h_plus=H_PLUS)


def _tanh_section(u_max: float, d: float) -> str:
    return (f"[profile]\nkind = tanh\nu_max = {dec(u_max)}\nd = {dec(d)}\n"
            f"h_plus = {dec(H_PLUS)}\n")


class _RootCheck(Workload):
    """Refine the reported roots at tol = rayleigh_tol = 1e-13.

    The reported c is a Muller root at rayleigh_tol 1e-10, within ~1e-8 of
    the true root, so one secant step with spacing 1e-7 |c| lands within
    ~1e-14 |c| of it: as close as find_root's first Muller step, at two
    residual evaluations instead of four.
    """

    n_rows = 1

    def _profile(self, ww, job: Job):
        raise NotImplementedError

    def check(self, ww, job: Job, output: str) -> Check:
        _, rows = _rows(output)
        if len(rows) != self.n_rows:
            return Check(False, reason=f"{len(rows)} rows, want {self.n_rows}")
        if any(r["converged"] != "1" for r in rows):
            return Check(False, reason="non-converged row")
        profile = self._profile(ww, job)
        fluids = self._fluids(ww)
        errs = []
        for i, (row, k_want) in enumerate(zip(rows, job.params["ks"])):
            k = float(row["k"])
            if abs(k - k_want) > 1e-12 * k_want:
                return Check(False, reason=f"row k={k}, want {k_want}")
            if not self.refined(job.index, i):
                continue
            c = complex(float(row["re_c"]), float(row["im_c"]))
            residual = ww.make_miles_residual(profile, fluids, k, tol=REF_TOL)
            h = 1e-7 * abs(c)
            try:
                f0, f1 = residual(c), residual(c + h)
            except ww.WindwavesError as exc:
                return Check(False, reason=f"reference failed at k={k}: {exc}")
            c_ref = c - f0 * h / (f1 - f0)
            errs += [_rel(float(row["growth_rate"]), k * c_ref.imag),
                     _rel(c.real, c_ref.real)]
        return _verdict(max(errs, default=None))


class Sweep(_RootCheck):
    name = "sweep"
    why = ("growth curve: Muller chains near a critical layer, one limiting "
           "solve and two layer scans per k; the direct solver dominates")
    n_rows = 12
    refine_every = 3

    def _job(self, index, u, tmp):
        u_max, d = lerp(8.0, 12.0, u[0]), lerp(0.6, 1.4, u[1])
        k_min, k_max = lerp(0.25, 0.35, u[2]), 3.0
        text = (FLUIDS + _tanh_section(u_max, d)
                + f"[mode]\nk_min = {dec(k_min)}\nk_max = {dec(k_max)}\n"
                  f"n = {self.n_rows}\nspacing = linear\n"
                + "[run]\ncommand = sweep\nformat = csv\n")
        step = (k_max - k_min) / (self.n_rows - 1)
        ks = [k_min + i * step for i in range(self.n_rows)]
        path = self._write(tmp, index, text)
        return Job(index, path, [path], {"u_max": u_max, "d": d, "ks": ks})

    def _profile(self, ww, job):
        return ww.TanhProfile(job.params["u_max"], job.params["d"], H_PLUS)


class Table(_RootCheck):
    """Not in BENCHMARK.json: Muller needs 2 to 54 iterations on a spline
    table (its residual is rough at the knots), so a job takes 1.5 to 15 s
    and a run's throughput swings by more than any allowed bound."""

    name = "table"
    why = ("one solve on a spline table: the same path as sweep, but scalar "
           "PPoly profile calls make each direct solve ~10x dearer")
    strata = 8
    refine_every = 2

    def _job(self, index, u, tmp):
        u_max, d = lerp(8.0, 12.0, u[0]), lerp(0.6, 1.4, u[1])
        k = lerp(0.5, 2.0, u[2])
        n = 40 + min(int(u[3] * 25), 24)
        xs = [H_PLUS * i / (n - 1) for i in range(n)]
        us = [u_max * math.tanh(x / d) for x in xs]
        table = tmp / f"job-{index}.table"
        table.write_text(
            f"# tanh wind u_max={dec(u_max)} d={dec(d)}, {n} samples\n"
            + "".join(f"{dec(x)} {dec(v)}\n" for x, v in zip(xs, us)),
            encoding="utf-8")
        text = (FLUIDS + f"[profile]\nkind = table\npath = {table.as_posix()}\n"
                + f"[mode]\nk = {dec(k)}\n"
                + "[run]\ncommand = solve\nformat = csv\n")
        path = self._write(tmp, index, text)
        return Job(index, path, [table, path], {"xs": xs, "us": us, "ks": [k]})

    def _profile(self, ww, job):
        return ww.TabulatedProfile(job.params["xs"], job.params["us"])


class Certify(Workload):
    name = "certify"
    why = ("stability certificate: ~440 independent residuals far from any "
           "layer, no limiting solve or scan; where a batched kernel wins")

    def _job(self, index, u, tmp):
        u_max, d = lerp(0.5, 1.5, u[0]), lerp(0.6, 1.4, u[1])
        k = lerp(0.5, 2.0, u[2])
        text = (FLUIDS + _tanh_section(u_max, d)
                + f"[mode]\nk = {dec(k)}\n"
                + f"[certify]\nepsilon = {dec(EPSILON)}\n"
                + "[run]\ncommand = certify-stable\nformat = csv\n")
        path = self._write(tmp, index, text)
        return Job(index, path, [path], {"u_max": u_max, "d": d, "k": k})

    def check(self, ww, job, output):
        _, rows = _rows(output)
        if len(rows) != 1:
            return Check(False, reason=f"{len(rows)} rows, want 1")
        row = rows[0]
        if (row["certified"], row["count_upper"], row["count_lower"]) != ("1", "0", "0"):
            return Check(False, reason=f"not certified: {row}")
        # The only real-valued columns have closed forms (deep water,
        # sigma = 0, U in [0, u_max tanh(h+/d)]): check them to rounding.
        k, p = job.params["k"], job.params
        c_k = math.sqrt(G / k)
        margin = min(c_k, abs(c_k - p["u_max"] * math.tanh(H_PLUS / p["d"])))
        return _verdict(max(_rel(float(row["k"]), k), _rel(float(row["c_k"]), c_k),
                            _rel(float(row["margin"]), margin),
                            _rel(float(row["radius"]), 0.25 * margin)))


class Asym(Workload):
    name = "asym"
    why = ("growth constant only: the limiting solver and critical-layer "
           "scans dominate, no root finding; short jobs show CLI overhead")
    refine_every = 4

    def _job(self, index, u, tmp):
        u_max, d = lerp(8.0, 12.0, u[0]), lerp(0.6, 1.4, u[1])
        k = 0.3 * (10.0 / 0.3) ** u[2]
        text = (FLUIDS + _tanh_section(u_max, d)
                + f"[mode]\nk = {dec(k)}\n"
                + "[run]\ncommand = asym\nformat = csv\n")
        path = self._write(tmp, index, text)
        return Job(index, path, [path], {"u_max": u_max, "d": d, "k": k})

    def check(self, ww, job, output):
        comments, rows = _rows(output)
        values = dict(c.split(" = ", 1) for c in comments if " = " in c)
        if "c_sharp" not in values or not rows:
            return Check(False, reason="no c_sharp or no layer rows")
        if not self.refined(job.index):
            return Check(True)
        p = job.params
        profile = ww.TanhProfile(p["u_max"], p["d"], H_PLUS)
        ref = ww.miles_c_sharp(profile, self._fluids(ww), p["k"], tol=REF_TOL)
        return _verdict(_rel(float(values["c_sharp"]), ref.c_sharp))


WORKLOADS = {w.name: w for w in (Sweep(), Certify(), Table(), Asym())}
