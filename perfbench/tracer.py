"""Out-of-program tracing of windwaves, one span per call into a layer.

The tracer wraps the public functions of each package module from outside and
rebinds every name that refers to them, in every ``windwaves`` module, because
the modules import each other's functions by name.  The closure returned by
``make_miles_residual`` is wrapped too (``dispersion.residual``).  Profile
``value``/``slope``/``curvature`` calls are only counted: a span each would
cost more than the call.  Spans live in memory until ``write``.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "eigensolver", "asymptotics", "dispersion", "rayleigh", "profiles")
EVAL_METHODS = ("value", "slope", "curvature")


def _steps(out):
    return out.n_steps


def _iterations(out):
    return out.iterations


#: per-function extraction of a work count from the returned value
COUNTS = {
    "rayleigh.integrate_rayleigh": _steps,
    "rayleigh.limiting_solution": _steps,
    "eigensolver.find_root": _iterations,
}


class Tracer:
    def __init__(self):
        # span = [name, start, end, parent, job, error, count]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.current = -1
        self.evals = 0
        self.job_evals: dict[int, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------
    def _wrap(self, name: str, fn, transform=None):
        count = COUNTS.get(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    stack[-1] if stack else -1, self.current, None, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[6] = count(out)
            return transform(out) if transform is not None else out

        return traced

    def _count_evals(self, fn):
        @functools.wraps(fn)
        def counted(obj, x2):
            self.evals += 1
            return fn(obj, x2)

        return counted

    @contextlib.contextmanager
    def job(self, package, index: int):
        """Trace one job: wrap on entry, restore the package on exit."""
        self.install(package)
        self.current, evals0 = index, self.evals
        try:
            yield
        finally:
            self.job_evals[index] += self.evals - evals0
            self.current = -1
            self.uninstall()

    # -- installation -----------------------------------------------------
    def install(self, package) -> None:
        """Wrap every public function of every layer and rebind all names."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    transform = None
                    if name == "dispersion.make_miles_residual":
                        transform = functools.partial(self._wrap, "dispersion.residual")
                    wrapped[id(fn)] = (fn, self._wrap(name, fn, transform))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped and wrapped[id(val)][0] is val:
                    self._set(mod, attr, wrapped[id(val)][1])

        profiles = sys.modules[f"{package.__name__}.profiles"]
        for _, cls in inspect.getmembers(profiles, inspect.isclass):
            if not issubclass(cls, profiles.ShearProfile):
                continue
            for meth in EVAL_METHODS:
                if meth in cls.__dict__:
                    self._set(cls, meth, self._count_evals(cls.__dict__[meth]))
            if "u_bounds" in cls.__dict__:
                self._set(cls, "u_bounds",
                          self._wrap("profiles.u_bounds", cls.__dict__["u_bounds"]))

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- analysis ---------------------------------------------------------
    def self_times(self) -> list[float]:
        """Span duration minus the time covered by its direct children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def _has_ancestor(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def job_counters(self) -> dict[int, dict[str, int]]:
        """Work counts per job; they must repeat exactly for one seed."""
        out: dict[int, Counter] = defaultdict(Counter)
        for s in self.spans:
            c = out[s[4]]
            c[s[0] + ".calls"] += 1
            if s[6]:
                c[s[0] + ".count"] += s[6]
            if s[5]:
                c[f"{s[0]}.raised.{s[5]}"] += 1
        for job, n in self.job_evals.items():
            out[job]["profiles.evals"] += n
        return {job: dict(c) for job, c in sorted(out.items())}

    def metrics(self, n_jobs: int) -> tuple[dict, dict]:
        """Per-layer metrics as per-job means, and the raised exceptions."""
        own = self.self_times()
        calls, total, self_s, count = Counter(), Counter(), Counter(), Counter()
        raised: dict[str, Counter] = defaultdict(Counter)
        layer_self = Counter()
        under = Counter()
        for i, s in enumerate(self.spans):
            name = s[0]
            calls[name] += 1
            # nested calls of one function would count their time twice
            if not self._has_ancestor(i, name):
                total[name] += s[2] - s[1]
            self_s[name] += own[i]
            layer_self[name.split(".")[0]] += own[i]
            count[name] += s[6]
            if s[5]:
                raised[name][s[5]] += 1
            if name == "dispersion.residual":
                for parent in ("eigensolver.count_roots", "eigensolver.find_root"):
                    if self._has_ancestor(i, parent):
                        under[parent] += 1
            if name == "profiles.find_critical_points" and \
                    self._has_ancestor(i, "asymptotics.miles_c_sharp"):
                under[name] += 1

        n = max(n_jobs, 1)
        per = lambda v: v / n
        ratio = lambda a, b: a / b if b else 0.0
        ir, ls = "rayleigh.integrate_rayleigh", "rayleigh.limiting_solution"
        fr, cr = "eigensolver.find_root", "eigensolver.count_roots"
        mc = "asymptotics.miles_c_sharp"
        ii = "rayleigh.interface_impedance"
        solves = calls[ir] - sum(raised[ir].values())
        steps = count[ir] + count[ls]
        m = {
            ir + ".calls": (per(calls[ir]), "count/job"),
            ir + ".s": (per(total[ir]), "s/job"),
            ir + ".self_s": (per(self_s[ir]), "s/job"),
            ir + ".steps": (per(count[ir]), "count/job"),
            ir + ".failures": (per(sum(raised[ir].values())), "count/job"),
            ls + ".calls": (per(calls[ls]), "count/job"),
            ls + ".s": (per(total[ls]), "s/job"),
            ls + ".self_s": (per(self_s[ls]), "s/job"),
            ls + ".steps": (per(count[ls]), "count/job"),
            "rayleigh.steps_per_solve": (ratio(count[ir], solves), "count"),
            "profiles.find_critical_points.calls":
                (per(calls["profiles.find_critical_points"]), "count/job"),
            "profiles.find_critical_points.s":
                (per(total["profiles.find_critical_points"]), "s/job"),
            "profiles.u_bounds.calls": (per(calls["profiles.u_bounds"]), "count/job"),
            "profiles.u_bounds.s": (per(total["profiles.u_bounds"]), "s/job"),
            "profiles.evals": (per(self.evals), "count/job"),
            "profiles.evals_per_step": (ratio(self.evals, steps), "count"),
            "dispersion.residual.calls": (per(calls["dispersion.residual"]), "count/job"),
            "dispersion.residual.self_s": (per(self_s["dispersion.residual"]), "s/job"),
            # defined in rayleigh; the residual reaches it through dispersion
            "dispersion.interface_impedance.calls": (per(calls[ii]), "count/job"),
            "dispersion.interface_impedance.s": (per(total[ii]), "s/job"),
            fr + ".calls": (per(calls[fr]), "count/job"),
            fr + ".s": (per(total[fr]), "s/job"),
            fr + ".iterations": (per(count[fr]), "count/job"),
            fr + ".failures": (per(sum(raised[fr].values())), "count/job"),
            cr + ".calls": (per(calls[cr]), "count/job"),
            cr + ".s": (per(total[cr]), "s/job"),
            cr + ".residuals": (per(under[cr]), "count/job"),
            "eigensolver.residuals_per_root": (ratio(under[fr], calls[fr]), "count"),
            "eigensolver.scan_k.calls": (per(calls["eigensolver.scan_k"]), "count/job"),
            "eigensolver.scan_k.s": (per(total["eigensolver.scan_k"]), "s/job"),
            mc + ".calls": (per(calls[mc]), "count/job"),
            mc + ".s": (per(total[mc]), "s/job"),
            mc + ".self_s": (per(self_s[mc]), "s/job"),
            mc + ".no_layer": (per(raised[mc]["NoCriticalLayer"]), "count/job"),
            "asymptotics.necessity_certificate.calls":
                (per(calls["asymptotics.necessity_certificate"]), "count/job"),
            "asymptotics.necessity_certificate.s":
                (per(total["asymptotics.necessity_certificate"]), "s/job"),
            "asymptotics.scans_per_c_sharp":
                (ratio(under["profiles.find_critical_points"], calls[mc]), "count"),
            "cli.main.s": (per(total["cli.main"]), "s/job"),
            "cli.parse_config.s": (per(total["cli.parse_config"]), "s/job"),
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (per(layer_self[layer]), "s/job")
        return m, {k: dict(v) for k, v in sorted(raised.items())}

    def write(self, path: Path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (s, o) in enumerate(zip(self.spans, own)):
                fh.write(json.dumps({"id": i, "name": s[0], "start": s[1],
                                     "end": s[2], "parent": s[3], "job": s[4],
                                     "self_s": o, "error": s[5],
                                     "count": s[6]}) + "\n")
