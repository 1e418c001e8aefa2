"""windwaves benchmark: seeded CLI jobs driven in-process, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Each job is a generated INI config (and profile table) passed to
``windwaves.cli.main``; the next job starts when the previous one returns.
``--trace 0`` times the jobs untraced and reports the end-to-end metrics.  It
runs one input per stratum of the workload's parameter ranges, in whole
rounds, so every run times the same mix of inputs.  The host's speed is
probed while each job runs and after it, and job latencies are reported at the
probe's reference speed, which takes out the host's drift; each input's
latency is its mean over the rounds.  The wall-clock figures are in the
report.  ``--trace 1`` runs each job under ``tracer.Tracer`` and then again
untraced, for the same total time, and reports the per-layer metrics
and the tracing overhead.  Outputs are checked after the timed region, and
every repeat of an input must reproduce its output byte for byte.  The last
line of stdout is the JSON result; the ``report`` line before it carries the
input digest, the environment and the details behind each metric, including
``failed_frac``, which is zero at a healthy commit and so is not a gated
metric (``failed`` and ``attempted`` carry it).  BLAS threads are inherited
from the caller, not pinned, and recorded.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import signal
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

from workloads import WORKLOADS, Asym, Check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: scratch space, relative to ROOT (the working directory of a run)
WORK = Path(".bench_build") / "perfbench"

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "accuracy_digits": "digits",
    "peak_rss_mb": "MB",
}
#: fresh processes timed for setup_s
SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_CODE = """\
import sys
from pathlib import Path
import windwaves
from windwaves.cli import parse_config
parse_config(Path(sys.argv[1]).read_text(encoding="utf-8")).profile.build()
"""

#: the probe's wall time on an idle core of the 2.1 GHz Xeon host the
#: benchmark was written on; job timings are reported at that speed
PROBE_REF_S = 0.001
#: interval of the probes taken while a job runs
SAMPLE_EVERY_S = 0.05


def _probe_rhs(x, y):
    return np.array([y[1], -4.0 * y[0] + 0.1j * y[1]])


def probe() -> float:
    """Wall time of a fixed DOP853 solve that shares no code with windwaves.

    A shared host runs this process at a speed that wanders by up to 1.8x
    over minutes: on a 2-core 2.1 GHz Xeon guest, ten runs of one commit
    spread by 17-33% (interquartile range over median) in raw jobs per
    second.  The probe does the same kind of work as the Rayleigh shots
    (scipy's Python-level DOP853 on a small complex system), so it slows by
    the same factor as the jobs, and no change to windwaves can move it;
    scaled by it, the same runs spread by 1-3%.  Set-up time (imports in a
    fresh process, which may run on another core) follows the probe only
    loosely, so it is reported as measured.  The collector is off during
    the probe, so the job's garbage is not charged to it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        solve_ivp(_probe_rhs, (0.0, 2.0), np.array([1.0 + 0j, 0j]),
                  method="DOP853", rtol=1e-10, atol=1e-12)
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Probes every ``SAMPLE_EVERY_S`` while a job runs, from a SIGALRM
    handler, so a job of seconds is scaled by the host's speed over its
    whole span and not only at its ends.  ``spent`` is the time the
    handler took, which is not the job's."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._saved = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)


def at_ref_speed(rec: dict) -> float:
    """A job's latency at the reference speed: scaled by the host's mean
    speed over the probes taken during and either side of it, each probe's
    speed being ``PROBE_REF_S`` over its time.  A probe stalled by a
    preemption then counts as a short slow spell, as it is, and not as a
    long one."""
    return rec["latency"] * statistics.fmean(PROBE_REF_S / p for p in rec["probes"])


def measure_setup(config: Path) -> list[float]:
    """Wall time of fresh processes that import, parse and build one job.

    The caller has imported windwaves already, so bytecode is cached.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(config)],
                       env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


class Runner:
    """Runs generated jobs through ``windwaves.cli.main`` and records them."""

    def __init__(self, ww, workload, seed: int, tmp: Path):
        self.ww, self.wl, self.seed, self.tmp = ww, workload, seed, tmp
        self.jobs = []
        self.digest = hashlib.sha256()

    def job(self, index: int):
        while len(self.jobs) <= index:
            job = self.wl.job(self.seed, len(self.jobs), self.tmp)
            for path in job.files:
                self.digest.update(path.name.encode() + b"\0" + path.read_bytes())
            self.jobs.append(job)
        return self.jobs[index]

    def run(self, job, tag: str = "") -> dict:
        out = self.tmp / f"out-{job.index}{tag}.csv"
        out.unlink(missing_ok=True)
        argv = ["--config", str(job.config), "--output", str(out)]
        error, status = None, None
        t0 = time.perf_counter()
        try:
            status = self.ww.cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a job that raises is a failed job
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        text = out.read_text(encoding="utf-8") if out.exists() else None
        return {"index": job.index, "latency": latency, "status": status,
                "error": error, "output": text}

    def rounds(self, seconds: float) -> list[dict]:
        """Closed loop over one input per stratum, in whole rounds.

        Each round runs every input once, so the mix of inputs timed is the
        same in every run and only the seed's jitter inside each stratum
        changes it.  Rounds stop when one more would end farther from
        ``seconds`` of job time than stopping now.  A ``Sampler`` probes
        the host's speed while each job runs, and a ``probe`` follows it.
        """
        jobs = [self.job(i) for i in range(self.wl.strata)]
        records, busy, before, sampler = [], 0.0, probe(), Sampler()
        for r in itertools.count():
            start = busy
            for job in jobs:
                with sampler:
                    rec = self.run(job)
                after = probe()
                rec["latency"] -= sampler.spent
                rec.update(round=r, probes=[before, *sampler.samples, after])
                records.append(rec)
                busy += rec["latency"]
                before = after
            if busy + (busy - start) / 2 >= seconds:
                return records

    def traced_loop(self, seconds: float, tracer) -> tuple[list[dict], list[dict]]:
        """Each job traced, then at once untraced: a shared machine's speed
        drifts by ~10% within seconds, so only back-to-back pairs show the
        tracing overhead.
        """
        traced, plain, busy = [], [], 0.0
        while busy < seconds:
            job = self.job(len(traced))
            with tracer.job(self.ww, job.index):
                traced.append(self.run(job))
            plain.append(self.run(job, tag="-plain"))
            busy += traced[-1]["latency"] + plain[-1]["latency"]
        return traced, plain

    def warm_up(self) -> None:
        """One untimed asym job: imports and first calls finish before timing."""
        warm = self.tmp / "warm"
        warm.mkdir()
        self.run(Asym().job(self.seed, 0, warm))
        for _ in range(3):
            probe()

    def verify(self, rec: dict) -> None:
        """Fill ``rec['failure']``, ``rec['wrong']`` and ``rec['rel_err']``."""
        rec["rel_err"], rec["wrong"] = None, False
        if rec.get("differs"):
            rec["failure"] = "output differs between two runs of one input"
            rec["wrong"] = True
        elif rec["error"] is not None:
            rec["failure"] = f"raised {rec['error']}"
        elif rec["status"] != 0:
            rec["failure"] = f"exit status {rec['status']}"
        elif rec["output"] is None:
            rec["failure"] = "no output"
        else:
            try:
                check = self.wl.check(self.ww, self.jobs[rec["index"]], rec["output"])
            except Exception as exc:  # malformed output or a failed reference
                check = Check(False, reason=f"check raised {type(exc).__name__}: {exc}")
            rec["rel_err"] = check.rel_err
            rec["failure"] = None if check.ok else check.reason
            rec["wrong"] = not check.ok

    def verify_all(self, records: list[dict], report: dict) -> None:
        """Check every job after the timed region; summarise in ``report``.

        The first record of each input is checked in full; a repeat must
        reproduce its output byte for byte.
        """
        t0 = time.perf_counter()
        first: dict[int, dict] = {}
        for rec in records:
            ref = first.setdefault(rec["index"], rec)
            if ref is not rec and rec["output"] != ref["output"]:
                rec["differs"] = True
            if ref is rec or rec.get("differs") or rec["error"] or rec["status"] != 0:
                self.verify(rec)
            else:
                rec.update(failure=ref["failure"], wrong=ref["wrong"], rel_err=None)
        bad = failures(records)
        report.update({
            "check_s": time.perf_counter() - t0,
            "jobs": len(records),
            "failed": len(bad),
            "failed_frac": len(bad) / len(records),
            "failures": bad[:10],
            "input_digest": self.digest.hexdigest(),
            "inputs": len(self.jobs),
            "output_digests": [hashlib.sha256((r["output"] or "").encode()).hexdigest()[:16]
                               for r in first.values()],
            "worst_rel_err": max(rel_errs(records), default=None),
        })


def input_means(records: list[dict]) -> list[float]:
    """Each input's mean latency at the reference speed over the rounds,
    in input order."""
    by_input: dict[int, list[float]] = {}
    for r in records:
        by_input.setdefault(r["index"], []).append(at_ref_speed(r))
    return [statistics.fmean(by_input[i]) for i in sorted(by_input)]


#: job_tail_s is this percentile of the inputs' mean latencies: a run has
#: 16 inputs, and one or two of them needing extra Muller iterations at some
#: seeds moved the 90th percentile by ~20% from seed to seed
TAIL_PERCENTILE = 75


def tail(values: list[float]) -> tuple[float, int]:
    """The ``TAIL_PERCENTILE`` percentile (nearest rank) and the count of
    values beyond it."""
    r = math.ceil(TAIL_PERCENTILE / 100 * len(values)) - 1
    return sorted(values)[r], len(values) - 1 - r


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git work tree."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((ln.split()[0] for ln in lines if ln.endswith(" " + ref)), None)


def environment() -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def failures(records: list[dict]) -> list[str]:
    return [f"job {r['index']}: {r['failure']}" for r in records if r["failure"]]


def rel_errs(records: list[dict]) -> list[float]:
    return [r["rel_err"] for r in records if r["rel_err"] is not None]


def timed(runner: Runner, seconds: float, report: dict):
    """Untraced run: the records and the end-to-end metrics, with units."""
    setup = measure_setup(runner.job(0).config)
    runner.warm_up()
    records = runner.rounds(seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runner.verify_all(records, report)
    lat = [r["latency"] for r in records]
    ok = sum(1 for r in records if not r["failure"])
    means = input_means(records)
    tail_s, beyond = tail(means)
    probes = [p for r in records for p in r["probes"]]
    report.update({"setup_samples_s": setup, "latencies_s": lat,
                   "rounds": records[-1]["round"] + 1, "input_means_s": means,
                   "tail_percentile": TAIL_PERCENTILE, "tail_beyond": beyond,
                   "probe_ref_s": PROBE_REF_S,
                   "probe_s": {"min": min(probes), "median": statistics.median(probes),
                               "max": max(probes)},
                   "wall": {"jobs_per_s": ok / sum(lat),
                            "job_p50_s": statistics.median(lat)}})
    values = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": ok / sum(at_ref_speed(r) for r in records),
        "job_p50_s": statistics.median(means),
        "job_tail_s": tail_s,
        # the median input: the worst one flips between ~8 and ~9 digits
        # from seed to seed (the worst is in the report)
        "accuracy_digits": statistics.median(
            [-math.log10(e) for e in rel_errs(records)] or [0.0]),
        "peak_rss_mb": rss_mb,
    }
    return records, {k: (v, END_TO_END[k]) for k, v in values.items()}, None


def traced(runner: Runner, seconds: float, report: dict):
    """Traced run: the records, the per-layer metrics with units, the tracer."""
    from tracer import Tracer
    runner.warm_up()
    tracer = Tracer()
    records, plain = runner.traced_loop(seconds, tracer)
    for rec, again in zip(records, plain):
        rec["differs"] = rec["output"] != again["output"]
    runner.verify_all(records, report)
    traced_s = sum(r["latency"] for r in records)
    plain_s = sum(p["latency"] for p in plain)
    metrics, raised = tracer.metrics(len(records))
    metrics["trace.overhead_s"] = ((traced_s - plain_s) / len(records), "s/job")
    metrics["trace.overhead_frac"] = ((traced_s - plain_s) / plain_s, "fraction")
    spans = WORK / f"spans-{report['workload']}-{report['seed']}.jsonl"
    tracer.write(spans)
    report.update({"raised": raised, "spans": len(tracer.spans),
                   "spans_file": spans.as_posix()})
    return records, metrics, tracer


def benchmark(workload: str, seed: int, seconds: float, trace: bool):
    """One run; returns (result, report, tracer or None)."""
    import windwaves
    import windwaves.cli  # noqa: F401  (jobs call it through the module)
    if Path(windwaves.__file__).resolve().parent != SRC / "windwaves":
        raise RuntimeError(f"imported windwaves from {windwaves.__file__}, not {SRC}")
    tmp = WORK / f"{workload}-{seed}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        runner = Runner(windwaves, WORKLOADS[workload], seed, tmp)
        report = {"workload": workload, "seed": seed, "seconds": seconds,
                  "trace": int(trace)}
        records, metrics, tracer = (traced if trace else timed)(runner, seconds, report)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    report["environment"] = environment()
    result = {"correct": not any(r["wrong"] for r in records),
              "attempted": len(records), "failed": report["failed"],
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return result, report, tracer


def print_run(result: dict, report: dict) -> None:
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"jobs {report['jobs']}  failed {report['failed']}  "
          f"failed_frac {report['failed_frac']:g}  correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"workload {name}: exit status {proc.returncode}")
            return 1
        lines = proc.stdout.splitlines()
        report = json.loads(lines[-2][len("report "):])
        rows.append((name, json.loads(lines[-1]), report))
    names = list(rows[0][1]["metrics"])
    print(f"{'metric':<44} {'unit':<10}" + "".join(f"{n:>14}" for n, _, _ in rows))
    for metric in names:
        unit = rows[0][1]["metrics"][metric]["unit"]
        print(f"{metric:<44} {unit:<10}" + "".join(
            f"{r['metrics'][metric]['value']:>14.6g}" for _, r, _ in rows))
    print(f"{'failed_frac':<44} {'fraction':<10}"
          + "".join(f"{rep['failed_frac']:>14g}" for _, _, rep in rows))
    print(f"{'correct':<44} {'':<10}"
          + "".join(f"{str(r['correct']):>14}" for _, r, _ in rows))
    return 0 if all(r["correct"] and r["failed"] == 0 for _, r, _ in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (SRC / "windwaves" / "__init__.py").is_file():
        print(f"no windwaves sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    result, report, _ = benchmark(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print_run(result, report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
