"""Self-test of the benchmark itself, not of windwaves.

Run from the repository root (takes a few minutes):

    python3 perfbench/selftest.py

It checks that
* the generator is deterministic per seed and differs across seeds;
* two traced runs of one seed repeat every work count (calls, steps,
  residuals, Muller iterations, scans, profile evaluations) and every output
  byte for the jobs both completed;
* the wrappers miss no calls: counts that must agree by construction do.
It also prints the layer shape: the functions with the largest self time.
"""
from __future__ import annotations

import os
import shutil
import sys
from collections import Counter
from pathlib import Path

import run
from workloads import WORKLOADS

SECONDS = 6.0


def generate(wl, seed: int, d: Path) -> dict[str, bytes]:
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    for i in range(8):
        wl.job(seed, i, d)
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def check_generator(tmp: Path) -> None:
    for wl in WORKLOADS.values():
        d = tmp / wl.name
        first, again, other = (generate(wl, seed, d) for seed in (1, 1, 2))
        assert first == again, f"{wl.name}: seed 1 twice differs"
        same = [name for name in first if first[name] == other.get(name)]
        assert not same, f"{wl.name}: seeds 1 and 2 share files {same}"
        print(f"generator {wl.name}: deterministic per seed, differs across seeds")


def traced(workload: str):
    result, report, tracer = run.benchmark(workload, 1, SECONDS, trace=True)
    assert result["correct"] and result["failed"] == 0, report["failures"]
    return result["metrics"], report, tracer


def check_repeat(workload: str, first, second) -> None:
    (_, rep1, tr1), (_, rep2, tr2) = first, second
    n = min(rep1["jobs"], rep2["jobs"])
    c1, c2 = tr1.job_counters(), tr2.job_counters()
    for job in range(n):
        assert c1[job] == c2[job], f"{workload} job {job}: {c1[job]} != {c2[job]}"
    assert rep1["output_digests"][:n] == rep2["output_digests"][:n], \
        f"{workload}: outputs differ between two runs of one seed"
    print(f"repeat {workload}: counts and outputs identical on {n} jobs")


#: counts that agree by construction; a missed binding breaks one
IDENTITIES = {
    "sweep": [("rayleigh.integrate_rayleigh.calls", "dispersion.interface_impedance.calls"),
              ("dispersion.residual.calls",
               "eigensolver.residuals_per_root", "eigensolver.find_root.calls")],
    "certify": [("rayleigh.integrate_rayleigh.calls", "dispersion.interface_impedance.calls"),
                ("dispersion.residual.calls", "eigensolver.count_roots.residuals"),
                ("dispersion.residual.calls", "dispersion.interface_impedance.calls")],
    "asym": [("rayleigh.limiting_solution.calls", "asymptotics.miles_c_sharp.calls")],
}
IDENTITIES["table"] = IDENTITIES["sweep"]


def check_wrappers(workload: str, metrics: dict, tracer) -> None:
    m = {k: v["value"] for k, v in metrics.items()}
    equal = IDENTITIES[workload]
    for names in equal:
        if len(names) == 3:  # a ratio times its base
            lhs, rhs = m[names[0]], m[names[1]] * m[names[2]]
        else:
            lhs, rhs = m[names[0]], m[names[1]]
        assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0), f"{workload}: {names} {lhs} != {rhs}"
        assert lhs > 0, f"{workload}: {names[0]} never called"
    orphans = [s[0] for s in tracer.spans if s[3] < 0 and s[0] != "cli.main"]
    assert not orphans, f"{workload}: spans outside cli.main: {Counter(orphans)}"
    print(f"wrappers {workload}: {len(equal)} count identities hold, every span under cli.main")


def shape(workload: str, metrics: dict, tracer) -> None:
    own = Counter()
    for s, o in zip(tracer.spans, tracer.self_times()):
        own[s[0]] += o
    total = sum(own.values())
    top = ", ".join(f"{name} {t / total:.0%}" for name, t in own.most_common(4))
    m = {k: v["value"] for k, v in metrics.items()}
    print(f"shape {workload}: self time {top}; steps/solve "
          f"{m['rayleigh.steps_per_solve']:.0f}; scans/c_sharp "
          f"{m['asymptotics.scans_per_c_sharp']:.2f}; overhead "
          f"{m['trace.overhead_frac']:.0%}")


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.SRC))
    tmp = run.WORK / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        check_generator(tmp)
        for workload in WORKLOADS:
            first, second = traced(workload), traced(workload)
            check_repeat(workload, first, second)
            check_wrappers(workload, first[0], first[2])
            shape(workload, first[0], first[2])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
