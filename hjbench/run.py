"""Run one benchmark workload of hjsing and print its metrics.

    python3 hjbench/run.py --workload discounted-1d --seed 1 --seconds 35 --trace 0

Run from any directory; the library is imported from ``src/`` next to
this directory and nowhere else.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  The lines
before it repeat every metric with its unit, the environment and the seed.
A copy of the result, with the seed, the generated inputs and the
environment, goes to ``hjbench/results/``; a traced run also writes its
spans there.  See GLOSSARY.md for the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 5

# errors below this share of the oracle tolerance are reported at this share:
# rounding noise would otherwise make err_max read 4e-14 on one seed and
# 6e-14 on the next
ERR_RESOLUTION = 1e-6

# end-to-end metrics reported in the JSON result (fail_frac is the
# result's own failed / attempted)
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "err_max": "abs"}

# per-layer metrics reported in the JSON result of a traced run; each is
# defined on every workload.  Times of layers that only some workloads
# reach are printed and saved, not put in the JSON.
PER_LAYER = {
    "model.L.calls": "count", "model.L.points": "count", "model.L.s": "s",
    "model.grad.calls": "count", "model.grad.points": "count", "model.grad.s": "s",
    "model.H.calls": "count",
    "action.minimize_paths.calls": "count", "action.minimize_paths.paths": "count",
    "action.minimize_paths.paths_per_call": "paths/call",
    "action.minimize_paths.s": "s", "action.minimize_paths.self_s": "s",
    "action.minimize_paths.nonconverged": "count",
    "action.straight_line_actions.paths": "count", "action.straight_line_actions.s": "s",
    "action.estimate_constants.calls": "count",
    "laxoleinik.localized_convolution.calls": "count",
    "laxoleinik.localized_convolution.queries": "count",
    "laxoleinik.localized_convolution.s": "s",
    "laxoleinik.localized_convolution.self_s": "s",
    "laxoleinik.scanned_per_query": "paths/query",
    "laxoleinik.kept_per_query": "points/query",
    "laxoleinik.arg_reach": "ratio",
    "laxoleinik.grid_eval.calls": "count", "laxoleinik.grid_eval.points": "count",
    "laxoleinik.grid_eval.s": "s",
    "solver.sweeps": "count",
    "singular.cut_time.calls": "count", "singular.reachable_gradients.calls": "count",
    "singular.ode.calls": "count", "singular.ode.nfev": "count",
    "singular.propagation_step.calls": "count", "singular.retraction.calls": "count",
    "singular.retraction.band_failures": "count",
    "trace.overhead_frac": "ratio",
}

# reported only for workloads that reach the layer
PER_LAYER_REACHED = {
    "model.H.s": ("s", "model.H.calls"),
    "action.estimate_constants.s": ("s", "action.estimate_constants.calls"),
    "solver.final_residual": ("abs", "solver.sweeps"),
    "solver.residual_check.s": ("s", "solver.sweeps"),
    "singular.cut_time.s": ("s", "singular.cut_time.calls"),
    "singular.reachable_gradients.s": ("s", "singular.reachable_gradients.calls"),
    "singular.ode.s": ("s", "singular.ode.calls"),
    "singular.propagation_step.s": ("s", "singular.propagation_step.calls"),
    "singular.retraction.s": ("s", "singular.retraction.calls"),
}

COUNT_SUFFIXES = (".calls", ".paths", ".points", ".queries", ".nfev", ".nonconverged",
                  ".sweeps", ".band_failures")


def blas_threads():
    """Threads of the OpenBLAS bundled with numpy, or None if it cannot be asked."""
    import numpy as np
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(), "python": platform.python_version(),
            "machine": platform.machine()}


class Timed(NamedTuple):
    """A wall time and the mean reference batch time over the same interval."""

    wall: float
    ref: float

    @property
    def scaled(self) -> float:
        """The wall time in seconds at the reference speed."""
        return self.wall / self.ref * reference.REFERENCE_S


def scaled_median(samples: list[Timed]) -> float:
    return statistics.median(t.scaled for t in samples)


def setup_seconds(workload: str, seed: int) -> list[Timed]:
    """Wall time of fresh processes that import hjsing and build the inputs.

    The reference batch is timed before the first probe and after each one;
    a probe's reference time is the mean of the two around it.
    """
    # the probe prints the monotonic clock (system-wide on Linux) once its
    # inputs are built; waiting for its exit would add interpreter teardown
    # and the polling steps of subprocess's wait
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; import workloads; "
            "workloads.build(sys.argv[3], int(sys.argv[4])); import time; "
            "print(repr(time.perf_counter()))")
    samples = []
    ref_before = reference.seconds()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        probe = subprocess.run([sys.executable, "-c", code, str(SRC), str(HERE), workload,
                                str(seed)], check=True, timeout=120, text=True,
                               stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
        wall = float(probe.stdout.split()[-1]) - t0
        ref_after = reference.seconds()
        samples.append(Timed(wall, 0.5 * (ref_before + ref_after)))
        ref_before = ref_after
    return samples


def timed_rep(wl) -> tuple[Timed, object]:
    """One repetition, gauged: its wall time less the gauge's own batches."""
    gc.collect()
    gauge = reference.Gauge()
    t0 = time.perf_counter()
    with gauge:
        res = wl.run()
    wall = time.perf_counter() - t0
    return Timed(wall - gauge.busy_s, gauge.batch_s), res


def run_reps(wl, seconds: float, traced_rep=None):
    """Repeat the workload for about ``seconds``, after one warm-up repetition.

    The warm-up fills caches and finishes lazy set-up (the first repetition
    is the slowest of a run as a rule); its outputs are checked like the
    others, but it is not timed.  With ``traced_rep``, untraced and traced
    repetitions alternate and at least one of each runs.  A repetition
    starts only if the median of its kind says that it ends within the
    budget.
    """
    results = [wl.run()]
    reference.seconds(3)                   # warms the gauge's own code paths
    plain, traced = [], []
    durations = {False: [], True: []}
    start = time.perf_counter()
    while True:
        use_traced = traced_rep is not None and len(traced) < len(plain)
        t0 = time.perf_counter()
        sample, res = traced_rep() if use_traced else timed_rep(wl)
        durations[use_traced].append(time.perf_counter() - t0)
        (traced if use_traced else plain).append(sample)
        results.append(res)
        nxt = durations[traced_rep is not None and len(traced) < len(plain)]
        if nxt and time.perf_counter() - start + statistics.median(nxt) > seconds:
            return plain, traced, results


def end_to_end(wl, results, plain, setups) -> dict:
    checked = [r.err_max for r in results if r.checked]
    err = max(checked) if checked else sys.float_info.max
    return {
        "setup_s": scaled_median(setups),
        "wall_s": scaled_median(plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "err_max": max(err, ERR_RESOLUTION * wl.oracle_tol),
    }


def trace_run(wl, workloads_module, seconds):
    """Untraced and traced repetitions; per-layer metrics of each traced one."""
    import tracer as tr

    per_rep, tracers = [], []

    def traced_rep():
        # not gauged: the gauge's batches would land in whatever span is open
        t = tr.Tracer()
        gc.collect()
        with tr.traced(t, [workloads_module]), tr.traced_models(t, wl.models, wl.hamiltonians):
            t0 = time.perf_counter()
            res = wl.run()
            wall = time.perf_counter() - t0
        per_rep.append(tr.layer_metrics(t))
        tracers[:] = tracers or [t]        # the spans of the first one are saved
        return wall, res

    plain, traced, results = run_reps(wl, seconds, traced_rep)
    band = wl.band_failures() if hasattr(wl, "band_failures") else 0
    # counts repeat, so the first repetition's stand; times are medians
    layers = {k: v if k.endswith(COUNT_SUFFIXES) else statistics.median(m[k] for m in per_rep)
              for k, v in per_rep[0].items()}
    layers["singular.retraction.band_failures"] = band
    # traced and untraced repetitions alternate, so both meet the same drift
    layers["trace.overhead_frac"] = (statistics.median(traced)
                                     / statistics.median(t.wall for t in plain) - 1.0)
    return plain, traced, results, layers, per_rep, tracers[0]


def unsteady_counts(layer_sets) -> list[str]:
    """Count metrics whose value differs between any two of the given layer sets."""
    keys = [k for k in layer_sets[0] if k.endswith(COUNT_SUFFIXES)]
    return sorted(k for k in keys if len({s.get(k) for s in layer_sets}) > 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hjsing" / "__init__.py").is_file():
        print(f"hjsing sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import hjsing
    import workloads
    if Path(hjsing.__file__).resolve().parent != SRC / "hjsing":
        print(f"imported hjsing from {hjsing.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed)
    env = environment()
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = stem.with_suffix(".json")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "inputs": wl.describe()}

    if args.trace:
        # counts must repeat across the traced repetitions of this run and the
        # previous traced run of the same seed
        previous = []
        if record_path.is_file():
            previous = [json.loads(record_path.read_text())["layers"]]
        plain, traced, results, layers, per_rep, first = trace_run(wl, workloads, args.seconds)
        unsteady = unsteady_counts(per_rep + previous)
        compared = len(per_rep) + len(previous)
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        record.update(layers=layers, counts_compared=compared, counts_not_repeating=unsteady)
        first.save(f"{stem}-spans.npz")
    else:
        plain, traced, results = run_reps(wl, args.seconds)
        setups = setup_seconds(args.workload, args.seed)
        e2e = end_to_end(wl, results, plain, setups)
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
        record["setup_samples"] = [t._asdict() for t in setups]

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record.update(untraced=[t._asdict() for t in plain], traced_wall_s=traced,
                  reference_s=reference.REFERENCE_S, result=result)
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"hjbench workload={args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs {json.dumps(wl.describe())}")
    print(f"repetitions untraced={len(plain)} traced={len(traced)}; "
          f"untraced wall clock median {statistics.median(t.wall for t in plain):.6g} s, "
          f"reference batch mean {statistics.median(t.ref for t in plain):.6g} s "
          f"(median over repetitions; {reference.REFERENCE_S:g} s at the reference speed)")
    for key, m in metrics.items():
        print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
    if args.trace:
        for key, (unit, reached_by) in PER_LAYER_REACHED.items():
            if layers[reached_by]:
                print(f"  {key:44s} {layers[key]:.6g} {unit}")
        print(f"  {'trace.spans':44s} {first.span_count} count (first traced repetition)")
        if compared < 2:
            print("counts repeat: not checked yet (one traced repetition; run again)")
        else:
            print(f"counts repeat over {compared} traced repetitions: "
                  + ("yes" if not unsteady else "NO: " + ", ".join(unsteady)))
    else:
        print(f"  {'fail_frac':44s} {failed / attempted:.6g} ratio "
              f"({failed} of {attempted} operations)")
        print(f"  oracle tolerance {wl.oracle_tol:g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
