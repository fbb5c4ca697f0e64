"""stabcert benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload certify-all --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports stabcert from ``src``.
Set-up (a cold ``import stabcert.cli`` in a fresh interpreter plus the
workload's own preparation) is repeated and its median reported.  Then the
workload's pass over its inputs repeats, as many whole passes as come nearest
to ``--seconds`` (at least one).  Every operation's output is checked after
its timer stops.  An operation's latency is its median (or, on ``recheck``,
least) time over its repeats, rescaled by a reference kernel timed throughout
the same run (see ``op_latencies``); set-up is rescaled the same way.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics, measured by
wrapping stabcert's public functions (see tracing.py), plus the tracing
overhead.  The spans of the first traced pass go to ``bench/.work/``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracing import SEARCH_SPANS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
SETUP_REPEATS = 7
SETUP_REFS = 3  # reference-kernel timings before each set-up
REF_EVERY = 0.1  # seconds of operations between reference-kernel timings
LOCAL_REFS = 2  # reference timings on each side of an operation that rescale it
REF_S = 0.015  # about the reference kernel's median time on the host the baseline was taken on
HELDOUT_SEED = 7919  # reserved: use only to confirm a claim, never while tuning a change

# Counts that must repeat exactly for one seed on one source tree.
EXACT_COUNTS = (
    "curvature.sample_check.samples",
    "curvature.epsilon_of.calls",
    "quadmin.f_min_coefficient.calls",
    "bubble.quadform_check.samples",
    "bubble.barrier_ode.points",
    "optimize.float_margins.calls",
    "optimize.feasibility.calls",
    "optimize.evaluations_used",
    "optimize.recert_accept_ratio",
)


def source_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(path.relative_to(directory).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_rev() -> str | None:
    """HEAD of the checkout if it is a git work tree (read without running git)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args) -> dict:
    import mpmath.libmp

    return {
        "git_rev": git_rev(),
        "src_sha256": source_digest(SRC / "stabcert"),
        "bench_sha256": source_digest(Path(__file__).resolve().parent),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def cold_import() -> None:
    """A fresh interpreter importing the CLI, as every command pays."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import stabcert.cli"], cwd=ROOT, env=env, check=True, timeout=120)


def _rosenbrock(x: list[float]) -> float:
    return sum(100 * (b - a * a) ** 2 + (1 - a) ** 2 for a, b in zip(x, x[1:]))


def reference() -> float:
    """Time one call of a fixed kernel in the style of stabcert's code: the
    exact side (Fraction sums with growing denominators, float math, small
    dicts) and the float search (a Nelder-Mead descent on Rosenbrock's
    function over small lists).  Its timings around an operation measure how
    fast the host ran then."""
    start = perf_counter()
    total, x, counts = Fraction(0), 0.0, {}
    for i in range(1, 1000):
        total += Fraction(i * 7 + 1, i * i + 3)
        x += math.sqrt(i) * math.log(i + 1)
        counts[i % 97] = counts.get(i % 97, 0) + i
    simplex = [[0.3 * j - 0.1 * k for k in range(4)] for j in range(5)]
    for _ in range(250):
        simplex.sort(key=_rosenbrock)
        centre = [sum(p[k] for p in simplex[:-1]) / 4 for k in range(4)]
        reflected = [2 * c - w for c, w in zip(centre, simplex[-1])]
        if _rosenbrock(reflected) < _rosenbrock(simplex[-2]):
            simplex[-1] = reflected
        else:
            simplex[-1] = [(c + w) / 2 for c, w in zip(centre, simplex[-1])]
    return perf_counter() - start


def run_pass(workload, tracer=None) -> dict:
    """Run one pass: time each operation, then check it with tracing paused.
    The reference kernel runs at the start and end of the pass and between
    operations every REF_EVERY seconds; each timing is kept with its clock."""
    latencies, refs, failures = [], [], []

    def time_reference():
        refs.append((perf_counter(), reference()))

    time_reference()
    for op in workload.ops():
        if perf_counter() - refs[-1][0] >= REF_EVERY:
            time_reference()
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            result = op.run()
            error = None
        except Exception:  # an operation that raises is a failed operation
            result, error = None, traceback.format_exc(limit=3)
        finally:
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.active = False
        latencies.append((op.label, start, elapsed))
        if error is None:
            try:
                op.check(result)
            except Exception as exc:  # the check itself decides correctness
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            failures.append(f"{op.label}: {error.strip().splitlines()[-1]}")
    time_reference()
    workload.end_pass()
    return {"time": sum(t for _, _, t in latencies), "latencies": latencies, "refs": refs, "failures": failures}


def tail(latencies: list[float], percentile: float | None) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it); None asks for the slowest operation."""
    ordered = sorted(latencies)
    if percentile is None:
        return ordered[-1], 100.0, 0
    rank = max(1, math.ceil(len(ordered) * percentile / 100))  # nearest rank
    return ordered[rank - 1], percentile, len(ordered) - rank


def op_latencies(workload, passes: list[dict], adjust: bool) -> tuple[list[float], float]:
    """Each pass repeats the same inputs, so every operation runs once or more
    in a run.  Returns one latency per distinct operation, and the pass time:
    their sum over one pass's operations.

    With ``adjust``, times are rescaled to the reference speed, REF_S, which
    removes most of the host's drift in speed.  By the workload's statistic:

    - "median": each timing is multiplied by REF_S over the median of the
      LOCAL_REFS reference timings just before it and LOCAL_REFS just after
      it, so it is compared with the host's speed of the same second; an
      operation's latency is the median of its adjusted times.
    - "least": an operation's latency is its least time, multiplied by REF_S
      over the reference kernel's least time in the run.  Operations far
      shorter than REF_EVERY meet the host at its quietest, as the kernel's
      least time does, where the two agree."""
    repeats: dict[str, list[float]] = defaultdict(list)
    timings = [x for p in passes for x in p["latencies"]]
    refs = sorted(r for p in passes for r in p["refs"])
    if workload.statistic == "least":
        scale = REF_S / min(r for _, r in refs) if adjust else 1.0
        for label, _, elapsed in timings:
            repeats[label].append(elapsed * scale)
        latency = {label: min(v) for label, v in repeats.items()}
    else:
        clocks = [t for t, _ in refs]
        for label, start, elapsed in timings:
            if adjust:
                lo = max(0, bisect.bisect_left(clocks, start) - LOCAL_REFS)
                hi = bisect.bisect_right(clocks, start + elapsed) + LOCAL_REFS
                elapsed *= REF_S / statistics.median(r for _, r in refs[lo:hi])
            repeats[label].append(elapsed)
        latency = {label: statistics.median(v) for label, v in repeats.items()}
    pass_time = sum(latency[label] * len(v) for label, v in repeats.items()) / len(passes)
    return list(latency.values()), pass_time


def end_to_end(workload, setup: dict, passes: list[dict]) -> tuple[dict, dict]:
    """The timings, adjusted to the reference speed (see op_latencies).  Set-up
    is rescaled by the kernel's median time between the set-ups."""
    setup_raw_s = statistics.median(setup["times"])
    setup_s = setup_raw_s * REF_S / statistics.median(setup["refs"])
    latencies, pass_time = op_latencies(workload, passes, adjust=True)
    raw_latencies, raw_pass_time = op_latencies(workload, passes, adjust=False)
    tail_value, tail_pct, beyond = tail(latencies, workload.tail_percentile)
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_adj_s": (pass_time, "s"),
        "ops_per_adj_s": (len(passes[0]["latencies"]) / pass_time, "1/s"),
        "op_gmean_adj_ms": (statistics.geometric_mean(latencies) * 1e3, "ms"),
        "op_tail_adj_ms": (tail_value * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "delta0_ratio": (statistics.median(workload.delta0_ratios), "ratio"),
    }
    refs = [r for p in passes for _, r in p["refs"]]
    info = {"op_tail_percentile": tail_pct, "op_tail_beyond": beyond, "distinct_ops": len(latencies),
            "passes": len(passes), "reference_median_ms": statistics.median(refs) * 1e3,
            "reference_least_ms": min(refs) * 1e3, "reference_samples": len(refs),
            "op_p50_adj_ms": statistics.median(latencies) * 1e3,
            "pass_s": raw_pass_time, "op_gmean_ms": statistics.geometric_mean(raw_latencies) * 1e3,
            "op_tail_ms": tail(raw_latencies, workload.tail_percentile)[0] * 1e3, "setup_raw_s": setup_raw_s}
    if workload.tail_percentile is not None and beyond < 10:
        info["warning"] = f"only {beyond} operations beyond p{tail_pct}"
    return metrics, info


def per_layer(layer_passes: list[tuple], traced_time: float) -> dict:
    """Per-layer metrics from per-pass tracer totals: times summed over the
    traced passes, counts from the first one."""
    stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total s, self s]
    counts: Counter = Counter()
    for pass_stats, pass_counts in layer_passes:
        for name, values in pass_stats.items():
            stats[name] = [a + b for a, b in zip(stats[name], values)]
        counts.update(pass_counts)
    first_stats, first_counts = layer_passes[0]
    n_passes = len(layer_passes)

    def per(name, scale, counter=None):
        """Time per call (or per unit of ``counter``), scaled to the unit."""
        calls = counts[counter] if counter else stats[name][0]
        return stats[name][1] / calls * scale if calls else 0.0

    def calls(name):
        return first_stats[name][0] if name in first_stats else 0

    attempted = first_counts.get("optimize.recert_attempted", 0)
    float_side = sum(stats[s][2] for s in SEARCH_SPANS) + stats["optimize.float_margins"][1]
    return {
        "curvature.sample_check.us_per_sample": (
            per("curvature.sample_check", 1e6, "curvature.sample_check.samples"), "us"),
        "curvature.sample_check.samples": (first_counts.get("curvature.sample_check.samples", 0), "count"),
        "curvature.sample_check.share": (stats["curvature.sample_check"][2] / traced_time, "ratio"),
        "curvature.linearity_check.s": (stats["curvature.linearity_check"][1] / n_passes, "s"),
        "curvature.epsilon_of.us_per_call": (per("curvature.epsilon_of", 1e6), "us"),
        "curvature.epsilon_of.calls": (calls("curvature.epsilon_of"), "count"),
        "quadmin.f_min_coefficient.us_per_call": (per("quadmin.f_min_coefficient", 1e6), "us"),
        "quadmin.f_min_coefficient.calls": (calls("quadmin.f_min_coefficient"), "count"),
        "bubble.quadform_check.us_per_sample": (
            per("bubble.quadform_check", 1e6, "bubble.quadform_check.samples"), "us"),
        "bubble.quadform_check.samples": (first_counts.get("bubble.quadform_check.samples", 0), "count"),
        "bubble.barrier_ode.ms_per_branch": (per("bubble.barrier_ode", 1e3), "ms"),
        "bubble.barrier_ode.points": (first_counts.get("bubble.barrier_ode.points", 0), "count"),
        "bubble.derive.ms_per_call": (per("bubble.derive", 1e3), "ms"),
        "bubble.certify_chain.self_s": (stats["bubble.certify_chain"][2] / n_passes, "s"),
        "iteration.degiorgi_constants.ms_per_call": (per("iteration.degiorgi_constants", 1e3), "ms"),
        "iteration.caccioppoli_constants.ms_per_call": (per("iteration.caccioppoli_constants", 1e3), "ms"),
        "iteration.recursion_simulate.ms_per_call": (per("iteration.recursion_simulate", 1e3), "ms"),
        "optimize.float_margins.us_per_call": (per("optimize.float_margins", 1e6), "us"),
        "optimize.float_margins.calls": (calls("optimize.float_margins"), "count"),
        # the float side of a search: its own time (descent, objective) plus
        # float_margins; exact feasibility and epsilon_of are wrapped children
        "optimize.float_mirror.share": (float_side / traced_time, "ratio"),
        "optimize.feasibility.us_per_call": (per("optimize.feasibility", 1e6), "us"),
        "optimize.feasibility.calls": (calls("optimize.feasibility"), "count"),
        "optimize.feasibility.share": (stats["optimize.feasibility"][1] / traced_time, "ratio"),
        "optimize.evaluations_used": (first_counts.get("optimize.evaluations_used", 0), "count"),
        "optimize.recert_accept_ratio": (
            first_counts.get("optimize.recert_accepted", 0) / attempted if attempted else 0.0, "ratio"),
        "optimize.reverify.us_per_call": (per("optimize.reverify", 1e6), "us"),
        "certificate.read.us_per_call": (per("certificate.read", 1e6), "us"),
        "certificate.write.ms_per_call": (per("certificate.write", 1e3), "ms"),
        "certificate.write.bytes": (first_counts.get("certificate.write.bytes", 0), "bytes"),
        "cli.build_parser.ms_per_call": (per("cli.build_parser", 1e3), "ms"),
        "cli.main.self_s": (stats["cli.main"][2] / n_passes, "s"),
    }


def repeat_flags(workload, layer_passes: list[tuple], env: dict) -> list[str]:
    """Counts that differ between traced passes, or from an earlier run of the
    same seed with the same program and benchmark sources (kept in
    bench/.work)."""
    snapshots = [{k: per_layer([c], 1.0)[k][0] for k in EXACT_COUNTS} for c in layer_passes]
    first = snapshots[0]
    flags = []
    for i, snap in enumerate(snapshots[1:], start=1):
        flags += [f"{k}: pass {i} gave {v}, pass 0 gave {first[k]}" for k, v in snap.items() if v != first[k]]
    store = WORK / "counts.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    key = f"{env['src_sha256'][:16]}:{env['bench_sha256'][:16]}:{workload.name}:{workload.seed}"
    if key in known:
        flags += [f"{k}: {first.get(k)} now, {v} in an earlier run" for k, v in known[key].items() if first.get(k) != v]
    else:
        known[key] = first
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        tmp.replace(store)
    return flags


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stabcert" / "__init__.py").is_file():
        print(f"error: no stabcert sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment(args)
    workload = workloads.WORKLOADS[args.workload](args.seed, WORK / args.workload)

    setup = {"times": [], "refs": []}
    for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
        setup["refs"] += [reference() for _ in range(SETUP_REFS)]
        start = perf_counter()
        cold_import()
        workload.prepare()
        setup["times"].append(perf_counter() - start)

    untraced, traced, layer_passes = [], [], []
    tracer = Tracer() if args.trace else None
    start = perf_counter()
    while True:
        if tracer is None:
            untraced.append(run_pass(workload))
        else:
            # alternate which side goes first so that warm-up favours neither
            for traced_side in (False, True) if len(traced) % 2 == 0 else (True, False):
                if traced_side:
                    with tracer.tracing(keep_spans=not traced):
                        traced.append(run_pass(workload, tracer))
                    layer_passes.append((tracer.stats, tracer.counts))
                else:
                    untraced.append(run_pass(workload))
        # stop at the whole number of passes nearest to --seconds (at least one)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(untraced) / 2 >= args.seconds:
            break

    passes = untraced + traced
    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(len(p["latencies"]) for p in passes)
    record: dict = {"environment": env, "pass_s": [p["time"] for p in passes]}
    WORK.mkdir(parents=True, exist_ok=True)
    if tracer is None:
        metrics, record["ops"] = end_to_end(workload, setup, passes)
    else:
        metrics = per_layer(layer_passes, sum(p["time"] for p in traced))
        latencies, pass_time = op_latencies(workload, untraced, adjust=False)
        metrics["wall.pass_s"] = (pass_time, "s")
        metrics["wall.op_gmean_ms"] = (statistics.geometric_mean(latencies) * 1e3, "ms")
        metrics["wall.op_tail_ms"] = (tail(latencies, workload.tail_percentile)[0] * 1e3, "ms")
        metrics["reference.kernel_ms"] = (statistics.median(r for p in untraced for _, r in p["refs"]) * 1e3, "ms")
        metrics["trace.run_s"] = (statistics.median(p["time"] for p in traced), "s")
        metrics["trace.overhead_s"] = (statistics.median(t["time"] - u["time"] for t, u in zip(traced, untraced)), "s")
        metrics["error_rate"] = (len(failures) / attempted, "ratio")
        failures += [f"count did not repeat: {f}" for f in repeat_flags(workload, layer_passes, env)]
        record["missing_layers"] = tracer.missing
        tracer.write_spans(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl")
    record["failures"] = failures[:20]
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    print("# env " + json.dumps(env, sort_keys=True))
    if "ops" in record:
        print("# ops " + json.dumps(record["ops"], sort_keys=True))
    if record.get("missing_layers"):
        print("# not traced, no longer in stabcert: " + ", ".join(record["missing_layers"]))
    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": sum(len(p["failures"]) for p in passes),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
