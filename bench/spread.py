"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload recheck --seeds 0-9        # ten seeds
    python3 bench/spread.py --workload recheck --seeds 0,0,0,0,0  # one seed, five times

Runs ``bench/run.py --trace 0`` once per listed seed, one run at a time, for
the ``run_seconds`` BENCHMARK.json fixes, and prints for each metric the
median and the interquartile range as a share of the median
(``statistics.quantiles(values, n=4)``), beside the metric's bound.  A spread
above a third of its bound is marked ``WIDE`` (``setup_s`` has no spread
limit; only its median must not drift).  Over distinct seeds the spread mixes
input variation with host noise; repeating one seed shows the host noise
alone.  Raw results go to ``bench/.work/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", default="0-9", help="'a-b' or a comma list (repeats allowed)")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload:
        results = []
        for seed in parse_seeds(args.seeds):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run([sys.executable if c == "python3" else c for c in cmd],
                                  cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            results.append(result)
            ok &= result["correct"]
            print(f"{workload} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        out = ROOT / "bench" / ".work" / f"spread-{workload}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(results, indent=1) + "\n")
        print(f"\n{workload} ({len(results)} runs, seeds {args.seeds}, {seconds} s each)")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            bound = bounds.get(name)
            mark = "WIDE" if bound is not None and name != "setup_s" and spread > bound / 3 else ""
            bound_text = f"bound {bound:.2f}" if bound is not None else "no bound"
            print(f"  {name:20s} median {median:<14.6g} spread {spread:7.4f} {bound_text} {mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
