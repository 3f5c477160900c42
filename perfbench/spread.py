"""Run the benchmark once per seed on each workload and summarise the spread.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [--trace] [--out FILE]

For every end-to-end metric it prints the median of the per-run values and
the distance between their first and third quartiles as a share of that
median, next to the metric's bound in BENCHMARK.json.  With --trace it also
makes one traced run per workload.  --out writes everything as JSON;
baseline.json merges two such outputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    return {"report": lines[:-1], "result": json.loads(lines[-1])}


def _summary(values: list[float]) -> dict:
    q1, med, q3 = run._stats(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    out = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        runs = [_bench(name, s, spec["run_seconds"], 0) for s in seeds]
        entry = {
            "correct": [r["result"]["correct"] for r in runs],
            "failed": [r["result"]["failed"] for r in runs],
            "attempted": [r["result"]["attempted"] for r in runs],
            "env": [r["report"][1] for r in runs],
            "end_to_end": {},
        }
        for m in spec["end_to_end"]:
            s = _summary([r["result"]["metrics"][m["name"]]["value"] for r in runs])
            entry["end_to_end"][m["name"]] = s
            flag = "" if s["spread"] <= m["bound"] / 3 else "  <-- above a third of the bound"
            print(f"{name:8} {m['name']:12} median {s['median']:<10.5g} q1 {s['q1']:<10.5g} "
                  f"q3 {s['q3']:<10.5g} n={len(runs)} {m['unit']:6} spread {s['spread']:.3f} "
                  f"bound {m['bound']}{flag}", flush=True)
        failed, attempted = sum(entry["failed"]), sum(entry["attempted"])
        print(f"{name:8} fail_ratio   {failed / attempted:.6g} ({failed} failed / {attempted} commands) "
              f"correct {all(entry['correct'])}", flush=True)
        if args.trace:
            traced = _bench(name, seeds[0], spec["run_seconds"], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        out["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
