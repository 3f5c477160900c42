"""lclab benchmark: time to verdict on four CLI workloads, with layer costs.

    python3 perfbench/run.py --workload {rows,columns,oracles,cache} \\
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from ../src.
One client runs in a closed loop: a round is one fresh interpreter that
runs the workload's commands through lclab.cli.main, each starting once
the previous verdict is written, and rounds repeat until S seconds have
passed.  Every round's outputs are checked (see workloads.py) and must
equal those of the first round.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the rounds.  --trace 1 alternates untraced and traced rounds and reports
the per-layer metrics as medians over the traced ones, plus the tracing
overhead (traced minus untraced wall_s) and the wall time no span covers.
Report lines with quartiles, sample counts and the environment come first;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import calibration
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 150
# Set-up-only interpreters spawned after each untraced round, so that the
# median setup_s rests on three times as many samples as wall_s.
SETUP_PROBES = 2


def _loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "n/a"


def _spawn(job: dict, cwd: Path) -> dict:
    """Run one worker to completion and return its result."""
    env = {k: v for k, v in os.environ.items() if k != "LCLAB_CACHE"}
    cwd.mkdir(parents=True)
    # calibrated just before the spawn, for set-up's reference seconds
    job = dict(job, cal0=calibration.calibrate(), t0=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _stats(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); the quartiles collapse to the value for one sample."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def _judge(rounds: list[dict]) -> tuple[int, list[tuple[str, str, str]]]:
    """Commands attempted, and (command, check, reason) of each failure.

    A command fails when its own check fails or when its output or exit
    code differs from the first round's.
    """
    first = rounds[0]["commands"]
    attempted = 0
    failures = []
    for r in rounds:
        for cmd, ref in zip(r["commands"], first):
            attempted += 1
            reason = cmd["reason"]
            if reason is None and (cmd["sha256"], cmd["exit"]) != (ref["sha256"], ref["exit"]):
                reason = "output differs from the first round"
            if reason is not None:
                failures.append((cmd["key"], cmd["check"], reason))
    return attempted, failures


def _layer_metrics(traced: list[dict], plain: list[dict]) -> dict[str, list[float]]:
    samples: dict[str, list[float]] = {}
    for r in traced:
        t = r["trace"]
        counts = t["counts"]
        values = dict(t["self_s"])
        values.update(counts)
        lookups = counts.get("cache.lookups", 0)
        values["cache.hit_ratio"] = counts.get("cache.hits", 0) / lookups if lookups else 0.0
        values["cli.out_bytes"] = r["out_bytes"]
        values["trace.unattributed_s"] = t["unattributed_s"]
        for name, v in values.items():
            samples.setdefault(name, []).append(v)
    overhead = _stats([r["wall_s"] for r in traced])[1] - _stats([r["wall_s"] for r in plain])[1]
    samples["trace.overhead_s"] = [overhead]
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lclab" / "cli.py").is_file():
        print(f"perfbench: no lclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env_start = {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "loadavg_start": _loadavg(),
    }
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    job = {"root": str(ROOT), "workload": args.workload, "seed": args.seed}
    rounds, probes = [], []
    try:
        if workloads.make(args.workload, args.seed).uses_cache:
            _spawn(dict(job, prepare=True), work / "prep")
            job["prepared"] = str(work / "prep" / workloads.CACHE_DIR)
        start = time.monotonic()
        while len(rounds) < 1 + args.trace or time.monotonic() - start < args.seconds:
            i = len(rounds)
            # the first round is untraced and also runs the oracle commands
            rounds.append(_spawn(dict(job, trace=bool(args.trace and i % 2), oracle=i == 0),
                                 work / "round" / "main"))
            for k in range(0 if args.trace else SETUP_PROBES):
                probes.append(_spawn(dict(job, setup_only=True), work / "round" / f"probe-{k}"))
            shutil.rmtree(work / "round")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in rounds if "trace" not in r]
    traced = [r for r in rounds if "trace" in r]
    attempted, failures = _judge(rounds)
    if args.trace:
        samples = _layer_metrics(traced, plain)
    else:
        samples = {name: [r[name] for r in plain] for name in ("wall_s", "wall_raw_s", "peak_rss_mb")}
        for name in ("setup_s", "setup_raw_s"):
            samples[name] = [r[name] for r in plain + probes]
        samples["ok_ratio"] = [1 - len(failures) / attempted]

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} rounds={len(plain)} untraced, {len(traced)} traced")
    print("env " + " ".join(f"{k}={v}" for k, v in env_start.items())
          + f" loadavg_end={_loadavg()}")
    # the raw (uncalibrated) times are reported but not part of the result
    shown = [(m["name"], m["unit"]) for m in wanted]
    if not args.trace:
        shown += [("wall_raw_s", "s"), ("setup_raw_s", "s")]
    metrics = {}
    for name, unit in shown:
        values = samples.get(name, [0])
        q1, med, q3 = _stats(values)
        metrics[name] = {"value": med, "unit": unit}
        print(f"  {name:<28} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} n={len(values)} {unit}")
    print(f"  fail_ratio {len(failures) / attempted:.6g} ({len(failures)} failed / {attempted} commands)")
    for (key, check, reason), times in Counter(failures).items():
        print(f"  failed x{times} [{check}] {key}: {reason}")
    if traced and traced[0]["trace"]["skipped"]:
        print("  not traced (name missing or rebound): " + ", ".join(traced[0]["trace"]["skipped"]))

    result = {
        # a failing "rejects" probe is a known defect of the program, counted
        # in `failed`; any other failing check means wrong output
        "correct": all(check == "rejects" for _, check, _ in failures),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
