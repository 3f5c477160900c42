"""One round of a workload in a fresh interpreter.

    python3 worker.py JOB_JSON

The job names the repository root, the workload and seed, the monotonic
time at which the parent spawned this process and the calibration it took
just before, and whether to trace and to run the oracle commands.  The worker imports lclab.cli from ROOT/src, writes
the seed-drawn inputs (and, for the cache workload, copies in the prepared
cache directory) into its working directory, then runs the round's commands
through lclab.cli.main one after another, each starting once the previous
verdict is written.  It prints one JSON line with the round's figures.

With "setup_only" set it stops after set-up; with "prepare" set it instead
builds the cache workload's prepared directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import calibration
import layers
import workloads

HERE = Path(__file__).resolve().parent


def _import_lclab(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import lclab.cli

    if not Path(lclab.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"lclab was imported from {lclab.cli.__file__}, not {src}")
    return lclab.cli


def _run(main, argv) -> tuple[int | str, str]:
    """One command through lclab.cli.main, stdout and stderr captured."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue()


def _check(cmd, code, text, expected) -> str | None:
    """None when the command's output check holds, else the reason."""
    head = text.split("\n", 1)[0]
    if cmd.check in ("digest", "paper"):
        want = expected.get(cmd.key)
        if want is None:
            return "no recorded digest"
        digest = hashlib.sha256(text.encode()).hexdigest()
        if (code, digest) != (want["exit"], want["sha256"]):
            return f"exit {code}, sha256 {digest[:12]}; recorded exit {want['exit']}, {want['sha256'][:12]}"
        if cmd.paper and cmd.paper not in text:
            return f"paper value {cmd.paper!r} missing"
        return None
    if cmd.check == "pass":
        return None if code == 0 and head.startswith("PASS ") else f"exit {code}: {head!r}"
    if cmd.check == "verdict":
        if (code, head.split(" ", 1)[0]) in ((0, "PASS"), (1, "FAIL")):
            return None
        return f"exit {code} with head line {head!r}"
    if cmd.check == "rejects":
        if code == 2 or "negative" in text.lower():
            return None
        return f"exit {code}, {head!r} on a g table with a negative entry (ROADMAP 2(a))"
    raise ValueError(f"unknown check {cmd.check!r}")


def _cache_build(cli, target: Path, entry) -> set[Path]:
    """Run `lclab triangle --cache target` for entry; return the new files."""
    before = set(target.iterdir()) if target.is_dir() else set()
    g, h, n = entry
    argv = ["triangle", "--g", g, "--h", h, "--n", str(n), "--cache", str(target)]
    code, _ = _run(cli.main, argv)
    written = set(target.iterdir()) - before
    if code != 0 or not written:
        raise RuntimeError(f"{' '.join(argv)} exited {code} and wrote {len(written)} files")
    return written


def prepare(cli, target: Path) -> None:
    """The cache directory every cache round starts from: the CACHE_ENTRY
    build and a corrupted CORRUPT_ENTRY, both written by lclab's CLI, so the
    benchmark does not depend on the cache's file layout."""
    _cache_build(cli, target, workloads.CACHE_ENTRY)
    for path in _cache_build(cli, target, workloads.CORRUPT_ENTRY):
        path.write_text("{not json")


def main(job: dict) -> dict:
    root = Path(job["root"])
    cli = _import_lclab(root)
    cwd = Path.cwd()
    if job.get("prepare"):
        prepare(cli, cwd / workloads.CACHE_DIR)
        return {}

    wl = workloads.make(job["workload"], job["seed"])
    for name, content in wl.files.items():
        (cwd / name).write_text(content)
    if wl.uses_cache:
        shutil.copytree(job["prepared"], cwd / workloads.CACHE_DIR)
    setup_s = time.monotonic() - job["t0"]
    # Times are converted to reference seconds (see calibration.py): set-up
    # by the calibrations just before the spawn and just after set-up, each
    # command by the passes taken just before, during and just after it.
    ref = calibration.calibrate()
    setup = {"setup_s": setup_s * calibration.scale([job["cal0"], ref], []), "setup_raw_s": setup_s}
    if job.get("setup_only"):
        return setup

    tracer = None
    if job["trace"]:
        tracer = layers.Tracer()
        layers.install(tracer)

    outputs = []
    wall_raw_s = wall_s = unattributed_s = 0.0
    layer_s: dict[str, float] = {}
    sampler = calibration.Sampler(tracer.exclude if tracer else None)
    for cmd in wl.commands:
        entry = cli.main if tracer is None else tracer.span(cli.main, cmd.layer_name)
        before = dict(tracer.self_s) if tracer else {}
        with sampler:
            outputs.append(_run(entry, cmd.argv))
        ref_after = calibration.calibrate()
        net = sampler.elapsed - sum(sampler.passes)
        scale = calibration.scale([ref, ref_after], sampler.passes)
        ref = ref_after
        wall_raw_s += net
        wall_s += net * scale
        if tracer:
            spent = {k: v - before.get(k, 0.0) for k, v in tracer.self_s.items()}
            for k, v in spent.items():
                layer_s[k] = layer_s.get(k, 0.0) + v * scale
            unattributed_s += (net - sum(spent.values())) * scale
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    expected = json.loads((HERE / "expected.json").read_text()).get(wl.name, {})
    commands = []
    for cmd, (code, text) in zip(wl.commands, outputs):
        reason = _check(cmd, code, text, expected)
        if reason is None and cmd.oracle and job["oracle"]:
            ocode, otext = _run(cli.main, cmd.oracle)
            if not (ocode == 0 and otext.startswith("PASS ")):
                reason = f"oracle {' '.join(cmd.oracle)!r}: exit {ocode}, {otext[:80]!r}"
        commands.append({
            "key": cmd.key,
            "check": cmd.check,
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "exit": code,
            "reason": reason,
        })
    result = {
        **setup,
        "wall_s": wall_s,
        "wall_raw_s": wall_raw_s,
        "peak_rss_mb": peak_rss_mb,
        "out_bytes": sum(len(text.encode()) for _, text in outputs),
        "commands": commands,
    }
    if tracer is not None:
        result["trace"] = {
            "self_s": layer_s,
            "counts": dict(tracer.counts),
            "unattributed_s": unattributed_s,
            "skipped": tracer.skipped,
        }
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
