"""Runs one workload in a fresh interpreter: set-up, timed passes, optional trace.

Usage: child.py PLAN.json [--setup-only]

PLAN.json is written by run.py.  The child prints one JSON object on stdout.
Set-up (importing topowalk, numpy and scipy, then loading and validating the
workload's configs) ends at the ``ready`` timestamp, taken on the system-wide
monotonic clock so the parent can subtract its own spawn time.
"""
from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path


def _digest(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _run_pass(cli, jobs, out_dir: Path, tracer=None, sampler=None) -> dict:
    """One pass over the jobs.  ``net_s`` is its clock time less the time
    the sampler's calibration kernel took inside it, and ``speed`` the host's
    speed over the pass (see calib.py)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rcs = []
    if sampler is not None:
        sampler.start()
    start = time.monotonic()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        try:
            rc = cli.main(job["argv"] + ["--out", str(out_dir / f"{job['name']}.out")])
        except Exception as err:  # a crash fails the job's operations, not the run
            print(f"{job['name']}: {type(err).__name__}: {err}", file=sys.stderr)
            rc = -1
        rcs.append(rc)
    wall = time.monotonic() - start
    timing = {"raw_wall_s": wall, "net_s": wall}
    if sampler is not None:
        sampler.stop()
        timing.update(net_s=wall - sampler.busy_s, speed=sampler.speed(),
                      calib_n=len(sampler.samples))
    digests = [_digest(out_dir / f"{job['name']}.out")
               if (out_dir / f"{job['name']}.out").exists() else None for job in jobs]
    return {**timing, "rcs": rcs, "digests": digests}


def _output_size(jobs, out_dir: Path):
    rows = size = 0
    for job in jobs:
        text = (out_dir / f"{job['name']}.out").read_text(encoding="utf-8")
        size += len(text.encode("utf-8"))
        if job["command"] in ("bands", "invariant"):
            rows += text.count("\n") - 1
        else:
            rows += len(json.loads(text)["records"])
    return rows, size


def main(argv) -> int:
    plan = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    from topowalk import cli
    from topowalk.config import config_from_dict
    from topowalk.protocols import registry_lookup

    for job in plan["jobs"]:
        if job["doc"] is not None:
            with open(job["argv"][2], "r", encoding="utf-8") as fh:
                config_from_dict(json.load(fh)).validate()
        else:
            for pid in job["ids"]:
                registry_lookup(pid)
    ready = time.monotonic()
    from calib import SETUP_SAMPLES, Sampler, kernel_s
    ready_samples = [kernel_s() for _ in range(SETUP_SAMPLES)]
    if "--setup-only" in argv:
        print(json.dumps({"ready": ready, "ready_samples": ready_samples}))
        return 0
    sampler = Sampler()

    jobs, work = plan["jobs"], Path(plan["workdir"])
    first_dir = work / "first"
    passes = []
    while True:
        out_dir = work / "pass"
        passes.append(_run_pass(cli, jobs, out_dir, sampler=sampler))
        if len(passes) == 1:
            out_dir.rename(first_dir)
        walls = sorted(p["raw_wall_s"] for p in passes)
        elapsed = time.monotonic() - ready
        if plan["trace"] or elapsed + walls[len(walls) // 2] > plan["seconds"]:
            break
    result = {"ready": ready, "ready_samples": ready_samples, "passes": passes,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}

    if plan["trace"]:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        tracer.install()
        try:
            traced = _run_pass(cli, jobs, work / "traced", tracer)
        finally:
            tracer.uninstall()
        passes.append(traced)
        # untraced passes on both sides of the traced one, so warm-up is not
        # counted as tracing overhead
        passes.append(_run_pass(cli, jobs, work / "pass", sampler=sampler))
        untraced = (passes[0]["net_s"] + passes[-1]["net_s"]) / 2
        rows, size = _output_size(jobs, work / "traced")
        metrics = layer_metrics(tracer.spans, rows, size, traced["net_s"] - untraced)
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["spans"] = len(tracer.spans)
        tracer.write(plan["spans_path"])
        shutil.rmtree(work / "traced")
    shutil.rmtree(work / "pass", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
