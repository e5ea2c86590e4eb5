#!/usr/bin/env python3
"""topowalk benchmark: regenerate the paper's figure data and time it.

    python3 perfbench/run.py --workload fig-bands --seed 0 --seconds 20 --trace 0

Runs the workload's CLI jobs in-process in a fresh child interpreter, with
``--workers 1`` and BLAS/OpenMP threads pinned to 1, repeating whole passes
for about ``--seconds`` seconds.  Every output is checked (see checks.py).
Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: wall_s (median pass),
values_per_s, setup_s (median of several fresh interpreter starts) and
peak_rss_mib.  wall_s, values_per_s and setup_s are taken at the reference
host speed of calib.py, which cancels the shared host's swings in load; the
clock's own times are printed beside them.  ``--trace 1`` runs one untraced
pass and one traced pass and reports the per-layer metrics of tracer.py,
including the tracing overhead.

Other modes:
    run.py --capture --workload W    store seed-0 references for W
    run.py --agree DIR_A DIR_B       compare two result sets of the same code

Results, spans and temporary artifacts go under .perfbench/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from jobs import WORKLOADS, make_jobs

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
STATE = ROOT / ".perfbench"
REFERENCES = BENCH_DIR / "references"
SETUP_STARTS = 6  # set-up-only interpreters per run, besides the workload's own
DEADLINE_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
UNIT = {"wall_s": "s", "values_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}


def _layout_ok() -> bool:
    return (ROOT / "src" / "topowalk" / "cli.py").is_file() and (ROOT / "fixtures").is_dir()


def _spawn(plan_path: Path, deadline: float, *extra) -> tuple:
    """Start child.py; return (spawn time on the monotonic clock, its JSON)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               **{v: "1" for v in THREAD_VARS})
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "child.py"), str(plan_path), *extra],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(deadline - t0, 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return t0, json.loads(proc.stdout.strip().splitlines()[-1])


def _quantiles(xs) -> dict:
    """Median, quartiles, and the highest percentile with >= 10 samples beyond it."""
    xs = sorted(xs)
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
    out = {"n": len(xs), "median": statistics.median(xs), "p25": q[0], "p75": q[2],
           "min": xs[0], "max": xs[-1], "tail": None}
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(xs) * (100 - p) / 100 >= 10:
            out["tail"] = (p, statistics.quantiles(xs, n=1000)[int(p * 10) - 1])
            break
    return out


def _git_rev():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_DIR=str(ROOT / ".git")))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _provenance(args) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "git_rev": _git_rev(),
            "nproc": os.cpu_count(), "cpu_model": _cpu_model()}


def _load_refs(workload: str) -> dict:
    refs = json.loads((REFERENCES / f"{workload}.json").read_text(encoding="utf-8"))
    if workload == "dense-chern":  # its invariants must equal fig10's at grid 64
        refs["fig10"] = _load_refs("fig-sweeps")["fig10"]
    return refs


def _measure(args, workdir: Path, deadline: float) -> dict:
    from topowalk.protocols import PROTOCOL_IDS
    jobs = make_jobs(args.workload, args.seed, ROOT / "fixtures", PROTOCOL_IDS, workdir)
    plan = {"src": str(ROOT / "src"), "jobs": jobs, "workdir": str(workdir),
            "seconds": 0 if args.capture else args.seconds, "trace": args.trace,
            "spans_path": str(STATE / f"spans-{args.workload}.jsonl.gz")}
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    from calib import SETUP_SAMPLES, kernel_s, speed
    setups, raw_setups = [], []
    starts = 1 if args.trace or args.capture else SETUP_STARTS + 1
    for i in range(starts):
        before = [kernel_s() for _ in range(SETUP_SAMPLES)]
        t0, out = _spawn(plan_path, deadline, *(["--setup-only"] if i < starts - 1 else []))
        raw_setups.append(out["ready"] - t0)
        # scaled by the host's speed just before the spawn and just after the set-up
        setups.append(raw_setups[-1] * speed(before + out["ready_samples"]))
    return {"jobs": jobs, "setups": setups, "raw_setups": raw_setups, **out}


def _end_to_end(run: dict) -> tuple:
    ops = sum(job["ops"] for job in run["jobs"])
    walls = [p["net_s"] * p["speed"] for p in run["passes"] if "speed" in p]
    samples = {"wall_s": walls, "values_per_s": [ops / w for w in walls],
               "setup_s": run["setups"], "peak_rss_mib": [run["peak_rss_mib"]]}
    return ops, {name: _quantiles(xs) for name, xs in samples.items()}


def _print_summary(args, run, ops, stats, attempted, failed):
    what = "protocol records" if args.workload == "symmetry-golden" else "sweep values"
    for name, st in stats.items():
        tail = (f"p{st['tail'][0]:g} {st['tail'][1]:.4g}" if st["tail"]
                else "no percentile above the median has >=10 samples beyond it")
        print(f"{name:14s} {st['median']:12.6g} {UNIT[name]:4s} median of n={st['n']}"
              f" (p25 {st['p25']:.4g}, p75 {st['p75']:.4g}, max {st['max']:.4g}; {tail})")
    raw = {"wall_s": [p["raw_wall_s"] for p in run["passes"]], "setup_s": run["raw_setups"],
           "host speed": [p["speed"] for p in run["passes"] if "speed" in p]}
    for name, xs in raw.items():
        print(f"{name:14s} {statistics.median(xs):12.6g} {UNIT.get(name, ''):4s} median of"
              f" n={len(xs)} as the clock read it (min {min(xs):.4g}, max {max(xs):.4g})")
    print(f"{'fail_ratio':14s} {failed / attempted:12.6g} {'':4s} {failed} failed of {attempted}"
          f" attempted operations ({ops} {what} per pass)")


def run_benchmark(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=STATE / "tmp"))
    try:
        sys.path.insert(0, str(ROOT / "src"))
        run = _measure(args, workdir, deadline)
        from checks import capture, verify
        if args.capture:
            return _capture(args, run, workdir, capture)
        attempted, failed, notes = verify(args.seed, run["jobs"], workdir / "first",
                                          run["passes"], _load_refs(args.workload))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops, stats = _end_to_end(run)
    prov = _provenance(args)
    print(" ".join(f"{k}={v}" for k, v in prov.items()))
    for name, note in notes.items():
        print(f"job {name}: {note['failed']} failed of {note['ops'] * note['passes']}")
    if args.trace:
        metrics = run["layers"]
        print(f"traced pass: {run['spans']} spans written to {STATE.name}/"
              f"spans-{args.workload}.jsonl.gz")
        for name, m in metrics.items():
            print(f"{name:56s} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = {name: {"value": st["median"], "unit": UNIT[name]} for name, st in stats.items()}
        _print_summary(args, run, ops, stats, attempted, failed)

    results = ROOT / args.results
    results.mkdir(parents=True, exist_ok=True)
    record = {"provenance": prov, "attempted": attempted, "failed": failed, "jobs": notes,
              "stats": stats, "metrics": metrics, "passes": run["passes"]}
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _capture(args, run, workdir, capture) -> int:
    if args.seed != 0 or any(rc != 0 for rc in run["passes"][0]["rcs"]):
        print("error: references are captured at seed 0 from jobs that exit 0", file=sys.stderr)
        return 2
    refs = capture(run["jobs"], workdir / "first")
    REFERENCES.mkdir(exist_ok=True)
    path = REFERENCES / f"{args.workload}.json"
    path.write_text(json.dumps(refs, separators=(",", ":"), sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def agree(dir_a: Path, dir_b: Path) -> int:
    """Per workload and end-to-end metric: do two result sets agree within the bound?"""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sets = []
    for d in (dir_a, dir_b):
        by_workload = {}
        for path in sorted(d.glob("*-trace0.json")):
            rec = json.loads(path.read_text(encoding="utf-8"))
            by_workload.setdefault(rec["provenance"]["workload"], []).append(rec)
        sets.append(by_workload)
    all_agree = True
    for wl in sorted(set(sets[0]) & set(sets[1])):
        runs = [len(s[wl]) for s in sets]
        if min(runs) < 2:
            print(f"{wl:16s} needs at least two runs in each set, has {runs[0]}/{runs[1]}")
            all_agree = False
            continue
        for m in bench["end_to_end"]:
            meds, spreads = [], []
            for s in sets:
                xs = [r["metrics"][m["name"]]["value"] for r in s[wl]]
                q = statistics.quantiles(xs, n=4)
                meds.append(q[1])
                spreads.append((q[2] - q[0]) / q[1])
            change = meds[1] / meds[0] - 1
            worse = change if m["better"] == "lower" else -change
            if max(spreads) > m["bound"]:
                verdict = "unresolved"
            elif abs(change) <= m["bound"]:
                verdict = "agree"
            else:
                verdict = "disagree"
            all_agree &= verdict == "agree"
            steady = "steady" if max(spreads) < m["bound"] / 3 else "noisy"
            print(f"{wl:16s} {m['name']:13s} runs {runs[0]}/{runs[1]} median {meds[0]:.5g} ->"
                  f" {meds[1]:.5g} ({worse:+.1%} worse; bound {m['bound']:.0%})"
                  f" spread {spreads[0]:.1%}/{spreads[1]:.1%} {steady}: {verdict}")
    return 0 if all_agree else 1


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception: subprocess.run kills and reaps the
    # child, and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"],
                    help="'all' runs every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=".perfbench/results",
                    help="directory, relative to the checkout, for per-run result files")
    ap.add_argument("--capture", action="store_true",
                    help="store the seed-0 references for --workload")
    ap.add_argument("--agree", nargs=2, metavar="DIR",
                    help="compare two result sets of the same code")
    args = ap.parse_args(argv)
    if args.agree:
        return agree(ROOT / args.agree[0], ROOT / args.agree[1])
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not _layout_ok():
        print("error: no topowalk source tree (src/topowalk, fixtures/) next to the benchmark",
              file=sys.stderr)
        return 2
    rc = 0
    for workload in sorted(WORKLOADS) if args.workload == "all" else [args.workload]:
        args.workload = workload
        try:
            rc |= run_benchmark(args)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            print(f"error: {workload}: {err}", file=sys.stderr)
            rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
