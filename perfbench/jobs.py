"""Workload definitions and the seeded inputs each workload's jobs receive.

A job is one in-process CLI invocation.  Seed 0 runs the fixtures verbatim.
Any other seed shifts each angle sweep's start and stop by one seeded
fraction (at most SHIFT) of its sweep step, which keeps every value count and job shape;
sweeps over the step number T stay verbatim.  For ``symmetry-golden`` the
seed permutes the protocol order instead.
"""
from __future__ import annotations

import json
import random
from pathlib import Path

# Largest shift of an angle sweep, as a fraction of its step.  It stays
# small so that a value next to a gap closing in the fixture stays next to
# it, and every seed does about the fixture's work: at half a step the
# refine work of fig-sweeps varied by 30% between seeds, and dense-chern
# skipped refine altogether.
SHIFT = 0.01

# CLI jobs of one pass per workload: (command, fixture, extra flags...).  Why
# each workload exists, and which layers it loads or bypasses, is recorded
# in BENCHMARK.json.
WORKLOADS = {
    "fig-bands": [("bands", f"fig{i}") for i in (1, 3, 4, 5, 7, 8, 9)],
    "fig-sweeps": [("classify-gaps", "fig2"), ("invariant", "fig6"),
                   ("invariant", "fig10"), ("invariant", "fig11")],
    "symmetry-golden": [("symmetry", None)],
    "dense-chern": [("invariant", "fig10", "--grid", "512")],
}


def _seeded_doc(doc: dict, rng: random.Random) -> dict:
    sweep = dict(doc["sweep"])
    if sweep["symbol"] != "T":
        step = (sweep["stop"] - sweep["start"]) / (sweep["count"] - 1)
        shift = rng.uniform(-SHIFT, SHIFT) * step
        sweep["start"] += shift
        sweep["stop"] += shift
    return dict(doc, sweep=sweep)


def make_jobs(workload: str, seed: int, fixtures: Path, protocol_ids, workdir: Path) -> list:
    """Job descriptions for one pass: name, CLI argv (without --out) and the
    number of operations (sweep values or protocol records) it attempts.

    The seeded configs are written to ``workdir``; the program reads only them.
    """
    rng = random.Random(seed)
    jobs = []
    for command, fixture, *extra in WORKLOADS[workload]:
        if command == "symmetry":
            ids = list(protocol_ids)
            if seed != 0:
                rng.shuffle(ids)
            argv = ["symmetry"] + (["all"] if seed == 0 else ids) + ["--golden"]
            jobs.append({"name": "symmetry", "command": command, "argv": argv,
                         "ids": ids, "doc": None, "ops": len(ids)})
            continue
        with open(fixtures / f"{fixture}.cfg", "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if seed != 0:
            doc = _seeded_doc(doc, rng)
        name = fixture if not extra else f"{fixture}-grid{extra[-1]}"
        cfg_path = workdir / f"{name}.cfg"
        cfg_path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        jobs.append({"name": name, "fixture": fixture, "command": command,
                     "argv": [command, "--config", str(cfg_path)] + list(extra)
                     + ["--workers", "1"],
                     "doc": doc, "ops": doc["sweep"]["count"]})
    return jobs
