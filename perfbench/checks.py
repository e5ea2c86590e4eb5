"""Correctness checks on every job's output.

An operation is one sweep value (its CSV rows, its invariant row or its
classify-gaps record) or one protocol record of ``symmetry``.  Each check
returns one verdict per operation.

At every seed the outputs are cross-checked independently of the stored
references:

* bands: header, sweep and momentum columns, status/velocity consistency,
  and e_plus against arccos(spectrum.rho_closed_form) within 1e-9 (cos(e_plus)
  against rho on gapless rows);
* invariant: |raw - invariant| <= QUANT_TOL on ``ok`` rows;
* classify-gaps: closed-form |d| <= 1e-8 at every emitted gap point;
* symmetry: the records, in the requested order, equal the stored ones.

At seed 0 every job is also compared with the references captured from the
program at the commit that defined this benchmark: headers, statuses, kinds,
invariant columns and gap-point counts exactly, floats within FLOAT_TOL.
"""
from __future__ import annotations

import hashlib
import json

import numpy as np

from topowalk import spectrum
from topowalk.config import config_from_dict
from topowalk.topology import QUANT_TOL

FLOAT_TOL = 1e-9
E_PLUS_TOL = 1e-9
GAP_D_TOL = 1e-8
SAMPLE_EVERY = 211  # bands rows whose floats are stored in the references
BAND_STATUS = ("gapped", "gapless", "ill_defined_velocity")
GAP_KINDS = ("dirac_type_one", "dirac_type_two", "fermi_arc", "flat_band", "unclassified")


def _fmt_value(cfg, value) -> str:
    return str(int(value)) if cfg.sweep_symbol == "T" else repr(float(value))


def _close(a, b) -> bool:
    """Deep equality with floats compared within FLOAT_TOL."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or isinstance(b, str):
        return a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b or abs(a - b) <= FLOAT_TOL
    return a == b


def _exact_digest(rows, dim: int) -> str:
    """Digest of the exact columns (sweep value, momenta, status) of one value's rows."""
    h = hashlib.sha256()
    for cells in rows:
        h.update((",".join(cells[:1 + dim] + cells[-1:]) + "\n").encode())
    return h.hexdigest()[:16]


def _band_floats(cells, dim: int):
    return [float(x) if x else None for x in cells[1 + dim:-1]]


def _bands_layout(job):
    cfg = config_from_dict(job["doc"])
    values = cfg.sweep_values()
    dim = cfg.spec_at(values[0]).dimension
    header = ",".join(["sweep_param"] + [f"k{i + 1}" for i in range(dim)] + ["e_plus"]
                      + [f"v_k{i + 1}" for i in range(dim)] + ["status"])
    return cfg, values, dim, header


def _split_rows(text: str):
    lines = text.split("\n")
    return lines[0], [line.split(",") for line in lines[1:-1]]


def check_bands(text: str, job: dict, ref) -> list:
    cfg, values, dim, header = _bands_layout(job)
    n = cfg.grid ** dim
    got_header, rows = _split_rows(text)
    if got_header != header or len(rows) != n * len(values):
        return [False] * len(values)
    axis = np.linspace(-np.pi, np.pi, cfg.grid, endpoint=False)
    k = np.stack([m.ravel() for m in np.meshgrid(*[axis] * dim, indexing="ij")], axis=-1)
    k_text = [[repr(float(x)) for x in point] for point in k]
    verdicts = []
    for i, value in enumerate(values):
        block = rows[i * n:(i + 1) * n]
        sval = _fmt_value(cfg, value)
        ok = all(len(c) == 2 * dim + 3 and c[0] == sval and c[1:1 + dim] == k_text[j]
                 and c[-1] in BAND_STATUS
                 and all((v != "") == (c[-1] == "gapped") for v in c[2 + dim:-1])
                 for j, c in enumerate(block))
        if ok:
            spec = cfg.spec_at(value)
            rho = spectrum.rho_closed_form(spec.id, spec.angles, spec.T, k)
            e_plus = np.array([float(c[1 + dim]) for c in block])
            gapless = np.array([c[-1] == "gapless" for c in block])
            # at a closing rho is +-1 and arccos turns a one-ulp difference into
            # ~1.5e-8, so gapless rows are compared in the cosine domain
            err = np.where(gapless, np.abs(np.cos(e_plus) - rho),
                           np.abs(e_plus - np.arccos(np.clip(rho, -1.0, 1.0))))
            ok = bool(np.all(err <= E_PLUS_TOL))
        if ok and ref is not None:
            ok = _exact_digest(block, dim) == ref["exact"][i] and all(
                _close(_band_floats(rows[int(r)], dim), want)
                for r, want in ref["samples"].items() if i * n <= int(r) < (i + 1) * n)
        verdicts.append(ok)
    return verdicts


def _invariant_rows(text: str, job: dict):
    cfg = config_from_dict(job["doc"])
    values = cfg.sweep_values()
    header, rows = _split_rows(text)
    if header != "sweep_param,invariant,raw,status" or len(rows) != len(values):
        return None
    return [(c, _fmt_value(cfg, v)) for c, v in zip(rows, values)]


def _invariant_ok(c, sval) -> bool:
    if len(c) != 4 or c[0] != sval:
        return False
    if c[3] == "boundary":
        return c[1] == "" and c[2] == ""
    return c[3] == "ok" and abs(float(c[2]) - int(c[1])) <= QUANT_TOL


def check_invariant(text: str, job: dict, ref, same_as=None) -> list:
    """``same_as``: reference lines whose invariant and status columns must match."""
    pairs = _invariant_rows(text, job)
    if pairs is None:
        return [False] * job["ops"]
    verdicts = []
    for i, (c, sval) in enumerate(pairs):
        ok = _invariant_ok(c, sval)
        if ref is not None:
            want = ref["lines"][i + 1].split(",")
            ok = ok and c[:2] + c[3:] == want[:2] + want[3:] and (
                c[2] == want[2] or abs(float(c[2]) - float(want[2])) <= FLOAT_TOL)
        if same_as is not None:
            want = same_as["lines"][i + 1].split(",")
            ok = ok and (c[1], c[3]) == (want[1], want[3])
        verdicts.append(ok)
    return verdicts


def check_classify(text: str, job: dict, ref) -> list:
    cfg = config_from_dict(job["doc"])
    values = cfg.sweep_values()
    doc = json.loads(text)
    records = doc.get("records", [])
    head = {k: doc.get(k) for k in ("schema", "command", "protocol")}
    if (len(records) != len(values) or head["command"] != "classify-gaps"
            or head["protocol"] != cfg.protocol):
        return [False] * len(values)
    verdicts = []
    for i, (rec, value) in enumerate(zip(records, values)):
        ok = rec["sweep_value"] == (int(value) if cfg.sweep_symbol == "T" else float(value))
        ok = ok and all(c["kind"] in GAP_KINDS for c in rec["classifications"])
        if ok and rec["gap_points"]:
            spec = cfg.spec_at(value)
            k = np.array([p["k"] for p in rec["gap_points"]])
            d = spectrum.d_closed_form(spec.id, spec.angles, spec.T, k)
            ok = bool(np.all(np.linalg.norm(d, axis=-1) <= GAP_D_TOL))
        if ref is not None:
            want = ref["doc"]
            ok = ok and all(head[k] == want[k] for k in head) and _close(rec, want["records"][i])
        verdicts.append(ok)
    return verdicts


def check_symmetry(text: str, job: dict, ref) -> list:
    """Records must come in the requested order and equal the stored records."""
    records = json.loads(text).get("records", [])
    want = {r["protocol"]: r for r in ref["doc"]["records"]}
    if len(records) != len(job["ids"]):
        return [False] * job["ops"]
    return [rec.get("protocol") == pid and _close(rec, want[pid])
            for rec, pid in zip(records, job["ids"])]


def verify(seed: int, jobs: list, first_dir, passes: list, refs: dict):
    """(attempted, failed, per-job notes) over every pass.

    The first pass's outputs are checked in full; a later pass of a job
    counts as its first pass's verdict only when its output bytes are
    identical, otherwise every operation of that job fails.  A job that
    exits non-zero fails all of its operations.
    """
    attempted = failed = 0
    notes = {}
    for j, job in enumerate(jobs):
        text = (first_dir / f"{job['name']}.out").read_text(encoding="utf-8") \
            if passes[0]["digests"][j] is not None else None
        if text is None or passes[0]["rcs"][j] != 0:
            bad_first = job["ops"]
        else:
            ref = refs.get(job["name"]) if seed == 0 else None
            if job["command"] == "bands":
                verdicts = check_bands(text, job, ref)
            elif job["command"] == "invariant":
                verdicts = check_invariant(text, job, ref, refs.get("fig10")
                                           if seed == 0 and job["name"] == "fig10-grid512"
                                           else None)
            elif job["command"] == "classify-gaps":
                verdicts = check_classify(text, job, ref)
            else:
                verdicts = check_symmetry(text, job, refs["symmetry"])
            bad_first = verdicts.count(False)
        job_failed = 0
        for p in passes:
            attempted += job["ops"]
            same = p["digests"][j] == passes[0]["digests"][j]
            job_failed += bad_first if (p["rcs"][j] == 0 and same) else job["ops"]
        failed += job_failed
        notes[job["name"]] = {"ops": job["ops"], "passes": len(passes), "failed": job_failed}
    return attempted, failed, notes


def capture(jobs: list, first_dir) -> dict:
    """Compact references for seed 0, from one pass's outputs."""
    refs = {}
    for job in jobs:
        text = (first_dir / f"{job['name']}.out").read_text(encoding="utf-8")
        if job["command"] == "bands":
            cfg, values, dim, _ = _bands_layout(job)
            n = cfg.grid ** dim
            _, rows = _split_rows(text)
            refs[job["name"]] = {
                "exact": [_exact_digest(rows[i * n:(i + 1) * n], dim) for i in range(len(values))],
                "samples": {str(r): _band_floats(rows[r], dim)
                            for r in range(0, len(rows), SAMPLE_EVERY)},
            }
        elif job["command"] == "invariant":
            refs[job["name"]] = {"lines": text.split("\n")[:-1]}
        else:
            refs[job["name"]] = {"doc": json.loads(text)}
    return refs
