#!/usr/bin/env python3
"""Compare the bundled artifacts of a git revision with the working tree's.

    python scripts/artifact_diff.py REV [--only fig10 ...] [--grid N] [--identical]

Extracts REV's src/ with `git archive` into a temporary directory (nothing is
written into the checkout), runs the working tree's scripts/run_figures.py on
the working tree's fixtures once against that src/ and once against the
working tree's src/, and compares the artifacts (all 12 by default; `--only`
and `--grid` are passed to both runs, e.g. to compare fig10 at a 512 grid):

* exactly: headers, the sweep and k columns, status, kind, invariant
  columns, and in JSON every key, string, integer, sweep value and list
  length (so the gap-point counts);
* within FLOAT_TOL: every other float.  e_plus on gapless rows is compared
  as cos(e_plus), because at a band touching arccos turns a one-ulp change
  of cos E into ~1e-8.

Prints, per artifact, whether the two runs' bytes are identical, then the
largest deviation per artifact and field, and exits 1 on any mismatch (or if
either run fails).  Identical bytes are reported, and required only with
`--identical`: then any artifact whose bytes differ also exits 1.
"""
import argparse
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
FLOAT_TOL = 1e-9
EXACT_COLUMNS = {"sweep_param", "k1", "k2", "k3", "status", "invariant"}
EXACT_KEYS = {"sweep_value"}


class Diff:
    """Whether each artifact's bytes are identical, the largest float deviation
    per (artifact, field) and the exact mismatches."""

    def __init__(self):
        self.names = []
        self.identical = {}
        self.dev = {}
        self.mismatches = []

    def exact(self, where: str, a, b):
        if a != b or type(a) is not type(b):
            self.mismatches.append(f"{where}: {a!r} != {b!r}")

    def close(self, artifact: str, field: str, where: str, a: float, b: float):
        if math.isnan(a) and math.isnan(b):
            dev = 0.0
        else:
            dev = abs(a - b)
            if math.isnan(dev):
                dev = math.inf
        key = (artifact, field)
        self.dev[key] = max(self.dev.get(key, 0.0), dev)
        if not dev <= FLOAT_TOL:
            self.mismatches.append(f"{where}: {a!r} vs {b!r} (|d| = {dev:.3g})")


def _compare_csv(name: str, old: str, new: str, diff: Diff):
    rows_a = list(csv.reader(io.StringIO(old)))
    rows_b = list(csv.reader(io.StringIO(new)))
    diff.exact(f"{name} header", rows_a[0], rows_b[0])
    diff.exact(f"{name} row count", len(rows_a), len(rows_b))
    header = rows_a[0]
    for i, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:]), start=2):
        if len(ra) != len(rb) or len(ra) != len(header):
            diff.mismatches.append(f"{name} line {i}: {len(ra)} vs {len(rb)} cells")
            continue
        gapless = dict(zip(header, ra)).get("status") == "gapless"
        for col, a, b in zip(header, ra, rb):
            where = f"{name} line {i} {col}"
            if col in EXACT_COLUMNS or a == "" or b == "":
                diff.exact(where, a, b)
            elif col == "e_plus" and gapless:
                diff.close(name, "cos(e_plus) gapless", where,
                           math.cos(float(a)), math.cos(float(b)))
            else:
                diff.close(name, col, where, float(a), float(b))


def _compare_json(name: str, a, b, diff: Diff, path: str = "", field: str = ""):
    where = f"{name} {path or '/'}"
    if isinstance(a, dict) and isinstance(b, dict):
        diff.exact(f"{where} keys", sorted(a), sorted(b))
        for key in sorted(set(a) & set(b)):
            sub = f"{field}.{key}" if field else key
            _compare_json(name, a[key], b[key], diff, f"{path}/{key}",
                          key if key in EXACT_KEYS else sub)
    elif isinstance(a, list) and isinstance(b, list):
        diff.exact(f"{where} length", len(a), len(b))
        for i, (x, y) in enumerate(zip(a, b)):
            _compare_json(name, x, y, diff, f"{path}/{i}", field)
    elif isinstance(a, float) and isinstance(b, float) and field not in EXACT_KEYS:
        diff.close(name, field, where, a, b)
    else:
        diff.exact(where, a, b)


def compare_dirs(old_dir: pathlib.Path, new_dir: pathlib.Path) -> Diff:
    diff = Diff()
    diff.names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    for name in diff.names:
        pa, pb = old_dir / name, new_dir / name
        if not (pa.is_file() and pb.is_file()):
            diff.mismatches.append(f"{name}: present on one side only")
            continue
        ba, bb = pa.read_bytes(), pb.read_bytes()
        diff.identical[name] = ba == bb
        ta, tb = ba.decode("utf-8"), bb.decode("utf-8")
        if name.endswith(".json"):
            _compare_json(name, json.loads(ta), json.loads(tb), diff)
        else:
            _compare_csv(name, ta, tb, diff)
    return diff


def _extract_src(rev: str, dest: pathlib.Path):
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def _start_figures(src: pathlib.Path, out_dir: pathlib.Path, extra):
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, str(ROOT / "scripts" / "run_figures.py"),
         "--fixtures", str(ROOT / "fixtures"), "--out-dir", str(out_dir)] + extra,
        cwd=str(ROOT), env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="git revision to compare the working tree against")
    ap.add_argument("--only", nargs="+", help="fixture names passed to run_figures.py")
    ap.add_argument("--grid", type=int, help="momentum grid passed to run_figures.py")
    ap.add_argument("--identical", action="store_true",
                    help="exit 1 unless every artifact is byte-identical")
    args = ap.parse_args(argv)
    extra = (["--only", *args.only] if args.only else []) + (
        [] if args.grid is None else ["--grid", str(args.grid)])

    with tempfile.TemporaryDirectory(prefix="artifact-diff-") as tmp:
        tmp = pathlib.Path(tmp)
        _extract_src(args.rev, tmp / "rev")
        runs = {"rev": _start_figures(tmp / "rev" / "src", tmp / "out-rev", extra),
                "tree": _start_figures(ROOT / "src", tmp / "out-tree", extra)}
        failed = False
        for side, proc in runs.items():
            log, _ = proc.communicate()
            if proc.returncode != 0:
                failed = True
                print(f"run_figures.py at {side} exited {proc.returncode}:\n{log}")
        if failed:
            return 1
        diff = compare_dirs(tmp / "out-rev", tmp / "out-tree")

    print(f"artifacts compared: {len(diff.names)} ({args.rev} vs working tree)")
    for name in diff.names:
        print(f"  {name:24s} bytes {'identical' if diff.identical.get(name) else 'differ'}")
    for (name, field), dev in sorted(diff.dev.items()):
        flag = "" if dev <= FLOAT_TOL else "  > tolerance"
        print(f"  {name:24s} {field:48s} max |d| = {dev:.3g}{flag}")
    if diff.mismatches:
        print(f"{len(diff.mismatches)} mismatches, first ones:")
        for line in diff.mismatches[:20]:
            print(f"  {line}")
        return 1
    differ = [name for name in diff.names if not diff.identical.get(name)]
    if args.identical and differ:
        print(f"bytes differ in {len(differ)} of {len(diff.names)} artifacts: FAIL (--identical)")
        return 1
    print(f"exact fields identical; floats within {FLOAT_TOL:g}: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
