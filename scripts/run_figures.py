#!/usr/bin/env python3
"""Regenerate every bundled artifact at desk scale.

Runs each fixtures/figN.cfg through the CLI, then `symmetry all --golden`
(classification.json), and drops the CSV/JSON artifacts into an output
directory (default: figure_data/).  `--only` picks fixtures (and skips the
classification), `--grid N` overrides every fixture's momentum grid.  Usage:

    PYTHONPATH=src python scripts/run_figures.py --out-dir figure_data
    PYTHONPATH=src python scripts/run_figures.py --only fig10 --grid 512
"""
import argparse
import pathlib
import sys

from topowalk.cli import main as cli_main
from topowalk.config import config_from_dict, read_document

COMMANDS = {
    "fig1": "bands", "fig2": "classify-gaps", "fig3": "bands", "fig4": "bands",
    "fig5": "bands", "fig6": "invariant", "fig7": "bands", "fig8": "bands",
    "fig9": "bands", "fig10": "invariant", "fig11": "invariant",
}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--fixtures", default="fixtures", help="fixture directory")
    ap.add_argument("--out-dir", default="figure_data")
    ap.add_argument("--only", nargs="*", help="subset of fixture names, e.g. fig6 fig10")
    ap.add_argument("--grid", type=int, help="momentum grid per axis for every fixture")
    args = ap.parse_args(argv)

    fixture_dir = pathlib.Path(args.fixtures)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    names = args.only or sorted(COMMANDS, key=lambda s: int(s[3:]))
    grid = [] if args.grid is None else ["--grid", str(args.grid)]
    for name in names:
        cfg_path = fixture_dir / f"{name}.cfg"
        cfg = config_from_dict(read_document(str(cfg_path))).validate()
        out_path = out_dir / (cfg.out or f"{name}.out")
        rc = cli_main([COMMANDS[name], "--config", str(cfg_path), "--out", str(out_path)] + grid)
        print(f"{name}: {COMMANDS[name]} -> {out_path} (exit {rc})")
        if rc != 0:
            return rc
    if not args.only:
        out_path = out_dir / "classification.json"
        rc = cli_main(["symmetry", "all", "--golden", "--out", str(out_path)])
        print(f"symmetry: symmetry all --golden -> {out_path} (exit {rc})")
        return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
