"""Command-line driver: deterministic band/invariant/symmetry sweeps.

Subcommands
-----------
bands          CSV of + band energy and group velocity over momentum grids
invariant      CSV of winding (1D chiral) or Chern (2D) numbers along a sweep
classify-gaps  JSON of gap closings and boundary-state taxonomy along a sweep
symmetry       JSON classification records; --golden diffs against the
               bundled reference table

Exit codes: 0 success, 2 usage/config error, 3 numerical diagnostic,
1 golden-table mismatch.  An output path that cannot be written is a usage
error before any row is computed, and a failed run creates no file.
Identical configs produce byte-identical artifacts for any worker count: rows
are computed by pure functions and merged in sweep order.  Every sweep
command computes them per chunk of sweep values, one plan pass per chunk of at
most CHUNK_POINTS values x grid points (at least one value; `classify-gaps`
counts its scan grid of at least topology.MIN_SCAN_GRID points per axis), so
the chunk boundaries depend on the grid alone.

`bands` runs in two passes.  Pass 1 computes each chunk's numbers, in the
workers if there are several, and no text.  Pass 2, in the calling process,
formats every float of the run once per distinct magnitude and writes the
rows chunk by chunk as they are formed; the output is opened only after pass
1 has computed every number.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import partial
from importlib import resources
from itertools import chain

import numpy as np

from .config import (KEYS, LINK_KEYS, SCHEMA, SWEEP_KEYS, SweepConfig, config_from_dict,
                     read_document)
from .errors import (ClassificationError, InvalidInputError, UnknownProtocolError,
                     WalkError)
from .protocols import PROTOCOL_IDS, registry_lookup
from .spectrum import EPS_GAP, bands_with_velocity
from . import symmetry, topology

# sweep values x grid points per plan pass of a sweep command, and per piece
# of text that pass 2 of `bands` writes; larger chunks raise peak memory but
# not speed
CHUNK_POINTS = 2 ** 13
# distinct float magnitudes that pass 2 of `bands` holds as Python strings at
# a time
REPR_BATCH = 2 ** 12

# the process pool class, imported by `_map_values` only when a run asks for
# more than one worker; a stand-in set here is used as it is
ProcessPoolExecutor = None


def _split(text: str, keys) -> dict:
    """--sweep or --link text A:B:... as the values of `keys` in order; a
    missing value is left to the table to report, extra ones stay in the last."""
    return dict(zip(keys, text.split(":", len(keys) - 1)))


def _entry(text: str, keys=None) -> tuple:
    """--set or --link text SYM=VALUE as (SYM, VALUE), VALUE split by `keys` if given."""
    sym, _, value = text.partition("=")
    return sym.strip(), value if keys is None else _split(value, keys)


def _bands_chunk(cfg: SweepConfig, values, k) -> tuple:
    """Pass 1 of `bands` for a contiguous chunk of sweep values, from one plan
    pass: the swept, linked and step parameters are (V, 1) arrays against the
    (N,) grid k.  Returns the (V, N, 1 + dim) floats e_plus, v_k1, ... and the
    (V, N) gapless mask; no text."""
    angles, T = cfg.walk_params(np.array(values)[:, None])
    e_plus, norm, vel = bands_with_velocity(cfg.protocol, k, angles=angles, T=T)
    return np.concatenate([e_plus[..., None], vel], axis=-1), norm <= EPS_GAP


def _ascii(texts) -> np.ndarray:
    """ASCII `texts` as the rows of a uint8 array, padded with NUL bytes."""
    padded = np.array(texts, dtype=bytes)
    return padded.view(np.uint8).reshape(len(padded), padded.itemsize)


def _float_cells(arrays):
    """Yield, for each float array of `arrays` in turn, the repr of each of its
    floats as ASCII: a uint8 array of the array's shape plus one axis of bytes,
    in which NUL bytes are padding.  repr runs once per distinct magnitude
    across all of them (np.unique of the bit patterns of |x|), and a cell
    whose sign bit is set, -0.0 too and NaN aside, gets "-" before its
    magnitude's text: repr(-m) == "-" + repr(m)."""
    mags, inverse = np.unique(np.concatenate([np.abs(a).ravel() for a in arrays]).view(np.int64),
                              return_inverse=True)
    mags = mags.view(np.float64)
    # in batches (one, empty, for no floats), so that only one batch of the
    # texts is held as Python strings
    batches = [np.array(list(map(repr, mags[i:i + REPR_BATCH].tolist())), dtype=bytes)
               for i in range(0, max(len(mags), 1), REPR_BATCH)]
    text = _ascii(np.concatenate(batches))
    start = 0
    for a in arrays:
        cells = np.empty(a.shape + (1 + text.shape[1],), np.uint8)
        cells[..., 0] = np.where(np.signbit(a) & ~np.isnan(a), ord("-"), 0)
        cells[..., 1:] = text[inverse[start:start + a.size]].reshape(cells[..., 1:].shape)
        start += a.size
        yield cells


def _bands_rows(parts, chunks, k):
    """Pass 2 of `bands`: the CSV text of each chunk's rows in turn, formed as
    it is asked for, from the sweep values `parts`, their pass-1 `chunks` and
    the grid k.  A chunk's rows are laid out as fixed-width fields in one
    uint8 array; their text is its bytes with the NUL padding left out."""
    k_text = _ascii([",".join(map(repr, row)) + "," for row in k.tolist()])
    status = _ascii(["gapped\n", "gapless\n"])
    floats = _float_cells([cells for cells, _ in chunks])
    for values, cells, (_, gapless) in zip(parts, floats, chunks):
        cells[gapless, 1:] = 0  # a gapless row's velocity cells are empty
        comma = np.full(cells.shape[:-1] + (1,), ord(","), np.uint8)
        sweep = _ascii([repr(v) + "," for v in values])
        shape = gapless.shape
        row = np.concatenate([np.broadcast_to(sweep[:, None], shape + sweep.shape[-1:]),
                              np.broadcast_to(k_text, shape + k_text.shape[-1:]),
                              np.concatenate([cells, comma], axis=-1).reshape(shape + (-1,)),
                              status[gapless.astype(np.intp)]], axis=-1)
        yield row[row != 0].tobytes().decode("ascii")


def _invariant_chunk_rows(cfg: SweepConfig, values) -> str:
    """The CSV rows of a contiguous chunk of sweep values, from one plan pass
    (`topology.sweep_invariants`)."""
    results = topology.sweep_invariants([cfg.spec_at(v) for v in values], cfg.grid)
    return "\n".join(f"{v!r},,,boundary" if res is None
                     else f"{v!r},{res[0]},{float(res[1])!r},ok"
                     for v, res in zip(values, results))


def _classify_chunk_records(cfg: SweepConfig, values) -> list:
    """The classify-gaps records of a contiguous chunk of sweep values, from one
    plan pass (`topology.sweep_boundaries`)."""
    found = topology.sweep_boundaries([cfg.spec_at(v) for v in values], cfg.grid)
    return [{"sweep_value": v,
             "gap_points": [{"k": p.k, "quasi_energy": p.quasi_energy, "residual": p.residual}
                            for p in points],
             "classifications": [{"kind": c.kind, "evidence": c.evidence} for c in classes]}
            for v, (points, classes) in zip(values, found)]


def _chunks(cfg: SweepConfig, points: int) -> list:
    """The sweep values in contiguous chunks of at most CHUNK_POINTS // points
    values (at least one); they depend on the grid alone, so the bytes do not
    depend on the workers."""
    size = max(1, CHUNK_POINTS // points)
    values = cfg.sweep_values()
    return [values[i:i + size] for i in range(0, len(values), size)]


def _map_values(cfg: SweepConfig, values, fn, workers: int):
    workers = min(workers, len(values))  # no idle processes, no pool for one task
    if workers > 1:
        pool_class = ProcessPoolExecutor
        if pool_class is None:
            from concurrent.futures import ProcessPoolExecutor as pool_class
        with pool_class(max_workers=workers) as pool:
            return list(pool.map(fn, [cfg] * len(values), values))
    return [fn(cfg, v) for v in values]


def _unwritable(path, err) -> InvalidInputError:
    return InvalidInputError(f"out {path!r} cannot be written: {err}")


def _write_text(path, pieces):
    """Write the text `pieces` in order to the output path, or to stdout for
    None or "-"; the pieces of a generator are formed as they are written.
    If the write fails, a file that this call created is removed again."""
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
        return
    existed = os.path.lexists(path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    except BaseException as err:
        if not existed and os.path.lexists(path):
            os.remove(path)
        if isinstance(err, OSError):
            raise _unwritable(path, err) from None
        raise


def _json_pieces(payload):
    """The text of `payload` as sorted, indented JSON and a newline, in pieces
    formed as they are written, so the whole text is never held at once."""
    return chain(json.JSONEncoder(sort_keys=True, indent=2).iterencode(payload), ["\n"])


def _check_out(path):
    """Append nothing to the output path, which leaves an existing file as it
    is, so that an unwritable path fails before any row is computed; a file
    the check creates is removed again."""
    if path is None or path == "-":
        return
    existed = os.path.lexists(path)
    try:
        open(path, "a", encoding="utf-8").close()
    except (OSError, ValueError) as err:  # ValueError: a path with a NUL byte
        raise _unwritable(path, err) from None
    if not existed:
        os.remove(path)


def _build_config(args) -> SweepConfig:
    """The config file's document with the flags' values in place of its own;
    --set and --link add to its angles and linked objects."""
    doc = read_document(args.config) if args.config else {}
    for dest, value in vars(args).items():
        key = {"set": "angles", "link": "linked"}.get(dest, dest)  # the object a pair adds to
        if key in KEYS and value is not None:
            if isinstance(value, list):  # --set/--link pairs; a non-object is left to be rejected
                old = doc.get(key, {})
                value = {**old, **dict(value)} if isinstance(old, dict) else old
            doc[key] = value
    cfg = config_from_dict(doc).validate()
    _check_out(cfg.out)
    return cfg


def _cmd_bands(args) -> int:
    cfg = _build_config(args)
    dim = registry_lookup(cfg.protocol).dimension
    header = (["sweep_param"] + [f"k{i+1}" for i in range(dim)] + ["e_plus"]
              + [f"v_k{i+1}" for i in range(dim)] + ["status"])
    k = symmetry.bz_grid(dim, cfg.grid)
    parts = _chunks(cfg, len(k))
    chunks = _map_values(cfg, parts, partial(_bands_chunk, k=k), cfg.workers)
    _write_text(cfg.out, chain([",".join(header) + "\n"], _bands_rows(parts, chunks, k)))
    return 0


def _cmd_invariant(args) -> int:
    cfg = _build_config(args)
    spec = registry_lookup(cfg.protocol)
    if spec.dimension == 3:
        raise InvalidInputError("invariants are computed for 1D (winding) and 2D (Chern) only")
    if spec.dimension == 1:
        try:
            symmetry.chiral_axis(symmetry._ensure_generic_angles(spec))
        except (ClassificationError, KeyError) as err:
            raise InvalidInputError(
                f"winding needs a chiral protocol with a momentum-independent axis:"
                f" {err}") from None
    texts = _map_values(cfg, _chunks(cfg, cfg.grid ** spec.dimension), _invariant_chunk_rows,
                        cfg.workers)
    _write_text(cfg.out, ["\n".join(["sweep_param,invariant,raw,status"] + texts) + "\n"])
    return 0


def _cmd_classify_gaps(args) -> int:
    cfg = _build_config(args)
    points = max(cfg.grid, topology.MIN_SCAN_GRID) ** registry_lookup(cfg.protocol).dimension
    chunks = _map_values(cfg, _chunks(cfg, points), _classify_chunk_records, cfg.workers)
    payload = {"schema": SCHEMA, "command": "classify-gaps", "protocol": cfg.protocol,
               "records": [record for chunk in chunks for record in chunk]}
    _write_text(cfg.out, _json_pieces(payload))
    return 0


def _golden_table() -> list:
    with resources.files("topowalk.fixtures").joinpath("classification_table.json").open(
            "r", encoding="utf-8") as fh:
        return json.load(fh)["records"]


def _cmd_symmetry(args) -> int:
    ids = list(args.ids or [])
    if not ids or ids == ["all"]:
        ids = list(PROTOCOL_IDS)
    for pid in ids:
        if pid not in PROTOCOL_IDS:
            raise UnknownProtocolError(
                f"unknown protocol id {pid!r}; valid ids: {', '.join(PROTOCOL_IDS)}")
    _check_out(args.out)
    reports = [symmetry.classify(pid) for pid in ids]
    payload = {"schema": SCHEMA, "command": "symmetry",
               "records": [r.as_record() for r in reports]}
    _write_text(args.out, _json_pieces(payload))
    if args.golden:
        golden = {row["protocol"]: row for row in _golden_table()}
        mismatches = []
        for r in reports:
            want = golden.get(r.protocol)
            got = r.canonical()
            if want is None:
                mismatches.append(f"{r.protocol}: missing from the reference table")
            elif any(got[k] != want[k] for k in got):
                mismatches.append(f"{r.protocol}: got {got}, reference {want}")
        if mismatches:
            for line in mismatches:
                print(f"golden mismatch: {line}", file=sys.stderr)
            return 1
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line and exit 2, like every other usage error
        raise InvalidInputError(message)


def _add_sweep_options(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    p.add_argument("--config", help="JSON sweep config (flags override fields)")
    p.add_argument("--set", action="append", type=_entry, metavar="SYM=VAL",
                   help="fix a rotation angle (repeatable)")
    p.add_argument("--sweep", type=partial(_split, keys=SWEEP_KEYS),
                   metavar="SYM:START:STOP:COUNT", help="swept parameter (an angle symbol or T)")
    p.add_argument("--link", action="append", type=partial(_entry, keys=LINK_KEYS),
                   metavar="SYM=ON:SCALE:OFFSET",
                   help="tie an angle to the swept one: SYM = SCALE*ON + OFFSET")
    for key, (kind, _, help_text) in KEYS.items():
        if help_text:
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=help_text,
                           **({"action": "store_true", "default": None} if kind is bool else {}))
    return p


def main(argv=None) -> int:
    parser = _Parser(
        prog="topowalk",
        description="band, invariant, and symmetry sweeps for split-step walk protocols")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, help_text in (
            ("bands", _cmd_bands, "energy/velocity CSV over momentum grids"),
            ("invariant", _cmd_invariant, "winding/Chern CSV along a sweep"),
            ("classify-gaps", _cmd_classify_gaps, "gap closings and boundary taxonomy (JSON)")):
        _add_sweep_options(sub.add_parser(name, help=help_text)).set_defaults(fn=fn)

    p_sym = sub.add_parser("symmetry", help="classification records (JSON)")
    p_sym.add_argument("ids", nargs="*", help="protocol ids, or 'all'")
    p_sym.add_argument("--golden", action="store_true",
                       help="diff against the bundled reference table; exit 1 on mismatch")
    p_sym.add_argument("--out", help="output path (default stdout)")
    p_sym.set_defaults(fn=_cmd_symmetry)

    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (InvalidInputError, UnknownProtocolError) as err:  # one line, also if input is quoted
        print("error:", " ".join(str(err).splitlines()), file=sys.stderr)
        return 2
    except (WalkError, np.linalg.LinAlgError) as err:
        print(f"numerical diagnostic: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
