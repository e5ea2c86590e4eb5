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
most CHUNK_POINTS values x points (at least one value).  The points are the
grid's, or for `classify-gaps` and 2D `invariant` the scan grid's, of at least
topology.MIN_SCAN_GRID points per axis; a 1D `invariant` value reads no mesh
and counts the entries of its companion matrix (`_invariant_points`).  So the
chunk boundaries depend on the config alone.

`bands` runs in two passes, both in the calling process for any number of
workers: pass 1 is a few milliseconds of numerics per chunk, less than a
pool costs to start and to send the floats back.  Pass 1 computes each
chunk's numbers and no text.  Pass 2 formats every float of the run once per
distinct magnitude and writes the rows chunk by chunk as they are formed;
the output is opened only after pass 1 has computed every number.  The
magnitudes are formatted by a numpy kernel
(`_repr_block`) that writes the bytes of repr, the shortest decimal that
rounds back; repr itself runs only on the values the kernel cannot prove:
those outside [1e-4, 1e16), 0, subnormals, inf, NaN and exact ties at the
final digit count.
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
from .spectrum import EPS_GAP, bands_with_velocity, two_band_plan
from . import symmetry, topology

# sweep values x grid points per plan pass of a sweep command, and per piece
# of text that pass 2 of `bands` writes; larger chunks raise peak memory but
# not speed
CHUNK_POINTS = 2 ** 13
# distinct float magnitudes per block of pass 2's shortest-repr kernel
# (`_repr_block`): each of its temporaries holds a block, so larger blocks
# raise peak memory and page faults, smaller ones the per-block call overhead
REPR_BATCH = 2 ** 13

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


# Tables of `_repr_block`.  10**k is an exact double for k <= 22, and
# _TEN_HI + _TEN_LO its Veltkamp split (by 2**27 + 1) for exact products.
_TEN = 10.0 ** np.arange(23)
_TEN_HI = 134217729.0 * _TEN - (134217729.0 * _TEN - _TEN)
_TEN_LO = _TEN - _TEN_HI
# the double nearest 10**m, at index m + 5
_TEN_FLOAT = np.array([float(f"1e{m}") for m in range(-5, 18)])
# the 4 ASCII digits of 0..9999 as the bytes of a little-endian uint32
_DIGITS4 = sum(((np.arange(10000, dtype=np.uint32) // 10 ** (3 - i)) % 10 + 48) << 8 * i
               for i in range(4)).astype("<u4")
# at row p, the bytes of a 20-digit text to keep: its 3 leading zeros and p digits
_KEEP = np.where(np.arange(20) < 3 + np.arange(18)[:, None], 0xFF, 0).astype(np.uint8).view("<u4")


def _repr_block(x, text, z) -> np.ndarray:
    """Write repr(v) of the floats v of the sorted, non-negative array `x`
    into the rows of the zeroed uint8 array `text`; `z` is a work buffer of
    len(x) x 20 bytes.  Returns the mask of the rows written.  The rest are
    left to repr: v outside [1e-4, 1e16) (repr's exponent form, 0,
    subnormals, inf and NaN) and a tie between two candidates at the final
    digit count.

    repr(v) is the shortest decimal that rounds back to v, and the one
    nearest v among those.  With E = floor(log10 v), y = v * 10**(16 - E)
    lies in [1e16, 1e17); it is computed exactly as hi + lo (Dekker's
    product), with hi >= 2**53 an integer and |lo| <= 8.  Rounded to p
    digits it is q * D, D = 10**(17 - p), which rounds back to v if
    |q * D - y| is below the half-ulp H of v times 10**(16 - E).  (Equal to
    H, it would round back for an even mantissa, but no candidate is ever a
    midpoint of two neighbouring doubles in the range: below 2**53 the
    midpoint has more than 16 significant digits, and above it is an odd
    integer, while a v < 1e16 there has 16 digits, so a shorter candidate is
    a multiple of 10.)  The rounding and this test compare lo with an
    integer difference of int64 values; where that difference is too large
    to convert exactly, it is far beyond lo and H, and elsewhere the
    comparisons are exact, since lo and H are multiples of 2**-47 below 32
    for v >= 1e-4.  17 digits always round back; p goes down from 16 while
    the candidate still does, because the nearest p-digit decimal rounds
    back at every p above the shortest.  (Below a power of two the interval
    is half as wide; the tests check every power of two in the range.)"""
    inside = (x >= 1e-4) & (x < 1e16)
    v = np.where(inside, x, 1.5)
    e2 = (v.view(np.int64) >> 52) - 1023  # v in [2**e2, 2**(e2 + 1))
    E = (e2 * 78913) >> 18  # floor(e2 * log10(2)), so floor(log10 v) is E or E + 1
    E += v >= _TEN_FLOAT[E + 6]
    k = 16 - E
    hi = v * _TEN[k]
    split = 134217729.0 * v
    v_hi = split - (split - v)
    v_lo = v - v_hi
    ten_hi, ten_lo = _TEN_HI[k], _TEN_LO[k]
    lo = (((v_hi * ten_hi - hi) + v_hi * ten_lo) + v_lo * ten_hi) + v_lo * ten_lo
    ok = inside & ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (hi < 1e17)  # checks E
    hi = np.where(ok, hi, 1e16).astype(np.int64)
    half_ulp = _TEN[k] * ((e2 + 970) << 52).view(np.float64)  # 10**k * 2**(e2 - 53)
    digits = hi + np.rint(lo).astype(np.int64)  # 17 digits, half-even as hi is even
    tie = np.zeros(len(x), bool)
    p = np.full(len(x), 17, np.intp)
    live = slice(None)  # all values at 16 digits, then those still rounding back
    for n in range(16, 0, -1):
        D = 10 ** (17 - n)
        y_hi, y_lo = hi[live], lo[live]
        q = y_hi // D
        # y / D = q + (remainder + lo) / D rounds to q - 1 plus the number of
        # (j + 1/2) * D, j = -1, 0, 1, that remainder + lo passes; for D > 10
        # only j = 0 can go either way, as |lo| <= 8
        twice_rem, twice_lo = 2 * (y_hi - q * D), 2 * y_lo
        at_tie = np.zeros(len(q), bool)
        steps = (-1, 0, 1) if D == 10 else (0,)
        q += steps[0]
        for j in steps:
            edge = ((2 * j + 1) * D - twice_rem).astype(np.float64)
            q += twice_lo > edge
            at_tie |= twice_lo == edge
        q *= D
        miss = np.abs((q - y_hi).astype(np.float64) - y_lo) - half_ulp[live]
        back = miss < 0
        if n == 16:
            back &= ok
            live = np.flatnonzero(back)
        else:
            live = live[back]
        digits[live], p[live], tie[live] = q[back], n, at_tie[back]
        if not len(live):
            break
    ok &= ~tie
    # repr's digits are 0.d1d2... * 10**(E + 1): no v in range rounds up to
    # 10**(E + 1), as the double nearest each of 1e-3 ... 1e16 is not below it
    point = np.where(ok, E + 1, 1)
    # the 20-digit text of `digits` (3 leading zeros), NUL after the p-th digit
    z4 = z.view("<u4")
    for col in range(4, 0, -1):
        rest = digits // 10000
        z4[:, col] = _DIGITS4[digits - rest * 10000]
        digits = rest
    z4[:, 0] = _DIGITS4[digits]
    z4 &= np.take(_KEEP, p, axis=0)
    # the layout follows `point`, in [-3, 16] and constant over runs of sorted x
    runs = np.flatnonzero(point[1:] != point[:-1]) + 1
    for start, stop in zip([0] + runs.tolist(), runs.tolist() + [len(x)]):
        d, out, src = int(point[start]), text[start:stop], z[start:stop]
        if d > 0:  # "." after the d-th digit; "0" for a NUL before it and just after
            np.maximum(src[:, 3:3 + d], 48, out=out[:, :d])
            out[:, d] = 46
            np.maximum(src[:, 3 + d], 48, out=out[:, d + 1])
            out[:, d + 2:18] = src[:, 4 + d:]
        else:  # "0." and -d zeros before the digits
            out[:, :2 - d] = 48
            out[:, 1] = 46
            out[:, 2 - d:19 - d] = src[:, 3:]
    return ok


def _repr_text(mags) -> np.ndarray:
    """The repr of each float of the sorted, non-negative array `mags` as the
    rows of a uint8 array, padded with NUL bytes: by `_repr_block` in blocks
    of REPR_BATCH, and by repr for the values it leaves."""
    text = np.zeros((len(mags), 23), np.uint8)  # no repr is longer than 23 characters
    z = np.empty((min(len(mags), REPR_BATCH), 20), np.uint8)
    for i in range(0, len(mags), REPR_BATCH):
        x = mags[i:i + REPR_BATCH]
        rest = np.flatnonzero(~_repr_block(x, text[i:i + REPR_BATCH], z[:len(x)]))
        texts = np.array([repr(v) for v in x[rest].tolist()], dtype="S23")
        text[i + rest] = texts.view(np.uint8).reshape(len(rest), 23)
    width = next((w for w in range(23, 0, -1) if text[:, w - 1].any()), 0)
    return text[:, :width]


def _float_cells(arrays):
    """Yield, for each float array of `arrays` in turn, the repr of each of its
    floats as ASCII: a uint8 array of the array's shape plus one axis of bytes,
    in which NUL bytes are padding.  Each distinct magnitude across all of
    them (np.unique of the bit patterns of |x|) is formatted once, by
    `_repr_text`, and a cell whose sign bit is set, -0.0 too and NaN aside,
    gets "-" before its magnitude's text: repr(-m) == "-" + repr(m)."""
    mags, inverse = np.unique(np.concatenate([np.abs(a).ravel() for a in arrays]).view(np.int64),
                              return_inverse=True)
    text = _repr_text(mags.view(np.float64))
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


def _invariant_points(spec, grid: int) -> int:
    """The points per sweep value by which `invariant` sizes its chunks.  A
    2D value is the gap search's mesh of max(grid, topology.MIN_SCAN_GRID)
    points per axis.  A 1D value reads no mesh: its winding is counted on one
    (2F)^2 companion matrix (`topology._root_count`), F the largest frequency
    of (a, c), which the shifts alone fix, so a chunk's companion matrices
    hold at most CHUNK_POINTS complex entries (128 KiB), and the phasors of
    its closing check about as many again."""
    if spec.dimension == 2:
        return max(grid, topology.MIN_SCAN_GRID) ** 2
    return int(2 * max(np.abs(freqs).max() for (freqs,), _ in two_band_plan(spec).fourier())) ** 2


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
    chunks = _map_values(cfg, parts, partial(_bands_chunk, k=k), 1)  # no pool: see the module doc
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
    texts = _map_values(cfg, _chunks(cfg, _invariant_points(spec, cfg.grid)),
                        _invariant_chunk_rows, cfg.workers)
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
