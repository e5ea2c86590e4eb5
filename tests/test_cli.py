import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

try:
    import resource
except ImportError:  # not a POSIX system
    resource = None

from topowalk import cli, config, spectrum, topology
from topowalk import symmetry as sym
from topowalk.errors import BoundaryStateError, InvalidInputError
from topowalk.protocols import PROTOCOL_IDS, registry_lookup, stacked_params

PI = math.pi


def run(argv):
    return cli.main(argv)


def small_bands_cfg(tmp_path, **overrides):
    doc = {
        "schema": "topowalk/v1",
        "protocol": "1d-chs",
        "steps": 3,
        "angles": {"beta": PI / 3},
        "sweep": {"symbol": "alpha", "start": -1.0, "stop": 1.0, "count": 3},
        "grid": 16,
        "workers": 1,
    }
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


class TestBands:
    def test_header_and_row_shape(self, tmp_path):
        cfg = small_bands_cfg(tmp_path)
        out = tmp_path / "o.csv"
        assert run(["bands", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep_param,k1,e_plus,v_k1,status"
        assert len(lines) == 1 + 3 * 16
        assert all(line.endswith(("gapped", "gapless")) for line in lines[1:])

    def test_2d_header(self, tmp_path):
        cfg = small_bands_cfg(tmp_path, protocol="2d-phs", angles={},
                              sweep={"symbol": "beta", "start": 0.2, "stop": 0.4,
                                     "count": 2},
                              grid=8)
        out = tmp_path / "o.csv"
        assert run(["bands", "--config", str(cfg), "--out", str(out),
                    "--set", "alpha=1.0"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep_param,k1,k2,e_plus,v_k1,v_k2,status"
        assert len(lines) == 1 + 2 * 8 * 8

    def test_gapless_rows_have_empty_velocity(self, tmp_path):
        cfg = small_bands_cfg(tmp_path, angles={"beta": 0.0},
                              sweep={"symbol": "alpha", "start": 0.0, "stop": 1.0,
                                     "count": 2}, steps=1)
        out = tmp_path / "o.csv"
        assert run(["bands", "--config", str(cfg), "--out", str(out)]) == 0
        gapless = [l for l in out.read_text().splitlines() if l.endswith("gapless")]
        assert gapless, "alpha=0 sweep must contain the k=0 closing"
        for line in gapless:
            assert line.split(",")[3] == ""

    def test_rerun_identical_and_worker_invariant(self, tmp_path):
        cfg = small_bands_cfg(tmp_path)
        outs = []
        for name, workers in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
            out = tmp_path / name
            assert run(["bands", "--config", str(cfg), "--out", str(out),
                        "--workers", workers]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_step_independent_path_is_byte_identical_at_T1(self, tmp_path):
        cfg = small_bands_cfg(tmp_path, steps=1)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["bands", "--config", str(cfg), "--out", str(a)]) == 0
        assert run(["bands", "--config", str(cfg), "--out", str(b),
                    "--step-independent"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_every_gapped_row_carries_a_velocity(self, tmp_path):
        # beta = 0 closes the gap on grid points; the plan's exact derivative
        # gives a velocity on every other row, with no finite-difference stencil
        for protocol, angles in (("1d-split", {"alpha": 0.0}), ("2d-simple", {})):
            cfg = small_bands_cfg(tmp_path, protocol=protocol, steps=2, angles=angles,
                                  sweep={"symbol": "beta", "start": 0.0, "stop": 0.7,
                                         "count": 2}, grid=8)
            out = tmp_path / f"{protocol}.csv"
            assert run(["bands", "--config", str(cfg), "--out", str(out)]) == 0
            rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
            dim = len(rows[0]) // 2 - 1
            assert {r[-1] for r in rows} == {"gapped", "gapless"}
            for r in rows:
                assert all(v != "" for v in r[2 + dim:-1]) == (r[-1] == "gapped")
            gapped = [r for r in rows if r[0] == "0.7"]
            k = np.array([[float(x) for x in r[1:1 + dim]] for r in gapped])
            walk, h = registry_lookup(protocol, T=2, angles={**angles, "beta": 0.7}), 1e-5
            for ax in range(dim):
                step = h * np.eye(dim)[ax]  # the central difference of the matrix oracle
                vn = (spectrum.oracle_bands(walk, k + step).e_plus
                      - spectrum.oracle_bands(walk, k - step).e_plus) / (2 * h)
                v = np.array([float(r[2 + dim + ax]) for r in gapped])
                assert np.abs(v - vn).max() <= 1e-8

    def test_four_band_protocol_is_usage_error(self, tmp_path):
        cfg = small_bands_cfg(tmp_path, protocol="1d-diii")
        assert run(["bands", "--config", str(cfg), "--out", "-"]) == 2

    def test_T_sweep(self, tmp_path):
        cfg = small_bands_cfg(tmp_path, angles={"alpha": 0.4, "beta": 0.8}, steps=1,
                              sweep={"symbol": "T", "start": 1, "stop": 3, "count": 3})
        out = tmp_path / "o.csv"
        assert run(["bands", "--config", str(cfg), "--out", str(out)]) == 0
        sweep_vals = {l.split(",")[0] for l in out.read_text().splitlines()[1:]}
        assert sweep_vals == {"1", "2", "3"}

    def test_integral_number_text_is_an_integer(self, tmp_path, capsys):
        # flag text is read as the JSON numbers are: "3.0" is an integer, and
        # integer text is exact beyond 2**53
        base = ["bands", "--protocol", "1d-chs", "--set", "beta=0.5", "--out", "-"]
        for integral in (["--sweep", "alpha:0:1:3.0", "--grid", "8.0", "--steps", "1.0"],
                         ["--sweep", "alpha:0:1:3", "--grid", "8", "--steps", "1e0"],
                         ["--config", str(small_bands_cfg(
                             tmp_path, steps=1.0, grid=8.0, angles={},
                             sweep={"symbol": "alpha", "start": 0, "stop": 1, "count": 3.0}))]):
            assert run(base + integral) == 0
        outputs = capsys.readouterr().out.split("sweep_param")
        assert len(outputs) == 4 and outputs[1] == outputs[2] == outputs[3]
        doc = json.loads(small_bands_cfg(tmp_path).read_text())
        assert config.config_from_dict({**doc, "steps": "9007199254740993"}).steps == 2 ** 53 + 1


CHUNK_CASES = {
    # case: (config overrides, extra flags); each sweep spans two chunks
    "linked-angle": ({"protocol": "1d-chs", "angles": {}, "grid": 256,
                      "linked": {"beta": {"on": "alpha", "scale": 1 / 3, "offset": PI / 3}}},
                     []),
    "step-number": ({"protocol": "1d-chs", "angles": {"alpha": 0.4, "beta": 0.8}, "steps": 1,
                     "grid": 2048}, []),
    "step-independent": ({"protocol": "1d-phs", "angles": {"beta": PI / 3}, "steps": 1,
                          "grid": 256}, ["--step-independent"]),
    "2d": ({"protocol": "2d-phs", "angles": {"alpha": 0.7}, "steps": 2, "grid": 32}, []),
}


class TestBandsChunks:
    @pytest.mark.parametrize("case", sorted(CHUNK_CASES))
    def test_rows_match_per_value_reference(self, tmp_path, case):
        overrides, flags = CHUNK_CASES[case]
        dim = int(overrides["protocol"][0])
        n = overrides["grid"] ** dim
        count = cli.CHUNK_POINTS // n + 2
        symbol = "T" if case == "step-number" else "beta" if dim == 2 else "alpha"
        sweep = ({"symbol": "T", "start": 1, "stop": count, "count": count} if symbol == "T"
                 else {"symbol": symbol, "start": -PI, "stop": PI, "count": count})
        path = small_bands_cfg(tmp_path, sweep=sweep, **overrides)
        outs = []
        # more workers than CPUs is a usage error
        for workers in ["1", "2"] if (os.cpu_count() or 1) >= 2 else ["1"]:
            out = tmp_path / f"w{workers}.csv"
            assert run(["bands", "--config", str(path), "--out", str(out),
                        "--workers", workers] + flags) == 0
            outs.append(out.read_bytes())
        assert all(o == outs[0] for o in outs)

        cfg = config.config_from_dict({**json.loads(path.read_text()),
                                       "step_independent": "--step-independent" in flags})
        k = sym.bz_grid(dim, cfg.grid)
        k_cells = [[repr(x) for x in row] for row in k.tolist()]
        rows = [r.split(",") for r in outs[0].decode().splitlines()[1:]]
        values = cfg.sweep_values()
        assert len(rows) == count * n
        for j, value in enumerate(values):
            block = rows[j * n:(j + 1) * n]
            e_plus, norm, vel = spectrum.bands_with_velocity(cfg.spec_at(value), k)
            sval = str(int(value)) if symbol == "T" else repr(float(value))
            gapless = norm <= spectrum.EPS_GAP
            assert [r[0] for r in block] == [sval] * n
            assert [r[1:1 + dim] for r in block] == k_cells
            assert [r[-1] for r in block] == ["gapless" if g else "gapped" for g in gapless]
            got_e = np.array([float(r[1 + dim]) for r in block])
            assert np.abs(got_e - e_plus).max() <= 1e-13
            got_v = np.array([[float(c) if c else np.nan for c in r[2 + dim:-1]] for r in block])
            assert np.array_equal(np.isnan(got_v), np.isnan(vel))
            assert np.nanmax(np.abs(got_v - vel), initial=0.0) <= 1e-13


# Floats around the places where repr changes: the signed zeros, the
# subnormals, the infinities, NaN of either sign, and the switches between
# positional and exponent notation at 1e-4 and 1e16.
REPR_EDGES = [0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, math.inf,
              -math.inf, math.nan, -math.nan, 1e-4, math.nextafter(1e-4, 0.0), 1e16,
              math.nextafter(1e16, 0.0), 0.1, 1.0, math.pi]
REPR_FLOATS = (st.sampled_from(REPR_EDGES) | st.floats(allow_subnormal=True)
               | st.floats(1e-5, 1e-3) | st.floats(1e15, 1e17) | st.floats(1e-4, 1e16)
               | st.builds(lambda a, b: float(f"{a}e{b}"), st.integers(1, 10 ** 6),
                           st.integers(-10, 16)))
# The places where the shortest-repr kernel of `cli._repr_text` could go
# wrong: both ends of its range, every power of two in it (an interval half
# as wide below it), short decimals a * 10**b (few digits), each with both of
# its neighbours; values exactly halfway between two candidates at the final
# digit count, which repr rounds half to even (...071.62, ...864.2,
# ...161.688, and at 17 digits ...000.2 and ...000.8); and values whose
# rounding to 16 digits moves by more than one unit (0.00072..., 730.46...,
# 7301323471.5...).
REPR_CENTRES = ([1e-4, 1e16] + [2.0 ** e for e in range(-14, 55)]
                + [float(f"{a}e{b}") for a in range(1, 1000) for b in range(-5, 17)])
REPR_EDGE_SET = ([y for x in REPR_CENTRES
                  for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
                 + [80060887369071.625, 721798164256864.25, 9030519031161.6875,
                    1500000000000000.25, 1500000000000000.75, 0.0007206469892672471,
                    730.4670414018079, 7301323471.523439])
BANDS_FIXTURES = ["fig1", "fig3", "fig4", "fig5", "fig7", "fig8", "fig9"]


def cell_texts(cells):
    """The text of each cell of a `cli._float_cells` array, NUL padding dropped."""
    return [cell[cell != 0].tobytes().decode() for cell in cells.reshape(-1, cells.shape[-1])]


@pytest.fixture(scope="module")
def bands_fixture_floats():
    """Pass 1's float arrays of each bundled `bands` fixture, by name."""
    floats = {}
    for name in BANDS_FIXTURES:
        cfg = config.config_from_dict(
            json.loads((FIXTURE_DIR / f"{name}.cfg").read_text())).validate()
        dim = registry_lookup(cfg.protocol).dimension
        k = sym.bz_grid(dim, cfg.grid)
        floats[name] = [cli._bands_chunk(cfg, values, k)[0]
                         for values in cli._chunks(cfg, cfg.grid ** dim, cli.CHUNK_POINTS)]
    return floats


def two_chunk_bands_cfg(tmp_path):
    # 256 grid points leave room for CHUNK_POINTS // 256 values per chunk
    count = cli.CHUNK_POINTS // 256 + 2
    return small_bands_cfg(tmp_path, grid=256,
                           sweep={"symbol": "alpha", "start": -PI, "stop": PI, "count": count})


class TestBandsEmit:
    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.lists(REPR_FLOATS, max_size=40), min_size=1, max_size=4),
           st.lists(st.booleans(), max_size=40))
    def test_float_cells_equal_repr(self, parts, flips):
        # each array also holds the negation of some of its own values, so
        # equal magnitudes come with both signs
        arrays = [np.array(xs + [-x for x, f in zip(xs, flips) if f], dtype=float)
                  for xs in parts]
        arrays[0] = arrays[0].reshape(1, -1, 1)
        for batch in (3, cli.REPR_BATCH):  # the magnitudes formatted in several batches or one
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "REPR_BATCH", batch)
                cells = list(cli._float_cells(arrays))
            assert [c.shape[:-1] for c in cells] == [a.shape for a in arrays]
            assert [cell_texts(c) for c in cells] == [list(map(repr, a.ravel().tolist()))
                                                      for a in arrays]
            # a sign byte and as many bytes as the longest magnitude's text
            width = max((len(repr(abs(x))) for a in arrays for x in a.ravel().tolist()),
                        default=0)
            assert cells[0].shape[-1] == 1 + width

    def test_float_cells_equal_repr_on_edge_set(self):
        values = np.array(REPR_EDGE_SET)
        arrays = [values, -values[::7]]
        for batch in (251, cli.REPR_BATCH):  # blocks that start inside runs of one exponent
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cli, "REPR_BATCH", batch)
                cells = list(cli._float_cells(arrays))
            assert [cell_texts(c) for c in cells] == [list(map(repr, a.tolist())) for a in arrays]

    def test_float_cells_equal_repr_on_bands_fixtures(self, bands_fixture_floats):
        for name, arrays in bands_fixture_floats.items():
            cells = cli._float_cells(arrays)
            for a, c in zip(arrays, cells):
                assert cell_texts(c) == list(map(repr, a.ravel().tolist())), name

    def test_kernel_proves_bands_fixture_magnitudes(self, bands_fixture_floats):
        # without this, a kernel that left every value to repr would still
        # pass every byte check; what it leaves on these fixtures is nearly
        # all below 1e-4 (26% of fig9's magnitudes, 16% of fig8's)
        proved = total = inside = proved_inside = 0
        for arrays in bands_fixture_floats.values():
            mags = np.unique(np.concatenate([np.abs(a).ravel() for a in arrays]))
            ok = np.zeros(len(mags), bool)
            for i in range(0, len(mags), cli.REPR_BATCH):
                x = mags[i:i + cli.REPR_BATCH]
                ok[i:i + len(x)] = cli._repr_block(x, np.zeros((len(x), 23), np.uint8),
                                                   np.empty((len(x), 20), np.uint8))
            proved, total = proved + ok.sum(), total + len(mags)
            in_range = (mags >= 1e-4) & (mags < 1e16)
            inside, proved_inside = inside + in_range.sum(), proved_inside + ok[in_range].sum()
        assert proved >= 0.95 * total
        assert proved_inside >= 0.999 * inside

    def test_failure_in_a_later_chunk_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # every number is computed before the output is opened
        from topowalk.errors import GaplessError
        calls = []

        def second_call_fails(*a, **kw):
            calls.append(1)
            if len(calls) == 2:
                raise GaplessError("synthetic failure in the second chunk")
            return spectrum.bands_with_velocity(*a, **kw)
        monkeypatch.setattr(cli, "bands_with_velocity", second_call_fails)
        cfg = two_chunk_bands_cfg(tmp_path)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("kept\n")
        for out in (new, old):
            calls.clear()
            assert run(["bands", "--config", str(cfg), "--out", str(out)]) == 3
            assert len(calls) == 2
        assert not new.exists() and old.read_text() == "kept\n"
        assert capsys.readouterr().out == ""

    def test_workers_start_no_pool(self, tmp_path, monkeypatch):
        # both passes run in the calling process: the pool only ever ran pass
        # 1, a few milliseconds per chunk, and was slower than one process
        cfg = two_chunk_bands_cfg(tmp_path)
        doc = config.config_from_dict(json.loads(cfg.read_text()))
        assert len(cli._chunks(doc, 256, cli.CHUNK_POINTS)) == 2
        one, two = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert run(["bands", "--config", str(cfg), "--out", str(one), "--workers", "1"]) == 0

        def no_pool(*a, **kw):
            raise AssertionError("a worker pool was started")
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)  # --workers 2 is valid on any host
        assert run(["bands", "--config", str(cfg), "--out", str(two), "--workers", "2"]) == 0
        assert two.read_bytes() == one.read_bytes()

    def test_stdout_matches_file(self, tmp_path, capsys):
        cfg = two_chunk_bands_cfg(tmp_path)
        out = tmp_path / "o.csv"
        assert run(["bands", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["bands", "--config", str(cfg), "--out", "-"]) == 0
        text = capsys.readouterr().out
        assert text.count("\n") == 1 + (cli.CHUNK_POINTS // 256 + 2) * 256
        assert text.encode() == out.read_bytes()


class TestInvariant:
    def test_winding_csv(self, tmp_path):
        cfg = small_bands_cfg(tmp_path, steps=6,
                              angles={},
                              grid=128,
                              sweep={"symbol": "alpha", "start": 1.8, "stop": 2.4,
                                     "count": 3})
        out = tmp_path / "w.csv"
        assert run(["invariant", "--config", str(cfg), "--out", str(out),
                    "--link", "beta=alpha:0.3333333333333333:1.0471975511965976"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "sweep_param,invariant,raw,status"
        assert any(line.endswith("ok") for line in lines[1:])

    def test_winding_next_to_a_touching_is_exact(self, tmp_path):
        # the loop passes 2.5e-6 ... 3.1e-5 from the origin at alpha = -1.572 ...
        # -1.568, between the points of any mesh; the winding is -1 on both
        # sides of the touching at alpha = -pi/2
        out = tmp_path / "w.csv"
        assert run(["invariant", "--protocol", "1d-chs", "--steps", "6",
                    "--sweep", "alpha:-1.58:-1.56:11",
                    "--link", "beta=alpha:0.3333333333333333:1.0471975511965976",
                    "--grid", "256", "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert len(rows) == 11
        assert all(r[1:] == ["-1", "-1.0", "ok"] for r in rows)

    @pytest.mark.parametrize("walk, sweep", [
        (["--protocol", "1d-split", "--set", "alpha=0.9", "--steps", "1"], "beta:-1.7:-1.4"),
        (["--protocol", "1d-simple", "--steps", "3"], "beta:-2.8:-2.4")])
    def test_winding_keeps_its_sign_where_no_gap_closes(self, tmp_path, walk, sweep):
        # no gap closes on either line, so all rows carry one winding; an axis
        # signed by its largest component flipped it where |A_x| = |A_z|
        out = tmp_path / "gaps.json"
        assert run(["classify-gaps", *walk, "--sweep", f"{sweep}:301", "--out", str(out)]) == 0
        assert not any(r["gap_points"] for r in json.loads(out.read_text())["records"])
        out = tmp_path / "w.csv"
        assert run(["invariant", *walk, "--sweep", f"{sweep}:5", "--grid", "64",
                    "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        assert len(rows) == 5 and len({tuple(r[1:]) for r in rows}) == 1
        assert rows[0][3] == "ok"

    def test_3d_is_unsupported(self, tmp_path):
        cfg = small_bands_cfg(tmp_path, protocol="3d-simple", angles={},
                              sweep={"symbol": "beta", "start": 0.1, "stop": 0.3,
                                     "count": 2})
        assert run(["invariant", "--config", str(cfg), "--out", "-"]) == 2

    def test_winding_without_chirality_is_usage_error(self, tmp_path):
        cfg = small_bands_cfg(tmp_path, protocol="1d-phs")
        assert run(["invariant", "--config", str(cfg), "--out", "-"]) == 2


INVARIANT_CASES = {  # overrides, sweep symbol; 1d-chs is 2 pi-periodic, 2d-phs pi-periodic
    "linked-angle": ({"protocol": "1d-chs", "steps": 6, "angles": {}, "grid": 64,
                      "linked": {"beta": {"on": "alpha", "scale": 1 / 3, "offset": PI / 3}}},
                     "alpha"),
    "step-number": ({"protocol": "1d-chs", "steps": 1,
                     "angles": {"alpha": PI / 3, "beta": PI / 6}, "grid": 128}, "T"),
    "grid16": ({"protocol": "2d-phs", "steps": 2, "angles": {"alpha": PI / 3}, "grid": 16},
               "beta"),
}


def count_stacks(monkeypatch, name):
    """The number of walks of each call of topology.`name` (`sweep_invariants`
    or `sweep_boundaries`) made in this process, recorded as the calls come."""
    sizes, real = [], getattr(topology, name)

    def counting(pid, grid_n, *, angles=None, T=None):
        sizes.append(len(stacked_params(registry_lookup(pid), angles, T)[1]))
        return real(pid, grid_n, angles=angles, T=T)

    monkeypatch.setattr(topology, name, counting)
    return sizes


class TestInvariantChunks:
    @pytest.mark.parametrize("case", sorted(INVARIANT_CASES))
    def test_rows_match_per_value_reference(self, tmp_path, monkeypatch, case):
        overrides, symbol = INVARIANT_CASES[case]
        dim = int(overrides["protocol"][0])
        # chunks of 64 1D or 8 2D values, set by the budget `invariant` reads
        # and the scan mesh one value costs; the sweep is two chunks
        size = 64 if dim == 1 else 8
        count = size + 2
        sweep = ({"symbol": "T", "start": 1, "stop": count, "count": count} if symbol == "T"
                 else {"symbol": symbol, "start": -PI, "stop": PI, "count": count})
        path = small_bands_cfg(tmp_path, sweep=sweep, **overrides)
        cfg = config.config_from_dict(json.loads(path.read_text()))
        points = cli._scan_points(cfg)
        monkeypatch.setattr(cli, "SWEEP_POINTS", size * points)
        stacks = count_stacks(monkeypatch, "sweep_invariants")
        outs = []
        # more workers than CPUs is a usage error; a pool's calls are made in its processes
        for workers in ["1", "2"] if (os.cpu_count() or 1) >= 2 else ["1"]:
            out = tmp_path / f"w{workers}.csv"
            assert run(["invariant", "--config", str(path), "--out", str(out),
                        "--workers", workers]) == 0
            outs.append(out.read_bytes())
        assert stacks == [size, 2]
        # chunks of three values: the sweep straddles many of them
        monkeypatch.setattr(cli, "SWEEP_POINTS", 3 * points)
        stacks.clear()
        out = tmp_path / "small-chunks.csv"
        assert run(["invariant", "--config", str(path), "--out", str(out)]) == 0
        outs.append(out.read_bytes())
        assert stacks == [min(3, count - i) for i in range(0, count, 3)]
        assert all(o == outs[0] for o in outs)

        # the per-value reference: a full-BZ gap search, then the public invariant
        rows = [r.split(",") for r in outs[0].decode().splitlines()[1:]]
        assert len(rows) == count
        statuses = set()
        for row, value in zip(rows, cfg.sweep_values()):
            spec = cfg.spec_at(value)
            assert row[0] == (str(value) if symbol == "T" else repr(float(value)))
            want = None
            if not topology.find_gap_closings(spec, grid_n=max(cfg.grid, 32)):
                public = topology.winding_number if dim == 1 else topology.chern_number
                try:
                    res = public(spec, grid_n=cfg.grid)
                    want = [str(res.w if dim == 1 else res.c), repr(res.raw), "ok"]
                except BoundaryStateError:
                    pass
            assert row[1:] == (want or ["", "", "boundary"]), value
            statuses.add(row[3])
        assert statuses == {"ok", "boundary"}

    def test_chunks_count_the_scan_mesh(self):
        # a value costs the scan mesh, of at least MIN_SCAN_GRID points per
        # axis: fig6's 181 values are one chunk at --grid <= 362
        doc = json.loads((FIXTURE_DIR / "fig6.cfg").read_text())
        cfgs = [config.config_from_dict({**doc, "grid": grid}) for grid in (8, 256, 362, 363)]
        assert [len(cli._chunks(cfg, cli._scan_points(cfg), cli.SWEEP_POINTS))
                for cfg in cfgs] == [1, 1, 1, 2]
        assert [cli._scan_points(config.config_from_dict({**doc, "protocol": pid, "grid": 8}))
                for pid in ("1d-chs", "2d-phs", "3d-phs")] == [32, 32 ** 2, 32 ** 3]

    def test_values_next_to_a_fig6_closing_stay_boundary(self, tmp_path):
        # fig6 closes its gap at alpha = pi/2; the sweep's middle value sits on it
        out = tmp_path / "near.csv"
        for alpha, eps in ((PI / 2, 1e-10), (0.0, 1e-12)):
            assert run(["invariant", "--config", str(FIXTURE_DIR / "fig6.cfg"), "--out", str(out),
                        "--sweep", f"alpha:{alpha - eps!r}:{alpha + eps!r}:3"]) == 0
            rows = out.read_text().splitlines()[1:]
            assert [r.split(",")[1:] for r in rows] == [["", "", "boundary"]] * 3

    def test_fig10_bytes_do_not_depend_on_workers_or_blocks(self, tmp_path, monkeypatch):
        argv = ["invariant", "--config", str(FIXTURE_DIR / "fig10.cfg"), "--grid", "96"]
        outs = []
        # more workers than CPUs is a usage error
        for workers in ["1", "2"] if (os.cpu_count() or 1) >= 2 else ["1"]:
            out = tmp_path / f"w{workers}.csv"
            assert run(argv + ["--out", str(out), "--workers", workers]) == 0
            outs.append(out.read_bytes())
        # blocks of one row of the 96 x 96 mesh, and of one row of plaquettes
        monkeypatch.setattr(topology, "BLOCK_POINTS", 7)
        out = tmp_path / "small-blocks.csv"
        assert run(argv + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
        assert all(o == outs[0] for o in outs)
        assert b",ok\n" in outs[0] and b",boundary\n" in outs[0]


CLASSIFY_CASES = {  # overrides, sweep, the kinds found along it
    "fig2-like": ({"protocol": "1d-phs", "steps": 6, "angles": {}, "grid": 64,
                   "linked": {"beta": {"on": "alpha", "scale": 1 / 3, "offset": PI / 3}}},
                  {"symbol": "alpha", "start": -PI, "stop": PI, "count": 13},
                  {"dirac_type_one", "dirac_type_two"}),
    "step-number": ({"protocol": "1d-phs", "steps": 1, "grid": 48,
                     "angles": {"alpha": PI / 2, "beta": PI / 2}},
                    {"symbol": "T", "start": 1, "stop": 7, "count": 7},
                    {"dirac_type_one", "dirac_type_two", "fermi_arc"}),
    "grid16-2d": ({"protocol": "2d-phs", "steps": 2, "angles": {"alpha": PI / 3}, "grid": 16},
                  {"symbol": "beta", "start": 0.0, "stop": PI, "count": 7}, {"fermi_arc"}),
    "3d-weyl": ({"protocol": "3d-split", "steps": 6, "grid": 16,
                 "angles": {"alpha": PI / 4, "gamma": PI / 4}},
                {"symbol": "beta", "start": PI / 3, "stop": PI / 2, "count": 5},
                {"dirac_type_one"}),
    "3d-flat": ({"protocol": "3d-simple", "steps": 3, "angles": {}, "grid": 16},
                {"symbol": "beta", "start": PI / 6, "stop": PI / 3, "count": 5}, {"flat_band"}),
}


class TestClassifyGaps:
    def test_schema_and_kinds(self, tmp_path):
        cfg = small_bands_cfg(tmp_path, steps=6, grid=48, angles={},
                              sweep={"symbol": "alpha", "start": -0.1, "stop": 0.1,
                                     "count": 3},
                              protocol="1d-phs")
        out = tmp_path / "g.json"
        assert run(["classify-gaps", "--config", str(cfg), "--out", str(out),
                    "--link", "beta=alpha:0.3333333333333333:1.0471975511965976"]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "topowalk/v1"
        mid = payload["records"][1]
        assert mid["sweep_value"] == 0.0
        assert {c["kind"] for c in mid["classifications"]} == {"dirac_type_two"}
        assert payload["records"][0]["gap_points"] == []

    @pytest.mark.parametrize("case", sorted(CLASSIFY_CASES))
    def test_records_match_per_value_reference(self, tmp_path, monkeypatch, case):
        overrides, sweep, kinds = CLASSIFY_CASES[case]
        path = small_bands_cfg(tmp_path, sweep=sweep, **overrides)
        argv = ["classify-gaps", "--config", str(path), "--out"]
        out = tmp_path / "default.json"
        assert run(argv + [str(out)]) == 0
        outs = [out.read_bytes()]
        # chunks of two values, set by the budget `classify-gaps` reads: the
        # sweep spans at least three of them
        scan_n = max(overrides["grid"], topology.MIN_SCAN_GRID)
        monkeypatch.setattr(cli, "SWEEP_POINTS", 2 * scan_n ** int(overrides["protocol"][0]))
        stacks = count_stacks(monkeypatch, "sweep_boundaries")
        # more workers than CPUs is a usage error; a pool's calls are made in its processes
        for workers in ["1", "2"] if (os.cpu_count() or 1) >= 2 else ["1"]:
            out = tmp_path / f"w{workers}.json"
            assert run(argv + [str(out), "--workers", workers]) == 0
            outs.append(out.read_bytes())
        assert stacks == [min(2, sweep["count"] - i) for i in range(0, sweep["count"], 2)]
        assert len(stacks) >= 3
        assert all(o == outs[0] for o in outs)

        cfg = config.config_from_dict(json.loads(path.read_text()))
        # the per-value reference: the public gap search and taxonomy at the scan grid
        records = json.loads(outs[0])["records"]
        assert len(records) == sweep["count"]
        found = set()
        for record, value in zip(records, cfg.sweep_values()):
            spec = cfg.spec_at(value)
            points = topology.find_gap_closings(spec, grid_n=scan_n)
            classes = topology.classify_boundary(spec, gap_points=points, grid_n=scan_n)
            want = {"sweep_value": value,
                    "gap_points": [{"k": p.k, "quasi_energy": p.quasi_energy,
                                    "residual": p.residual} for p in points],
                    "classifications": [{"kind": c.kind, "evidence": c.evidence}
                                        for c in classes]}
            assert record == json.loads(json.dumps(want)), value
            found |= {c.kind for c in classes}
        assert found == kinds

    def test_flat_record_has_the_closed_form_energy(self, tmp_path, rng):
        overrides, sweep, _ = CLASSIFY_CASES["3d-flat"]
        out = tmp_path / "flat.json"
        assert run(["classify-gaps", "--config", str(small_bands_cfg(tmp_path, sweep=sweep,
                                                                     **overrides)),
                    "--out", str(out)]) == 0
        record = json.loads(out.read_text())["records"][-1]
        assert record["sweep_value"] == pytest.approx(PI / 3, rel=1e-15)
        (flat,) = record["classifications"]
        assert flat["kind"] == "flat_band"
        k = rng.uniform(-PI, PI, (64, 3))
        want = np.arccos(spectrum.rho_closed_form("3d-simple", {"beta": PI / 3}, 3, k))
        np.testing.assert_allclose(flat["evidence"]["energy"], want, rtol=0, atol=1e-12)

    def test_json_is_written_without_holding_its_whole_text(self, tmp_path):
        # every classification of the beta = 0 walk repeats its gapless set of
        # nodal lines, so the text is larger than the records it is made from;
        # the peak stays below the artifact's size only if the text is streamed
        out = tmp_path / "lines.json"
        tracemalloc.start()
        try:
            assert run(["classify-gaps", "--protocol", "2d-simple", "--sweep", "beta:0:0.1:2",
                        "--grid", "64", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        text = out.read_text()
        assert peak < len(text)
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


class TestSweepBudget:
    @pytest.mark.parametrize("fig", ["fig2", "fig10", "fig11"])
    def test_fixture_bytes_do_not_depend_on_the_budget_or_workers(self, tmp_path, monkeypatch,
                                                                   fig):
        command = "classify-gaps" if fig == "fig2" else "invariant"
        argv = [command, "--config", str(FIXTURE_DIR / f"{fig}.cfg"), "--out"]
        outs = []
        for budget in (cli.SWEEP_POINTS, 1):  # the default, then one value per chunk
            monkeypatch.setattr(cli, "SWEEP_POINTS", budget)
            # more workers than CPUs is a usage error
            for workers in ["1", "2"] if (os.cpu_count() or 1) >= 2 else ["1"]:
                out = tmp_path / f"{budget}-w{workers}"
                assert run(argv + [str(out), "--workers", workers]) == 0
                outs.append(out.read_bytes())
        assert all(o == outs[0] for o in outs)

    @pytest.mark.parametrize("fig, count", [("fig10", 8), ("fig11", 10)])
    def test_chern_fixture_is_one_stack(self, tmp_path, monkeypatch, fig, count):
        stacks = count_stacks(monkeypatch, "sweep_invariants")
        assert run(["invariant", "--config", str(FIXTURE_DIR / f"{fig}.cfg"),
                    "--out", str(tmp_path / "out.csv")]) == 0
        assert stacks == [count]

    def test_fig2_fits_only_the_walks_with_closings(self, tmp_path, monkeypatch):
        # the gap fits are the one plan compiled with (closing, axis, sign, s) angles
        plans, real = [], topology.two_band_plan

        def recording(spec, *, angles=None, T=None):
            plans.append(angles or {})
            return real(spec, angles=angles, T=T)

        monkeypatch.setattr(topology, "two_band_plan", recording)
        out = tmp_path / "fig2.json"
        assert run(["classify-gaps", "--config", str(FIXTURE_DIR / "fig2.cfg"),
                    "--out", str(out)]) == 0
        closing = [r["sweep_value"] for r in json.loads(out.read_text())["records"]
                   if r["gap_points"]]
        assert len(closing) == 9
        fits = [a["alpha"] for a in plans if np.ndim(a.get("alpha")) == 4]
        assert len(fits) == 1
        assert sorted(set(fits[0].ravel().tolist())) == closing

    @pytest.mark.parametrize("case", ["1d-invariant", "2d-invariant", "3d-classify"])
    def test_chunk_memory_is_bounded_by_the_budget(self, case):
        """A full chunk's traced peak is below 12 (1D `invariant`: the
        Fourier coefficients and the root count), 10 (2D `invariant`: d and
        |d| are 4 floats a point) or 24 (3D `classify-gaps`: d and |d|, plus
        the Gauss-Newton starts of 256 closings) x SWEEP_POINTS x 8 bytes."""
        if case == "1d-invariant":
            doc = json.loads((FIXTURE_DIR / "fig6.cfg").read_text())
            doc.update(protocol="1d-split", grid=32)
            doc["sweep"]["count"] = cli.SWEEP_POINTS // doc["grid"]
            bound, fn = 12, cli._invariant_chunk_rows
        elif case == "2d-invariant":
            doc = json.loads((FIXTURE_DIR / "fig10.cfg").read_text())
            doc["sweep"]["count"] = cli.SWEEP_POINTS // doc["grid"] ** 2
            bound, fn = 10, cli._invariant_chunk_rows
        else:
            doc = {"schema": "topowalk/v1", "protocol": "3d-phs", "steps": 1, "grid": 32,
                   "angles": {"alpha": 0.7, "gamma": 0.4},
                   "sweep": {"symbol": "beta", "start": 0.1, "stop": 3.1, "count": 4}}
            bound, fn = 24, cli._classify_chunk_records
        cfg = config.config_from_dict(doc)
        points = cli._scan_points(cfg)
        chunk = cfg.sweep_values()[:cli.SWEEP_POINTS // points]
        assert cli._chunks(cfg, points, cli.SWEEP_POINTS)[0] == chunk
        assert len(chunk) * points == cli.SWEEP_POINTS
        tracemalloc.start()
        try:
            assert fn(cfg, chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * cli.SWEEP_POINTS * 8


class TestSymmetryCommand:
    def test_all_against_golden(self, tmp_path):
        out = tmp_path / "sym.json"
        assert run(["symmetry", "all", "--golden", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "topowalk/v1"
        assert len(payload["records"]) == 22

    def test_single_protocol(self, tmp_path):
        out = tmp_path / "one.json"
        assert run(["symmetry", "1d-phs", "--out", str(out)]) == 0
        rec = json.loads(out.read_text())["records"][0]
        assert rec["az_family"] == "D" and rec["invariant_group"] == "Z2"

    def test_unknown_id_is_usage_error(self):
        assert run(["symmetry", "9d-phs", "--out", "-"]) == 2

    def test_golden_mismatch_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        # make the emitted canonical record disagree with the bundled table
        monkeypatch.setattr(sym.SymmetryReport, "canonical", _fake_canonical)
        out = tmp_path / "sym.json"
        assert run(["symmetry", "1d-phs", "--golden", "--out", str(out)]) == 1
        assert "golden mismatch" in capsys.readouterr().err


def _fake_canonical(self):
    return {"protocol": self.protocol, "dimension": self.dimension,
            "phs": 1, "trs": 1, "chs": 1, "az_family": "BDI",
            "invariant_group": self.invariant_group}


FIXTURE_DIR = __import__("pathlib").Path(__file__).resolve().parent.parent / "fixtures"


class TestFixtureFiles:
    """End-to-end runs of the bundled sweep configs."""

    def test_flat_band_config_emits_constant_energy_column(self, tmp_path):
        cfg = small_bands_cfg(tmp_path, protocol="3d-simple", steps=3, angles={},
                              sweep={"symbol": "beta", "start": PI / 3, "stop": PI / 3 + 1e-12,
                                     "count": 2}, grid=8)
        out = tmp_path / "flat.csv"
        assert run(["bands", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        e = np.array([float(r.split(",")[4]) for r in rows])
        assert np.abs(e - PI / 2).max() <= 1e-8

    def test_fig10_phase_sequence(self, tmp_path):
        out = tmp_path / "fig10.csv"
        assert run(["invariant", "--config", str(FIXTURE_DIR / "fig10.cfg"),
                    "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        got = [(r[1], r[3]) for r in rows]
        assert got == [("0", "ok"), ("", "boundary"), ("1", "ok"), ("", "boundary"),
                       ("0", "ok"), ("0", "ok"), ("0", "ok"), ("", "boundary")]

    def test_fig11_phase_sequence(self, tmp_path):
        out = tmp_path / "fig11.csv"
        assert run(["invariant", "--config", str(FIXTURE_DIR / "fig11.cfg"),
                    "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        by_value = {round(float(r[0]), 6): (r[1], r[3]) for r in rows}
        assert by_value[0.0] == ("0", "ok")
        assert by_value[round(PI / 3, 6)] == ("0", "ok")
        assert by_value[round(PI / 2, 6)][0] in ("1", "-1")
        assert by_value[round(PI / 4, 6)] == ("", "boundary")
        assert by_value[round(3 * PI / 4, 6)] == ("", "boundary")

    def test_fig6_winding_magnitudes(self, tmp_path):
        out = tmp_path / "fig6.csv"
        assert run(["invariant", "--config", str(FIXTURE_DIR / "fig6.cfg"),
                    "--out", str(out), "--sweep", "alpha:-3.0:3.0:13",
                    "--grid", "128"]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        ws = {int(r[1]) for r in rows if r[3] == "ok"}
        assert ws <= {-1, 0, 1} and {abs(w) for w in ws} == {0, 1}

    def test_fig2_taxonomy_config_loads_and_runs(self, tmp_path):
        out = tmp_path / "fig2.json"
        assert run(["classify-gaps", "--config", str(FIXTURE_DIR / "fig2.cfg"),
                    "--out", str(out), "--sweep", "alpha:-0.02:0.02:3"]) == 0
        rec = json.loads(out.read_text())["records"][1]
        assert {c["kind"] for c in rec["classifications"]} == {"dirac_type_two"}

    def test_bands_floats_round_trip_and_rows_ordered(self, tmp_path):
        cfg = small_bands_cfg(tmp_path, protocol="2d-phs", angles={"alpha": 0.7},
                              sweep={"symbol": "beta", "start": 0.3, "stop": 0.7,
                                     "count": 2}, grid=8, steps=2)
        out = tmp_path / "o.csv"
        assert run(["bands", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
        ks = [(float(r[1]), float(r[2])) for r in rows[:64]]
        assert ks == sorted(ks)
        # shortest round-trip decimals reload losslessly
        from topowalk.protocols import registry_lookup, build_unitary
        from topowalk.spectrum import bands_from_unitary
        spec = registry_lookup("2d-phs", T=2, angles={"alpha": 0.7, "beta": 0.3})
        k = np.array([[float(r[1]), float(r[2])] for r in rows[:64]])
        e = bands_from_unitary(build_unitary(spec, k)).e_plus
        assert all(float(r[3]) == e[i] for i, r in enumerate(rows[:64]))

    def test_fixtures_and_symmetry_record_no_warning(self, tmp_path):
        commands = {"fig2": "classify-gaps", "fig6": "invariant", "fig10": "invariant",
                    "fig11": "invariant"}
        paths = sorted(FIXTURE_DIR.glob("fig*.cfg"))
        assert len(paths) == 11
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for path in paths:
                assert run([commands.get(path.stem, "bands"), "--config", str(path),
                            "--out", str(tmp_path / path.stem)]) == 0
            assert run(["symmetry", "all", "--golden", "--out", str(tmp_path / "sym.json")]) == 0
        assert [str(w.message) for w in caught] == []


class TestUsageErrors:
    def test_unknown_protocol(self, tmp_path):
        cfg = small_bands_cfg(tmp_path, protocol="4d-phs")
        assert run(["bands", "--config", str(cfg), "--out", "-"]) == 2

    def test_swept_angle_also_fixed(self, tmp_path):
        cfg = small_bands_cfg(tmp_path, angles={"alpha": 0.1, "beta": 0.2})
        assert run(["bands", "--config", str(cfg), "--out", "-"]) == 2

    def test_too_few_samples(self, tmp_path):
        cfg = small_bands_cfg(tmp_path,
                              sweep={"symbol": "alpha", "start": 0, "stop": 1,
                                     "count": 1})
        assert run(["bands", "--config", str(cfg), "--out", "-"]) == 2

    def test_tiny_grid(self, tmp_path):
        cfg = small_bands_cfg(tmp_path, grid=4)
        assert run(["bands", "--config", str(cfg), "--out", "-"]) == 2

    def test_malformed_values(self, tmp_path, capsys):
        sweep = {"symbol": "alpha", "start": -1.0, "stop": 1.0, "count": "x"}
        link = {"on": "alpha", "scale": 0.5, "offset": 0.0}
        docs = [{"sweep": sweep},
                {"linked": {"beta": {"on": "alpha", "offset": 0.0}}},
                {"angles": [1, 2]},
                # falsy non-objects are not an empty object
                {"angles": []}, {"angles": 0}, {"angles": ""}, {"angles": False},
                # a string is not a boolean, and counts must be integral
                {"steps": 1, "step_independent": "false"},
                {"grid": 8.9},
                {"workers": 2.7},
                # misspelled keys at the top level, in sweep and in a linked entry
                {"gird": 8},
                {"angels": {"beta": 0.5}},
                {"sweep": {**sweep, "count": 3, "cuont": 3}},
                {"angles": {}, "linked": {"beta": {**link, "sacle": 0.5}}}]
        for overrides in docs:
            cfg = small_bands_cfg(tmp_path, **overrides)
            assert run(["bands", "--config", str(cfg), "--out", "-"]) == 2
        # a top level that is not an object, a non-string protocol and a
        # non-string out (which must not reach open() as a file descriptor)
        bad = tmp_path / "bad.json"
        bad.write_text("[1]")
        assert run(["bands", "--config", str(bad), "--out", "-"]) == 2
        cfg = small_bands_cfg(tmp_path, protocol=["1d-chs"])
        assert run(["bands", "--config", str(cfg), "--out", "-"]) == 2
        cfg = small_bands_cfg(tmp_path, out=7)
        assert run(["bands", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err.splitlines()
        keys = ("sweep.count", "linked.beta.scale", "angles", "angles", "angles", "angles",
                "angles", "step_independent", "grid",
                "workers", "gird", "angels", "sweep.cuont", "linked.beta.sacle",
                "config", "protocol", "out")
        assert len(err) == len(keys)
        for line, key in zip(err, keys):
            assert line.startswith("error: " + key)
        # well-typed values that validate() rejects
        rejected = [({"angles": {"beta": 0.5, "gamma": 0.1}}, "'1d-chs' has no angle 'gamma'"),
                    ({"linked": {"gamma": link}}, "'1d-chs' has no linked angle 'gamma'"),
                    ({"angles": {"beta": 0.5}, "linked": {"beta": link}},
                     "linked angle 'beta' must not also be fixed"),
                    ({"linked": {"alpha": link}},
                     "linked angle 'alpha' must not be the swept angle"),
                    ({"angles": {}, "linked": {"beta": {**link, "on": "beta"}}},
                     "linked angle 'beta' must follow the swept symbol 'alpha'"),
                    ({"workers": 0}, "workers must be >= 1"),
                    ({"steps": 1, "sweep": {"symbol": "T", "start": 0, "stop": 2, "count": 3}},
                     "a step-number sweep needs integer bounds >= 1")]
        for overrides, message in rejected:
            cfg = small_bands_cfg(tmp_path, **overrides)
            assert run(["bands", "--config", str(cfg), "--out", "-"]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_linked_angle_is_swept_angle(self, capsys):
        # the link would replace the swept value: rows labelled alpha = 1.0
        # would be computed at alpha = 2.0
        for command in ("bands", "invariant", "classify-gaps"):
            assert run([command, "--protocol", "1d-chs", "--sweep", "alpha:0:1:2",
                        "--set", "beta=0.3", "--link", "alpha=alpha:2:0", "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: linked angle 'alpha' must not be the swept angle"] * 3

    def test_step_independent_rejects_step_sweep(self, capsys):
        # the flag evaluates the T = 1 walk, so a sweep over T contradicts it
        for command in ("bands", "invariant", "classify-gaps"):
            assert run([command, "--protocol", "1d-chs", "--set", "alpha=1.0",
                        "--set", "beta=0.5", "--sweep", "T:1:3:3", "--grid", "8",
                        "--step-independent", "--out", "-"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3 and all("step-independent" in line for line in err)

    def test_step_sweep_beyond_float_precision(self, capsys):
        # T bounds are read as floats, which would turn 2**53 + 1 into 2**53
        assert run(["bands", "--protocol", "1d-chs", "--set", "alpha=0.4", "--set", "beta=0.5",
                    "--sweep", "T:9007199254740993:9007199254740995:2", "--grid", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: a step-number sweep needs bounds"
                                                   " below 2**53")

    def test_step_sweep_repeating_step_numbers(self, capsys):
        # rounded to integers, T:1:2:5 would emit T = 1 twice and T = 2 three times
        for sweep in ("T:1:2:5", "T:3:3:2"):
            assert run(["bands", "--protocol", "1d-chs", "--set", "beta=0.5",
                        "--sweep", sweep, "--grid", "8", "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: a step-number sweep needs a"
                                                     " nonzero integer step") for line in err)

    def test_steps_with_step_sweep(self, capsys):
        # the sweep sets the step number, so a fixed one would be dropped unseen
        assert run(["bands", "--protocol", "1d-chs", "--set", "alpha=1.0", "--set", "beta=0.5",
                    "--sweep", "T:1:2:2", "--grid", "8", "--steps", "5", "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: steps 5")

    def test_step_number_beyond_64_bits(self, tmp_path, capsys):
        # numpy holds such a T as a Python object, which the integrality check
        # cannot round; the plan rejects it by name
        chs = ["bands", "--protocol", "1d-chs", "--set", "beta=0.5", "--grid", "8", "--out", "-"]
        big = 99999999999999999999
        runs = [chs + ["--sweep", "alpha:0:1:2", "--steps", str(big)],
                chs + ["--sweep", f"T:1:{big}:2"],
                ["bands", "--config", str(small_bands_cfg(tmp_path, steps=1e20)), "--out", "-"]]
        for argv in runs:
            assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == len(runs)
        assert all(line.startswith("error: step number T must be an integer of at most 64 bits")
                   for line in err)

    def test_overflowing_rotation_angle(self, tmp_path, capsys):
        # T * theta beyond the largest float is rejected before any value is
        # computed, so no numpy overflow warning comes before the error line
        chs = ["--protocol", "1d-chs", "--set", "beta=1", "--grid", "8"]
        runs = [[command, "--protocol", "1d-phs", "--set", "beta=1", "--steps", "6",
                 "--sweep", "alpha:0:1e308:2", "--grid", "8"]
                for command in ("bands", "invariant", "classify-gaps")]
        runs += [["invariant", "--protocol", "1d-chs", "--sweep", "alpha:0:1e308:2",
                  "--link", "beta=alpha:10:0", "--grid", "8"],
                 ["bands", *chs, "--set", "alpha=1e308", "--sweep", "T:1:3:3"],
                 ["bands", "--config", str(small_bands_cfg(tmp_path, angles={"beta": 1e308}))],
                 ["bands", "--config", str(small_bands_cfg(
                     tmp_path, angles={}, linked={"beta": {"on": "alpha", "scale": -10.0,
                                                           "offset": 0.0}},
                     sweep={"symbol": "alpha", "start": -1e308, "stop": 0.0, "count": 2}))]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning fails the run it comes from
            for argv in runs:
                assert run(argv + ["--out", "-"]) == 2, argv
            assert run(["bands", *chs, "--sweep", "alpha:-1e308:1e308:3", "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == len(runs) + 1
        assert err[0] == ("error: rotation angle 'alpha' = 1e+308 at step number 6 gives a"
                          " non-finite T * alpha")
        assert [line.split("'")[1] for line in err[:-1]] == ["alpha"] * 3 + ["beta", "alpha"] + [
            "beta"] * 2
        assert all("non-finite T *" in line for line in err[:-1])
        assert err[-1] == "error: sweep stop - start must be finite"

    def test_point_budget(self, capsys, monkeypatch):
        # rejected before any grid or sweep list is allocated, and before any
        # chunk is computed; `invariant` and `classify-gaps` count the scan
        # mesh a value costs, not grid^dim (8,192 x 32^3 and 65,536 x 32^2)
        def no_chunk(*a, **kw):
            raise AssertionError("a chunk was computed")
        monkeypatch.setattr(topology, "sweep_boundaries", no_chunk)
        monkeypatch.setattr(topology, "sweep_invariants", no_chunk)
        chs = ["--protocol", "1d-chs", "--set", "beta=0.5", "--out", "-"]
        runs = [["invariant", *chs, "--sweep", "alpha:0:1:2", "--grid", "100000000"],
                ["bands", *chs, "--sweep", "alpha:0:1:1000000000000", "--grid", "8"],
                ["classify-gaps", *chs, "--sweep", "alpha:0:1:2", "--grid", "2097153"],
                ["bands", "--protocol", "3d-simple", "--sweep", "beta:0:1:2", "--grid", "1000",
                 "--out", "-"],
                ["classify-gaps", "--protocol", "3d-phs", "--set", "alpha=0.7", "--set",
                 "gamma=0.4", "--grid", "8", "--sweep", "beta:0.1:3.1:8192", "--out", "-"],
                ["invariant", "--protocol", "2d-phs", "--steps", "2", "--set", "alpha=1.0",
                 "--grid", "8", "--sweep", "beta:0.1:3.1:65536", "--out", "-"]]
        for argv in runs:
            assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == len(runs)
        assert all("exceeds the budget" in line and "Traceback" not in line for line in err)
        # every fixture, and fig10 at --grid 512 (8 x 512^2 points), stays
        # within it at the points its own command counts
        docs = {path.stem: json.loads(path.read_text())
                for path in sorted(FIXTURE_DIR.glob("fig*.cfg"))}
        for name, doc in [*docs.items(), ("fig10", {**docs["fig10"], "grid": 512})]:
            cfg = config.config_from_dict(doc).validate()
            if name in BANDS_FIXTURES:
                dim = registry_lookup(cfg.protocol).dimension
                assert cli._chunks(cfg, cfg.grid ** dim, cli.CHUNK_POINTS), name
            else:
                assert cli._chunks(cfg, cli._scan_points(cfg), cli.SWEEP_POINTS), name

    def test_workers_capped_at_cpu_count(self, tmp_path, capsys, monkeypatch):
        # rejected in validate(); a stub in place of the pool fails the test if reached
        def no_pool(*a, **kw):
            raise AssertionError("a worker pool was started")
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        cpus = os.cpu_count() or 1
        cfg = small_bands_cfg(tmp_path)
        assert run(["bands", "--config", str(cfg), "--out", "-",
                    "--workers", str(cpus + 1)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: workers {cpus + 1} exceeds")
        doc = json.loads(cfg.read_text())
        for workers in (cpus + 1, 10 ** 12):
            with pytest.raises(InvalidInputError, match="exceeds the"):
                config.config_from_dict({**doc, "workers": workers}).validate()
        config.config_from_dict({**doc, "workers": cpus}).validate()

    def test_missing_config_file(self, tmp_path, capsys):
        # unreadable config and output paths are usage errors, not exit 1 with a traceback
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xff\xfe{}")
        flags = ["--protocol", "1d-chs", "--set", "beta=0.5", "--sweep", "alpha:0:1:2",
                 "--grid", "8"]
        runs = [["bands", "--config", "/nonexistent/x.json", "--out", "-"],
                ["bands", "--config", str(tmp_path), "--out", "-"],
                ["bands", "--config", str(bom), "--out", "-"],
                ["bands", *flags, "--out", str(tmp_path)],
                ["symmetry", "1d-chs", "--out", str(tmp_path)]]
        for argv in runs:
            assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == len(runs)
        assert [line.split()[1] for line in err] == ["config"] * 3 + ["out"] * 2

    @pytest.mark.parametrize("command", ["bands", "invariant", "classify-gaps"])
    def test_unwritable_out_fails_before_any_value(self, tmp_path, capsys, monkeypatch,
                                                   command):
        def reached(*a, **kw):
            raise AssertionError("a sweep value was computed")
        monkeypatch.setattr(cli, "_map_values", reached)
        cfg = small_bands_cfg(tmp_path)
        assert run([command, "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: out {str(tmp_path)!r} cannot be")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_failed_write_is_one_line_usage_error(self, tmp_path, capsys):
        # the write fails with ENOSPC after the output path was checked, in
        # the middle of the streamed text
        cfg = small_bands_cfg(tmp_path)
        runs = [[command, "--config", str(cfg)] for command in
                ("bands", "invariant", "classify-gaps")] + [["symmetry", "1d-chs"]]
        for argv in runs:
            assert run(argv + ["--out", "/dev/full"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == len(runs)
        assert all(line.startswith("error: out '/dev/full' cannot be written: ") for line in err)

    @pytest.mark.skipif(resource is None, reason="needs the POSIX resource module")
    def test_write_failing_partway_removes_the_new_file(self, tmp_path):
        # a file size limit of 2 KiB, set in the child only, fails the write of
        # the symmetry table partway with EFBIG
        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (2048, 2048))

        out = tmp_path / "NEW.json"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-m", "topowalk.cli", "symmetry", "all",
                               "--out", str(out)], preexec_fn=limit_file_size, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: out {str(out)!r} cannot be written: ")
        assert not out.exists()

    def test_failed_run_leaves_no_new_file(self, tmp_path, monkeypatch):
        from topowalk.errors import GaplessError

        def boom(*a, **kw):
            raise GaplessError("synthetic failure")
        monkeypatch.setattr(cli, "_map_values", boom)
        cfg = small_bands_cfg(tmp_path)
        (tmp_path / "3d").mkdir()
        flat = small_bands_cfg(tmp_path / "3d", protocol="3d-simple", angles={},
                               sweep={"symbol": "beta", "start": 0.1, "stop": 0.3, "count": 2})
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        old.write_text("kept\n")
        for out in (new, old):
            assert run(["bands", "--config", str(cfg), "--out", str(out)]) == 3
            # a 3D invariant is refused after the output path was checked
            assert run(["invariant", "--config", str(flat), "--out", str(out)]) == 2
        assert not new.exists() and old.read_text() == "kept\n"

    def test_non_numeric_flag_values(self):
        base = ["bands", "--protocol", "1d-chs", "--grid", "8", "--out", "-"]
        assert run(base + ["--sweep", "alpha:0:1:2", "--set", "beta=abc"]) == 2
        assert run(base + ["--sweep", "alpha:0:end:2"]) == 2
        assert run(base + ["--sweep", "alpha:0:1:2", "--link", "beta=alpha:x:0"]) == 2
        assert run(base + ["--sweep", "alpha:0:1:2.5"]) == 2
        assert run(base + ["--sweep", "alpha:0:1:2", "--grid", "8.5"]) == 2
        assert run(base + ["--sweep", "alpha:0:1:2", "--grid", "1e999999999"]) == 2

    def test_numerical_diagnostic_exit_code(self, tmp_path, monkeypatch):
        from topowalk.errors import GaplessError

        def boom(*a, **kw):
            raise GaplessError("synthetic failure")
        monkeypatch.setattr(cli, "_map_values", boom)
        cfg = small_bands_cfg(tmp_path)
        assert run(["bands", "--config", str(cfg), "--out", "-"]) == 3

    @pytest.mark.parametrize("module, name, command", [
        ("topology", "sweep_boundaries", "classify-gaps"),
        ("topology", "sweep_invariants", "invariant"),
        ("symmetry", "classify", "symmetry"),
    ])
    def test_linalg_error_is_numerical_diagnostic(self, tmp_path, capsys, monkeypatch,
                                                  module, name, command):
        # exit 1 is reserved for a golden mismatch; a failed decomposition is exit 3
        def boom(*a, **kw):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(getattr(cli, module), name, boom)
        argv = (["symmetry", "1d-chs"] if command == "symmetry"
                else [command, "--config", str(small_bands_cfg(tmp_path))])
        assert run(argv + ["--out", "-"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert err == ["numerical diagnostic: SVD did not converge"]


def child_env() -> dict:
    """The environment of a `python -m topowalk.cli` child that imports this checkout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")


class TestUnwritableStdout:
    """A closed or broken stdout is an unwritable output: exit 2, one line."""

    def test_broken_pipe(self):
        # the reader closes the pipe after one byte, as `| head -c 1` does
        proc = subprocess.Popen([sys.executable, "-m", "topowalk.cli", "bands", "--config",
                                 str(FIXTURE_DIR / "fig1.cfg"), "--workers", "1", "--out", "-"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2, err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: out '-' cannot be written: "), err

    @pytest.mark.parametrize("command", ["bands", "invariant"])
    def test_closed_stdout_is_refused_before_any_row(self, tmp_path, capsys, monkeypatch,
                                                     command):
        def unreached(*args, **kwargs):
            raise AssertionError("a row was computed")

        monkeypatch.setattr(cli, "_bands_chunk", unreached)
        monkeypatch.setattr(topology, "sweep_invariants", unreached)
        monkeypatch.setattr(sys, "stdout", None)  # as Python leaves it when fd 1 is closed
        code = run([command, "--config", str(small_bands_cfg(tmp_path)), "--out", "-"])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: out '-' cannot be written: stdout is closed"]

    @pytest.mark.parametrize("argv", [["symmetry", "1d-chs"],
                                      ["invariant", "--config", "<cfg>"]])
    def test_closed_stdout(self, tmp_path, argv):
        argv = [str(small_bands_cfg(tmp_path)) if a == "<cfg>" else a for a in argv]
        proc = subprocess.run([sys.executable, "-m", "topowalk.cli", *argv],
                              preexec_fn=lambda: os.close(1), env=child_env(),
                              stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        lines = proc.stderr.splitlines()
        assert lines == ["error: out '-' cannot be written: stdout is closed"]


class TestOutputOverwrite:
    """An existing output is rewritten in place and cut at the end of the new text."""

    def fresh(self, tmp_path, argv) -> bytes:
        out = tmp_path / "fresh.out"
        assert run(argv + ["--out", str(out)]) == 0
        return out.read_bytes()

    def test_longer_file_is_cut(self, tmp_path):
        fig1 = ["bands", "--config", str(FIXTURE_DIR / "fig1.cfg")]
        out = tmp_path / "fig1.csv"
        assert run(fig1 + ["--grid", "512", "--out", str(out)]) == 0
        before = os.stat(out)
        new = self.fresh(tmp_path, fig1)
        assert before.st_size > len(new)
        assert run(fig1 + ["--out", str(out)]) == 0
        assert out.read_bytes() == new
        after = os.stat(out)
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    def test_shorter_file_is_extended_in_place(self, tmp_path):
        argv = ["classify-gaps", "--config", str(small_bands_cfg(tmp_path))]
        out = tmp_path / "gaps.json"
        out.write_text("old\n")
        os.chmod(out, 0o640)
        linked = tmp_path / "hard.json"
        os.link(out, linked)
        before = os.stat(out)
        assert run(argv + ["--out", str(out)]) == 0
        new = self.fresh(tmp_path, argv)
        assert out.read_bytes() == new and linked.read_bytes() == new
        after = os.stat(out)
        assert (after.st_ino, after.st_mode, after.st_nlink) == (before.st_ino, 0o100640, 2)

    def test_symlink_writes_its_target(self, tmp_path):
        argv = ["invariant", "--config", str(small_bands_cfg(tmp_path))]
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_text("x" * 10000)
        link.symlink_to(target)
        assert run(argv + ["--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == self.fresh(tmp_path, argv)

    @pytest.mark.skipif(resource is None, reason="needs the POSIX resource module")
    def test_write_failing_partway_keeps_the_written_prefix(self, tmp_path):
        # as test_write_failing_partway_removes_the_new_file, on a file that
        # existed and was longer than the limit: it holds the 2 KiB written
        # before EFBIG and none of its old bytes, as truncation at open left it
        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (2048, 2048))

        out = tmp_path / "OLD.json"
        out.write_text("x" * 10000)
        proc = subprocess.run([sys.executable, "-m", "topowalk.cli", "symmetry", "all",
                               "--out", str(out)], preexec_fn=limit_file_size, env=child_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: out {str(out)!r} cannot be written: ")
        new = self.fresh(tmp_path, ["symmetry", "all"])
        assert len(new) > 2048
        assert out.read_bytes() == new[:2048]


class TestPerProcessParser:
    """`main` builds its parser once per process; each call parses afresh."""

    def test_parser_built_once(self, tmp_path, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting(self, *a, **kw):
            built.append(self)
            init(self, *a, **kw)
        monkeypatch.setattr(cli._Parser, "__init__", counting)
        cli._parser.cache_clear()
        cfg = str(small_bands_cfg(tmp_path))
        assert run(["bands", "--config", cfg, "--out", str(tmp_path / "a.csv")]) == 0
        first = len(built)  # the parser and its subcommand parsers
        for command in ("invariant", "classify-gaps"):
            assert run([command, "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        assert run(["symmetry", "1d-chs", "--out", str(tmp_path / "c.json")]) == 0
        assert first == 5 and len(built) == first
        cli._parser.cache_clear()

    def test_flag_values_do_not_carry_over(self, tmp_path):
        base = ["bands", "--protocol", "1d-chs", "--sweep", "alpha:0:1:2", "--grid", "8"]
        out = tmp_path / "o.csv"
        assert run(base + ["--set", "gamma=0.5", "--out", str(out)]) == 2  # 1d-chs has no gamma
        assert run(base + ["--set", "beta=0.5", "--link", "beta=alpha:1:0", "--out", str(out)]) == 2
        assert run(base + ["--out", str(out)]) == 0  # neither the --set nor the --link is kept
        after = out.read_bytes()
        cli._parser.cache_clear()
        assert run(base + ["--out", str(out)]) == 0
        assert out.read_bytes() == after
        args = cli._parser().parse_args(base + ["--set", "beta=0.1"])
        assert args.set == [("beta", "0.1")] and args.link is None
        assert cli._parser().parse_args(base).set is None

    def test_usage_error_after_success(self, tmp_path, capsys):
        cfg = str(small_bands_cfg(tmp_path))
        assert run(["invariant", "--config", cfg, "--out", "-"]) == 0
        capsys.readouterr()
        for argv in (["invariant", "--config", cfg, "--bogus"], ["nocommand"], []):
            assert run(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 3 and all(line.startswith("error: ") for line in err)

    @pytest.mark.parametrize("name", [f"fig{i}" for i in range(1, 12)])
    def test_specs_at_binds_as_registry_lookup(self, name):
        """A chunk's stack, `walk_params` of the array of its values, holds
        the bits of each walk that `registry_lookup` binds at one value."""
        cfg = config.config_from_dict(json.loads((FIXTURE_DIR / f"{name}.cfg").read_text()))
        cfg.validate()
        values = cfg.sweep_values()
        spec = registry_lookup(cfg.protocol)
        angles, T = stacked_params(spec, *cfg.walk_params(np.array(values)))
        assert T.dtype == np.int64 and all(a.dtype == np.float64 for a in angles.values())
        for i, value in enumerate(values):
            want = cfg.spec_at(value)
            assert list(angles) == list(want.angles) and T[i] == want.T
            assert [a[i].tobytes() for a in angles.values()] == [
                np.float64(a).tobytes() for a in want.angles.values()]
        assert len(stacked_params(spec, *cfg.walk_params(np.array(values[:0])))[1]) == 0


# The fuzzed boundary: config documents drawn from the key table, then
# mutated, and argv lists drawn around them.  Surrogates are left out of the
# text because pytest's captured stderr encodes strictly; the real stderr
# escapes them.
TEXT = st.text(st.characters(exclude_categories=["Cs"]), max_size=6).filter(
    lambda t: not t.startswith("-"))  # "-h" and prefixes of "--help" would print help
EXTREME = st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308, 2 ** 63, 2 ** 64,
                           10 ** 400, -1, 0])
JUNK = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | TEXT | EXTREME,
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(TEXT, inner, max_size=3), max_leaves=5)
SYMBOLS = st.sampled_from(["alpha", "beta", "gamma", "zeta", "T"])
TWO_BAND = [pid for pid in PROTOCOL_IDS if registry_lookup(pid).bands == 2]
OUT = "<out>"  # replaced by a file under tmp_path; no other out value is drawn
LIKELY = {  # values that let a run get past validation and compute
    "protocol": st.sampled_from(TWO_BAND) | st.sampled_from(PROTOCOL_IDS), "symbol": SYMBOLS,
    "on": SYMBOLS, "steps": st.integers(1, 3), "grid": st.integers(8, 16),
    "count": st.integers(2, 4),
    "start": st.integers(1, 3) | st.floats(-4, 4), "stop": st.integers(1, 4) | st.floats(-4, 4),
    "workers": st.integers(0, 3), "out": st.sampled_from([None, "-", OUT]),
}
MISSPELLED = ["gird", "phi", "cuont", "sacle", "angels", "schema"]


def _table_values(table):
    def value(key, kind):
        if key in LIKELY:
            return LIKELY[key]
        if isinstance(kind, dict):
            return _table_values(kind)
        if isinstance(kind, list):
            return st.dictionaries(SYMBOLS, value(None, kind[0]), max_size=1)
        if isinstance(kind, tuple):
            return st.sampled_from(kind)
        return {bool: st.booleans(), float: st.floats(-4, 4), str: TEXT}[kind]
    return st.fixed_dictionaries(
        {key: value(key, kind) for key, (kind, default, _) in table.items() if default is ...},
        optional={key: value(key, kind) for key, (kind, default, _) in table.items()
                  if default is not ...})


def _objects(doc):
    yield doc
    for value in doc.values():
        if isinstance(value, dict):
            yield from _objects(value)


@st.composite
def documents(draw):
    """A config drawn from the key table with up to three mutations: a key set
    to junk or an extreme number, a key removed, or an unknown key added."""
    if draw(st.integers(0, 9)) == 9:
        return draw(JUNK)  # not a JSON object, or one of junk
    doc = draw(_table_values(config.KEYS))
    for _ in range(draw(st.integers(0, 3))):
        obj = draw(st.sampled_from(list(_objects(doc))))
        key = draw(st.sampled_from(sorted(obj) + MISSPELLED) | TEXT)
        if obj is doc and key == "out":
            continue
        if draw(st.booleans()):
            obj[key] = draw(JUNK)
        else:
            obj.pop(key, None)
    return doc


SWEEP_FLAGS = {
    "--protocol": st.sampled_from(TWO_BAND) | TEXT,
    "--steps": st.integers(-1, 4).map(str) | EXTREME.map(str) | TEXT,
    "--grid": st.integers(4, 16).map(str) | EXTREME.map(str) | TEXT,
    "--workers": st.integers(0, 3).map(str) | TEXT,
    "--out": st.sampled_from(["-", OUT]),
    "--set": st.builds("{}={}".format, SYMBOLS, st.floats(-4, 4) | EXTREME) | TEXT,
    "--sweep": st.builds("{}:{}:{}:{}".format, SYMBOLS, st.integers(1, 3),
                         st.integers(1, 4) | EXTREME, st.integers(1, 4)) | TEXT,
    "--link": st.builds("{}={}:{}:{}".format, SYMBOLS, SYMBOLS, st.floats(-2, 2), EXTREME) | TEXT,
    "--step-independent": st.none(),
}
SYMMETRY_FLAGS = {"--out": SWEEP_FLAGS["--out"], "--golden": st.none()}
MISSPELLED_FLAGS = ["--gird", "--phi", "--sweeps", "--stpes", "--golden", "--set"]


@st.composite
def argvs(draw):
    """A command with its flags, one in five times also a misspelled or misplaced flag."""
    command = draw(st.sampled_from(["bands", "invariant", "classify-gaps", "symmetry"]))
    argv = [command]
    if command == "symmetry":
        argv += draw(st.lists(st.sampled_from(PROTOCOL_IDS) | TEXT, max_size=2))
        flags = SYMMETRY_FLAGS
    else:
        argv += ["--config", draw(st.sampled_from(["<cfg>"] * 6 + ["<dir>"]))]
        flags = SWEEP_FLAGS
    names = draw(st.lists(st.sampled_from(sorted(flags)), max_size=3))
    if draw(st.integers(0, 4)) == 4:
        names.append(draw(st.sampled_from(MISSPELLED_FLAGS)))
    for flag in names:
        value = draw(flags.get(flag, TEXT))
        argv += [flag] if value is None else [flag, value]
    return argv


class SerialPool:
    """Stands in for the process pool: the fuzz starts no processes."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@st.composite
def well_formed(draw):
    """A config that passes validation, and the argv that runs it: a two-band
    protocol of a dimension whose scan fits the fuzz's budget, swept over one
    of its own angles (or over T in integer steps), grid 8-16, 2-4 values,
    no links."""
    command = draw(st.sampled_from(["classify-gaps", "invariant", "bands"]))
    dims = (1, 2) if command == "bands" else (1,)
    pid = draw(st.sampled_from([p for p in TWO_BAND if registry_lookup(p).dimension in dims]))
    symbol = draw(st.sampled_from(registry_lookup(pid).symbols + ("T",)))
    count = draw(st.integers(2, 4))
    doc = {"protocol": pid, "grid": draw(st.integers(8, 16)),
           "out": draw(st.sampled_from(["-", OUT]))}
    if symbol == "T":  # the sweep sets the step number
        start = draw(st.integers(1, 3))
        stop = start + draw(st.integers(1, 2)) * (count - 1)
    else:
        start, stop = draw(st.floats(-4, 4)), draw(st.floats(-4, 4))
        doc["steps"] = draw(st.integers(1, 3))
    doc["sweep"] = {"symbol": symbol, "start": start, "stop": stop, "count": count}
    return doc, [command, "--config", "<cfg>"]


@st.composite
def cases(draw):
    """(doc, argv): one in four well-formed, the others fuzzed."""
    if draw(st.integers(0, 3)) == 0:
        return draw(well_formed())
    return draw(documents()), draw(argvs())


def _counted(calls, name, fn):
    def counting(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return counting


class TestFuzzedBoundary:
    def test_exit_code_and_one_line_error(self, tmp_path, capsys, monkeypatch):
        # 3D bands fit the budget only at grid 8 with two values, and a 2D or
        # 3D scan (at least 32 points per axis) never does
        monkeypatch.setattr(config, "MAX_POINTS", 2 ** 10)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.chdir(tmp_path)  # a stray relative path would land here and fail the test
        calls, computed = [], []  # the chunk calls made; per example, whether it made any
        for module, name in ((topology, "sweep_invariants"), (topology, "sweep_boundaries"),
                             (cli, "_bands_chunk")):
            monkeypatch.setattr(module, name, _counted(calls, name, getattr(module, name)))

        @settings(derandomize=True, max_examples=80, deadline=None, database=None,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(case=cases())
        def example(case):
            doc, argv = case
            made = len(calls)
            out = tmp_path / "out.txt"
            if isinstance(doc, dict) and doc.get("out") not in (None, "-"):
                doc["out"] = str(out)
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(doc))
            paths = {"<cfg>": str(cfg), "<dir>": str(tmp_path), OUT: str(out)}
            code = run([paths.get(arg, arg) for arg in argv])
            err = capsys.readouterr().err
            assert code in (0, 2, 3), (argv, doc, err)
            assert len(err.splitlines()) <= 1 and "Traceback" not in err, (argv, doc, err)
            assert {p.name for p in tmp_path.iterdir()} <= {"cfg.json", "out.txt"}
            computed.append(len(calls) > made)

        example()
        assert sum(computed) >= 10, (len(computed), sorted(set(calls)))
        assert set(calls) == {"sweep_invariants", "sweep_boundaries", "_bands_chunk"}
