import copy
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "artifact_diff.py"
_SPEC = importlib.util.spec_from_file_location("artifact_diff", _PATH)
artifact_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_diff)

CSV_ROWS = [["sweep_param", "k1", "e_plus", "v_k1", "status"],
            ["0.5", "-3.141592653589793", "0.7853981633974483", "0.25", "gapped"],
            ["0.5", "0.0", "0.0", "", "gapless"]]
GAPS = {"schema": "topowalk/v1", "command": "classify-gaps", "protocol": "1d-chs",
        "records": [{"sweep_value": 0.5,
                     "gap_points": [{"k": [0.0], "quasi_energy": 0.0,
                                     "residual": 1.2e-16}],
                     "classifications": [{"kind": "dirac_type_one",
                                          "evidence": {"slopes": {"0": [0.5, 0.5]}}}]}]}


def _write(directory: Path, rows, gaps):
    directory.mkdir()
    (directory / "fig1_bands.csv").write_text("\n".join(",".join(r) for r in rows) + "\n")
    (directory / "fig2_gaps.json").write_text(json.dumps(gaps, sort_keys=True, indent=2))
    return directory


def _compare(tmp_path, rows=CSV_ROWS, gaps=GAPS):
    return artifact_diff.compare_dirs(_write(tmp_path / "old", CSV_ROWS, GAPS),
                                      _write(tmp_path / "new", rows, gaps))


def test_identical_directories_match(tmp_path):
    diff = _compare(tmp_path)
    assert diff.mismatches == []
    assert diff.names == ["fig1_bands.csv", "fig2_gaps.json"]
    assert max(diff.dev.values()) == 0.0
    assert diff.identical == {"fig1_bands.csv": True, "fig2_gaps.json": True}


def test_float_moved_within_tolerance_matches(tmp_path):
    rows = copy.deepcopy(CSV_ROWS)
    rows[1][2] = repr(float(rows[1][2]) + 1e-12)
    gaps = copy.deepcopy(GAPS)
    gaps["records"][0]["gap_points"][0]["residual"] += 1e-12
    diff = _compare(tmp_path, rows, gaps)
    assert diff.mismatches == []
    assert 0.0 < diff.dev[("fig1_bands.csv", "e_plus")] < 1e-11
    assert 0.0 < diff.dev[("fig2_gaps.json", "records.gap_points.residual")] < 1e-11
    assert diff.identical == {"fig1_bands.csv": False, "fig2_gaps.json": False}


def _csv_status(rows, gaps):
    rows[1][4] = "gapless"


def _json_kind(rows, gaps):
    gaps["records"][0]["classifications"][0]["kind"] = "fermi_arc"


def _gap_point_count(rows, gaps):
    points = gaps["records"][0]["gap_points"]
    points.append(dict(points[0], k=[3.0]))


@pytest.mark.parametrize("change, where", [
    (_csv_status, "fig1_bands.csv line 2 status"),
    (_json_kind, "fig2_gaps.json /records/0/classifications/0/kind"),
    (_gap_point_count, "fig2_gaps.json /records/0/gap_points length"),
])
def test_exact_field_change_is_a_mismatch(tmp_path, change, where):
    rows, gaps = copy.deepcopy(CSV_ROWS), copy.deepcopy(GAPS)
    change(rows, gaps)
    diff = _compare(tmp_path, rows, gaps)
    assert len(diff.mismatches) == 1
    assert diff.mismatches[0].startswith(where)


class _FakeRun:
    returncode = 0

    def communicate(self):
        return "", None


def test_only_and_grid_reach_both_runs(monkeypatch, capsys):
    """`--only` and `--grid` are passed to run_figures.py on both sides; the
    runs and the extraction are stubbed, so no process is started."""
    argvs = []
    monkeypatch.setattr(artifact_diff, "_extract_src", lambda rev, dest: None)
    monkeypatch.setattr(artifact_diff.subprocess, "Popen",
                        lambda argv, **kw: argvs.append(argv) or _FakeRun())
    monkeypatch.setattr(artifact_diff, "compare_dirs", lambda a, b: artifact_diff.Diff())
    assert artifact_diff.main(["HEAD~1", "--only", "fig10", "--grid", "512"]) == 0
    assert len(argvs) == 2
    for argv in argvs:
        assert argv[-4:] == ["--only", "fig10", "--grid", "512"]
    assert artifact_diff.main(["HEAD~1"]) == 0
    assert all(argv[-2] == "--out-dir" for argv in argvs[2:])
    assert "PASS" in capsys.readouterr().out


def test_run_figures_passes_grid_to_the_cli(monkeypatch, tmp_path):
    path = _PATH.parent / "run_figures.py"
    spec = importlib.util.spec_from_file_location("run_figures", path)
    run_figures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_figures)
    calls = []
    monkeypatch.setattr(run_figures, "cli_main", lambda argv: calls.append(argv) or 0)
    fixtures = _PATH.parent.parent / "fixtures"
    assert run_figures.main(["--fixtures", str(fixtures), "--out-dir", str(tmp_path),
                             "--only", "fig10", "--grid", "512"]) == 0
    assert len(calls) == 1 and calls[0][0] == "invariant"
    assert calls[0][-2:] == ["--grid", "512"]


def test_byte_identity_is_printed_per_artifact(monkeypatch, capsys, tmp_path):
    rows = copy.deepcopy(CSV_ROWS)
    rows[1][3] = "0.25000000000000006"
    diff = _compare(tmp_path, rows)
    monkeypatch.setattr(artifact_diff, "_extract_src", lambda rev, dest: None)
    monkeypatch.setattr(artifact_diff.subprocess, "Popen", lambda argv, **kw: _FakeRun())
    monkeypatch.setattr(artifact_diff, "compare_dirs", lambda a, b: diff)
    assert artifact_diff.main(["HEAD~1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].split() == ["fig1_bands.csv", "bytes", "differ"]
    assert lines[2].split() == ["fig2_gaps.json", "bytes", "identical"]
    assert lines[-1].endswith("PASS")



def test_identical_requires_identical_bytes(monkeypatch, capsys, tmp_path):
    """--identical fails a run whose floats stay within tolerance but whose
    bytes differ, and passes one whose bytes are all identical."""
    rows = copy.deepcopy(CSV_ROWS)
    rows[1][3] = "0.25000000000000006"
    (tmp_path / "moved").mkdir()
    (tmp_path / "same").mkdir()
    diffs = {"moved": _compare(tmp_path / "moved", rows), "same": _compare(tmp_path / "same")}
    monkeypatch.setattr(artifact_diff, "_extract_src", lambda rev, dest: None)
    monkeypatch.setattr(artifact_diff.subprocess, "Popen", lambda argv, **kw: _FakeRun())
    for case, identical_rc in (("moved", 1), ("same", 0)):
        monkeypatch.setattr(artifact_diff, "compare_dirs", lambda a, b: diffs[case])
        assert artifact_diff.main(["HEAD~1"]) == 0
        assert artifact_diff.main(["HEAD~1", "--identical"]) == identical_rc
    out = capsys.readouterr().out.splitlines()
    assert "bytes differ in 1 of 2 artifacts: FAIL (--identical)" in out
    assert out[-1].endswith("PASS")
