"""``scripts/bench_trajectory.py``: one headline value per BENCH file."""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def trajectory():
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", ROOT / "scripts" / "bench_trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rows(table: str) -> dict[str, list[str]]:
    """bench name → cells of its table row."""
    rows = {}
    for line in table.splitlines()[6:]:
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0]] = cells
    return rows


def test_checked_in_benches_show_their_headline(trajectory):
    checked_in = sorted(ROOT.glob("BENCH_*.json"))
    assert checked_in
    rows = _rows(trajectory.render(ROOT))
    assert len(rows) == len(checked_in)
    for path in checked_in:
        payload = json.loads(path.read_text())
        name = path.stem.removeprefix("BENCH_")
        assert name in trajectory.HEADLINES, f"{path.name}: no headline"
        cell = rows[name][4]
        assert cell == trajectory.headline(name, payload) != "-"


def test_headlines_carry_the_recorded_values(trajectory):
    delta = json.loads((ROOT / "BENCH_delta_routing.json").read_text())
    cell = trajectory.headline("delta_routing", delta)
    assert f"{delta['measured_ratio']:.3f}" in cell
    assert f"{delta['full']['host_seconds']:.2f}" in cell
    lifecycle = json.loads(
        (ROOT / "BENCH_storage_lifecycle.json").read_text())
    assert trajectory.headline("storage_lifecycle", lifecycle) == \
        f"baseline_over_peak {lifecycle['baseline_over_peak']:.2f}x"
    scaling = json.loads((ROOT / "BENCH_portal_scaling.json").read_text())
    speedup = scaling["by_portals"]["4"]["speedup_vs_1_portal"]
    assert f"4 portals {speedup:.2f}x" in \
        trajectory.headline("portal_scaling", scaling)


def test_unknown_and_malformed_files_show_a_dash(trajectory, tmp_path):
    (tmp_path / "BENCH_novel.json").write_text(json.dumps({"x": 1}))
    (tmp_path / "BENCH_delta_routing.json").write_text(
        json.dumps({"delta": {}}))
    (tmp_path / "BENCH_broken.json").write_text("{not json")
    rows = _rows(trajectory.render(tmp_path))
    assert rows["novel"][4] == "-"
    assert rows["delta_routing"][4] == "-"
    assert rows["BENCH_broken.json"][4] == "-"
