from __future__ import annotations

import re

import pytest

from setinfo import EmptySelection, run_simulation, write_svg

from test_trajectory import small_config


def bundle(agent: str, **series: list[float]) -> dict[str, dict[str, list[float]]]:
    return {agent: series}


class TestWriteSvg:
    def test_multi_agent_figure(self, tmp_path):
        results = {name: r.rolling for name, r in run_simulation(small_config()).items()}
        path = tmp_path / "mi.svg"
        write_svg(results, "i_xy,i_yz,i_xz", path, title="pairwise MI")
        body = path.read_text()
        assert body.startswith("<svg")
        assert body.count("<polyline") == 6  # 2 agents x 3 series
        assert "random: i_xy" in body
        assert "structured: i_xz" in body
        assert "step k" in body and "MI (nats)" in body
        assert "http" not in body.replace("http://www.w3.org/2000/svg", "")

    def test_empty_selection_rejected(self, tmp_path):
        with pytest.raises(EmptySelection):
            write_svg(bundle("a", i_xy=[1.0]), "", tmp_path / "x.svg")

    def test_unknown_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_svg(bundle("a", i_xy=[1.0]), "i_zz", tmp_path / "x.svg")

    def test_no_results_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_svg({}, "i_xy", tmp_path / "x.svg")

    def test_single_point_series_renders_marker(self, tmp_path):
        path = tmp_path / "dot.svg"
        write_svg(bundle("a", i_xy=[0.25]), "i_xy", path)
        body = path.read_text()
        assert "<circle" in body
        assert "<polyline" not in body

    def test_flat_series_handled(self, tmp_path):
        path = tmp_path / "flat.svg"
        write_svg(bundle("a", i_xy=[1.0, 1.0, 1.0]), "i_xy", path)
        assert "<polyline" in path.read_text()

    @pytest.mark.parametrize(
        ("points", "labels"),
        [(1, ["1"]), (2, ["1", "2"]), (3, ["1", "2", "3"]), (100, ["1", "26", "51", "75", "100"])],
    )
    def test_step_ticks_appear_once_and_count_from_one(self, tmp_path, points, labels):
        # A 3-point series used to be labelled 0, 0, 1, 2, 2.
        path = tmp_path / "steps.svg"
        write_svg(bundle("a", i_xy=[0.1 * i for i in range(points)]), "i_xy", path)
        ticks = re.findall(r'<text x="([\d.]+)" y="\d+" text-anchor="middle">(\d+)</text>', path.read_text())
        assert [label for _, label in ticks] == labels
        assert len({x for x, _ in ticks}) == len(labels)
