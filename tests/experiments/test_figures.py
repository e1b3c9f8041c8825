"""Tests for the Figure 4 campaign's panels and ASCII rendering."""

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.paper import artifact, figure4_spec
from repro.experiments.figures import render_figure4, render_series
from repro.platform.config import PlatformConfig


class TestRenderSeries:
    def test_contains_title_and_extremes(self):
        text = render_series(
            [10.0, 20.0, 30.0], [1, 5, 3], title="demo", height=4, width=12
        )
        assert "demo" in text
        assert "5.0" in text
        assert "1.0" in text

    def test_marker_per_column(self):
        text = render_series([10.0, 20.0], [2, 2], height=3, width=8)
        assert text.count("*") == 8

    def test_empty_series(self):
        assert "empty" in render_series([], [], title="x")

    def test_flat_series_no_crash(self):
        text = render_series([1.0, 2.0, 3.0], [7, 7, 7], height=3, width=6)
        assert "*" in text


class TestFigure4:
    @pytest.fixture(scope="class")
    def data(self):
        spec = figure4_spec(
            seed=3, config=PlatformConfig.small(), faults=(2,),
            models=("none", "ffw"),
        )
        return artifact(run_campaign(spec))

    def test_structure(self, data):
        assert set(data) == {2}
        assert set(data[2]) == {"none", "foraging_for_work"}

    def test_series_kept(self, data):
        result = data[2]["none"]
        assert result.series is not None
        assert len(result.series) > 0

    def test_faults_injected(self, data):
        assert data[2]["none"].faults == 2

    def test_render_figure4(self, data):
        text = render_figure4(data)
        assert "[2 faults]" in text
        assert "census per task" in text
        assert "active_nodes" in text
