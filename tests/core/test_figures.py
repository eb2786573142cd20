"""Tests for the figure reproductions (shape assertions per figure)."""

import pytest

from repro.core.figures import FIGURES, run_figure
from repro.errors import ConfigurationError

SEED = 42
FAST = {"repetitions": 3}


@pytest.fixture(scope="module")
def figures():
    """Compute each figure once per module with small repetition counts."""
    cache = {}

    def get(figure_id, **kwargs):
        key = (figure_id, tuple(sorted(kwargs.items())))
        if key not in cache:
            cache[key] = run_figure(figure_id, SEED, **kwargs)
        return cache[key]

    return get


class TestRegistry:
    def test_all_paper_figures_present(self):
        ids = list(FIGURES)
        for expected in [f"fig{n:02d}" for n in range(5, 19) if n != 5] + ["fig05", "cpu-prime"]:
            assert expected in ids

    def test_unknown_figure_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown figure 'fig99'"):
            run_figure("fig99", SEED)


class TestFig05(object):
    def test_all_platforms_around_65s_except_osv(self, figures):
        figure = figures("fig05", **FAST)
        for row in figure.rows:
            if row.platform == "osv":
                assert row.summary.mean > 85_000
            else:
                assert 55_000 < row.summary.mean < 78_000

    def test_prime_control_flat(self, figures):
        figure = figures("cpu-prime", **FAST)
        means = [r.summary.mean for r in figure.rows]
        assert (max(means) - min(means)) / max(means) < 0.05


class TestFig06(object):
    def test_series_monotone_in_buffer_size(self, figures):
        figure = figures("fig06", **FAST)
        for series in figure.series:
            assert series.y_values[-1] > series.y_values[0]

    def test_firecracker_family_highest(self, figures):
        figure = figures("fig06", **FAST)
        last = {s.platform: s.y_values[-1] for s in figure.series}
        # osv-fc inherits Firecracker's penalty (Finding 5), so the two
        # Firecracker-hosted configurations top the chart together.
        worst_two = sorted(last, key=last.get, reverse=True)[:2]
        assert set(worst_two) == {"firecracker", "osv-fc"}

    def test_hugepage_variant_excludes_kata(self):
        figure = run_figure("fig06", SEED, repetitions=2, huge_pages=True)
        platforms = [s.platform for s in figure.series]
        assert "kata" not in platforms
        assert any("kata" in note for note in figure.notes)


class TestFig07Fig08(object):
    def test_fig07_hypervisors_down_kata_fine(self, figures):
        figure = figures("fig07", **FAST)
        native = figure.row("native").summary.mean
        assert figure.row("qemu").summary.mean < 0.92 * native
        assert figure.row("firecracker").summary.mean < 0.88 * native
        assert figure.row("kata").summary.mean > 0.93 * native

    def test_fig07_reports_sse2(self, figures):
        figure = figures("fig07", **FAST)
        assert "sse2_mean" in figure.row("native").extra

    def test_fig08_matches_fig07_ranking(self, figures):
        fig7 = figures("fig07", **FAST)
        fig8 = figures("fig08", **FAST)
        for figure in (fig7, fig8):
            slowest_two = figure.ranking(ascending=True)[:2]
            assert set(slowest_two) == {"firecracker", "osv-fc"}


class TestFig09Fig10(object):
    def test_fig09_exclusions_noted(self, figures):
        figure = figures("fig09", **FAST)
        platforms = [row.platform for row in figure.rows]
        assert "firecracker" not in platforms
        assert "osv" not in platforms
        assert any("excluded" in note.lower() for note in figure.notes)

    def test_fig09_secure_containers_halved(self, figures):
        figure = figures("fig09", **FAST)
        native = figure.row("native").summary.mean
        assert figure.row("gvisor").summary.mean < 0.62 * native
        assert figure.row("kata").summary.mean < 0.62 * native

    def test_fig09_write_throughput_reported(self, figures):
        figure = figures("fig09", **FAST)
        row = figure.row("native")
        assert row.extra["write_mean"] < row.summary.mean  # writes slower

    def test_fig10_gvisor_excluded(self, figures):
        figure = figures("fig10", **FAST)
        assert "gvisor" not in [row.platform for row in figure.rows]

    def test_fig10_kata_worst(self, figures):
        figure = figures("fig10", **FAST)
        assert figure.ranking(ascending=False)[0] == "kata"


class TestFig11Fig12(object):
    def test_fig11_shape(self, figures):
        figure = figures("fig11")
        native = figure.row("native").summary.mean
        assert 35.5 < native < 39.0
        assert figure.row("osv").summary.mean > 0.95 * native
        assert figure.row("gvisor").summary.mean < 0.15 * native
        for row in figure.rows:
            if row.platform != "native":
                assert row.summary.mean < native * 1.01

    def test_fig11_reports_max(self, figures):
        figure = figures("fig11")
        row = figure.row("native")
        assert row.extra["max"] >= row.summary.mean

    def test_fig12_bridges_group_first(self, figures):
        figure = figures("fig12")
        ranking = figure.ranking(ascending=True)
        assert ranking[0] == "native"
        assert set(ranking[1:4]) <= {"docker", "lxc", "kata", "osv"}
        assert ranking[-1] == "gvisor"


class TestStartupFigures(object):
    def test_fig13_rows_and_cdfs(self, figures):
        figure = figures("fig13", startups=40)
        assert figure.row("docker-oci").summary.mean < figure.row("docker").summary.mean
        for series in figure.series:
            assert series.y_values[-1] == pytest.approx(1.0)

    def test_fig14_ordering(self, figures):
        figure = figures("fig14", startups=40)
        ranking = figure.ranking(ascending=True)
        assert ranking[0] == "cloud-hypervisor"
        assert ranking[-1] == "qemu-microvm"
        assert ranking.index("firecracker") > ranking.index("qemu")

    def test_fig15_two_methods_per_platform(self, figures):
        figure = figures("fig15", startups=40)
        assert len(figure.rows) == 6  # 3 platforms x 2 methods
        e2e = figure.row("osv-fc:end-to-end").summary.mean
        grep = figure.row("osv-fc:stdout-grep").summary.mean
        assert grep < e2e < 1.15 * grep


class TestApplicationFigures(object):
    def test_fig16_shape(self, figures):
        figure = figures("fig16", repetitions=2)
        ranking = figure.ranking(ascending=False)
        assert ranking[-1] == "gvisor"
        assert figure.row("kata").summary.mean < figure.row("docker").summary.mean

    def test_fig17_series_shapes(self, figures):
        figure = figures("fig17", repetitions=2)
        docker = figure.series_for("docker")
        best = max(range(len(docker.y_values)), key=lambda i: docker.y_values[i])
        assert 20 <= docker.x_values[best] <= 70
        osv = figure.series_for("osv")
        assert max(osv.y_values) < 0.4 * max(docker.y_values)

    def test_fig18_deterministic_and_ordered(self, figures):
        figure = figures("fig18")
        again = run_figure("fig18", SEED)
        assert [r.summary.mean for r in figure.rows] == [
            r.summary.mean for r in again.rows
        ]
        assert figure.ranking(ascending=False)[0] == "firecracker"
        assert figure.ranking(ascending=True)[0] == "osv"

    def test_fig18_reports_weighted_score(self, figures):
        figure = figures("fig18")
        assert figure.row("qemu").extra["weighted_score"] > 0
