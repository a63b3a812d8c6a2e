"""End-to-end flow integration on a miniature configuration."""

import pytest

from repro.flow.experiment import FlowConfig, TuningFlow
from repro.netlist.generators.microcontroller import MicrocontrollerParams


@pytest.fixture(scope="module")
def tiny_flow():
    """A miniature flow: small design, few samples — seconds, not minutes."""
    config = FlowConfig(
        design=MicrocontrollerParams(
            width=12,
            regfile_bits=2,
            mult_width=6,
            n_timers=1,
            timer_width=6,
            control_gates=250,
            status_width=12,
            n_uarts=1,
            gpio_width=4,
        ),
        n_samples=12,
    )
    return TuningFlow(config)


class TestFlowStages:
    def test_catalog_is_full_appendix_a(self, tiny_flow):
        assert len(tiny_flow.specs) == 304

    def test_statistical_library_cached(self, tiny_flow):
        assert tiny_flow.statistical_library is tiny_flow.statistical_library

    def test_design_build_is_fresh_each_time(self, tiny_flow):
        a = tiny_flow.build_design()
        b = tiny_flow.build_design()
        assert a is not b
        assert a.stats() == b.stats()

    def test_tuning_memoized(self, tiny_flow):
        a = tiny_flow.tuning("sigma_ceiling", 0.03)
        b = tiny_flow.tuning("sigma_ceiling", 0.03)
        assert a is b

    def test_baseline_run(self, tiny_flow):
        run = tiny_flow.baseline(4.0)
        assert run.met
        assert run.area > 0
        assert run.design_sigma > 0
        assert len(run.paths) == run.stats.n_paths
        assert tiny_flow.baseline(4.0) is run  # memoized

    def test_tuned_run_and_comparison(self, tiny_flow):
        comparison = tiny_flow.compare(4.0, "sigma_ceiling", 0.03)
        assert comparison.baseline_area > 0
        assert comparison.tuned_met
        # the restriction must change the outcome measurably
        assert comparison.tuned_sigma != comparison.baseline_sigma

    def test_sweep_method(self, tiny_flow):
        comparisons = tiny_flow.sweep_method(4.0, "sigma_ceiling",
                                             parameters=[0.04, 0.02])
        assert [c.parameter for c in comparisons] == [0.04, 0.02]

    def test_depth_histogram_counts_paths(self, tiny_flow):
        run = tiny_flow.baseline(4.0)
        histogram = run.depth_histogram()
        assert sum(histogram.values()) == len(run.paths)


class TestConfigs:
    def test_paper_config_scale(self):
        config = FlowConfig.paper()
        assert config.design.width == 32
        assert config.n_samples == 50

    def test_quick_config_smaller(self):
        config = FlowConfig.quick()
        assert config.design.width < 32
        assert config.n_samples < 50

    def test_environment_selection(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "paper")
        assert FlowConfig.from_env().design.width == 32
        monkeypatch.setenv("REPRO_SCALE", "quick")
        assert FlowConfig.from_env().design.width < 32
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            FlowConfig.from_env()


class TestPathMonteCarlo:
    def test_replay_matches_sta_roughly(self, tiny_flow):
        """The MC replay's nominal mean must sit near the STA arrival."""
        from repro.flow.pathmc import PathMonteCarlo, pick_paths_by_depth

        run = tiny_flow.baseline(4.0)
        path = pick_paths_by_depth(run.paths, targets=(8,))[0]
        mc = PathMonteCarlo(tiny_flow.specs)
        result = mc.sample_path(path, n_samples=60, seed=1)
        assert result.mean == pytest.approx(path.arrival, rel=0.15)

    def test_local_only_less_spread_than_total(self, tiny_flow):
        from repro.flow.pathmc import PathMonteCarlo, pick_paths_by_depth

        run = tiny_flow.baseline(4.0)
        path = pick_paths_by_depth(run.paths, targets=(10,))[0]
        mc = PathMonteCarlo(tiny_flow.specs)
        local = mc.sample_path(path, n_samples=120, seed=2)
        total = mc.sample_path(path, n_samples=120, seed=2, include_global=True)
        assert local.sigma < total.sigma

    def test_corner_scales_mean(self, tiny_flow):
        from repro.flow.pathmc import PathMonteCarlo, pick_paths_by_depth
        from repro.variation.process import fast_corner, slow_corner

        run = tiny_flow.baseline(4.0)
        path = pick_paths_by_depth(run.paths, targets=(10,))[0]
        mc = PathMonteCarlo(tiny_flow.specs)
        fast = mc.sample_path(path, n_samples=60, seed=3, corner=fast_corner())
        slow = mc.sample_path(path, n_samples=60, seed=3, corner=slow_corner())
        assert fast.mean < slow.mean

    def test_pick_paths_by_depth(self, tiny_flow):
        from repro.flow.pathmc import pick_paths_by_depth

        run = tiny_flow.baseline(4.0)
        chosen = pick_paths_by_depth(run.paths, targets=(2, 8, 14))
        depths = [p.depth for p in chosen]
        assert depths[0] <= depths[1] <= depths[2]
