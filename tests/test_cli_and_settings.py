"""Tests for the CLI entry point and evaluation-scale settings."""

import pytest

from repro.__main__ import main
from repro.experiments.settings import (
    DEFAULT_SETTINGS,
    PAPER_SETTINGS,
    QUICK_SETTINGS,
    active_settings,
    cache_enabled,
    env_flag,
)


class TestSettings:
    def test_paper_scale_matches_paper(self):
        assert PAPER_SETTINGS.duration_us == 50_000_000
        assert len(PAPER_SETTINGS.seeds) == 30
        assert PAPER_SETTINGS.pm_values[-1] == 100.0
        assert PAPER_SETTINGS.network_sizes == (1, 2, 4, 8, 16, 32, 64)
        assert PAPER_SETTINGS.random_topologies == 30
        assert PAPER_SETTINGS.random_nodes == 40
        assert PAPER_SETTINGS.random_misbehaving == 5
        assert PAPER_SETTINGS.fig8_bin_us == 1_000_000

    def test_scales_ordered(self):
        assert (QUICK_SETTINGS.duration_us < DEFAULT_SETTINGS.duration_us
                < PAPER_SETTINGS.duration_us)
        assert len(QUICK_SETTINGS.seeds) <= len(DEFAULT_SETTINGS.seeds)

    def test_active_settings_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        monkeypatch.delenv("REPRO_QUICK", raising=False)
        assert active_settings() is DEFAULT_SETTINGS
        monkeypatch.setenv("REPRO_FULL", "1")
        assert active_settings() is PAPER_SETTINGS
        monkeypatch.setenv("REPRO_QUICK", "1")  # quick wins over full
        assert active_settings() is QUICK_SETTINGS

    def test_duration_seconds_property(self):
        assert PAPER_SETTINGS.duration_s == 50.0

    def test_env_flag_semantics(self, monkeypatch):
        monkeypatch.delenv("REPRO_X", raising=False)
        assert not env_flag("REPRO_X")
        monkeypatch.setenv("REPRO_X", "0")
        assert not env_flag("REPRO_X")
        monkeypatch.setenv("REPRO_X", "1")
        assert env_flag("REPRO_X")

    def test_cache_flag(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        assert cache_enabled()
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert not cache_enabled()


class TestCli:
    def test_run_subcommand(self, capsys):
        code = main([
            "run", "--pm", "100", "--seconds", "0.5", "--senders", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "MSB (cheater)" in out
        assert "correct diagnosis" in out

    def test_run_honest_omits_msb(self, capsys):
        code = main(["run", "--seconds", "0.3", "--senders", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "MSB" not in out
        assert "fairness" in out

    def test_run_80211(self, capsys):
        code = main([
            "run", "--protocol", "802.11", "--pm", "50",
            "--seconds", "0.3", "--senders", "2",
        ])
        assert code == 0

    def test_figures_unknown_id(self, capsys):
        code = main(["figures", "figZZ"])
        assert code == 2
        assert "unknown" in capsys.readouterr().err

    def test_figures_unknown_id_lists_available(self, capsys):
        from repro.experiments import FIGURES

        code = main(["figures", "figZZ", "fig4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "figZZ" in err
        for fid in FIGURES:
            assert fid in err
        assert "detectors" in err

    def test_run_with_detector(self, capsys):
        code = main([
            "run", "--pm", "100", "--seconds", "0.5", "--senders", "4",
            "--detector", "cusum:h=2.0,k=0.25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "detection rate" in out
        assert "time to detection" in out

    def test_run_bad_detector_spec(self, capsys):
        code = main([
            "run", "--seconds", "0.3", "--detector", "nope",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad --detector spec" in err
        assert "window" in err  # lists registered names

    def test_run_detector_requires_correct_protocol(self, capsys):
        code = main([
            "run", "--protocol", "802.11", "--seconds", "0.3",
            "--detector", "cusum",
        ])
        assert code == 2
        assert "correct" in capsys.readouterr().err

    def test_theory_subcommand(self, capsys):
        code = main(["theory", "--sizes", "2", "--seconds", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Bianchi" in out

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_cache_inspect(self, tmp_path, capsys):
        code = main(["cache", "--dir", str(tmp_path / "runs")])
        assert code == 0
        out = capsys.readouterr().out
        assert "entries:      0" in out
        assert "code version:" in out

    def test_cache_clear(self, tmp_path, capsys):
        from repro.experiments.cache import RunCache
        from repro.experiments.runner import run_seeds
        from repro.experiments.scenarios import ScenarioConfig
        from repro.net.topology import circle_topology

        cache = RunCache(tmp_path / "runs")
        cfg = ScenarioConfig(
            topology=circle_topology(2), duration_us=300_000, seed=1
        )
        cache.put(cfg, run_seeds(cfg, (1,), workers=1)[0])
        code = main(["cache", "--clear", "--dir", str(tmp_path / "runs")])
        assert code == 0
        assert "removed 1 cached run(s)" in capsys.readouterr().out
        assert cache.entries() == []
