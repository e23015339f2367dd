"""Golden pins of every figure's rendered output.

Each figure id is generated at a tiny :class:`EvalSettings` scale and
pinned by the sha256 of its JSON (:func:`to_json`) and of its table
(:func:`render_table`), so any change to a figure's values, series
order, error bars, failure marks or ``meta`` moves a pin.  Three cases
are pinned:

* the in-memory figures, all 11 ids generated in one batch;
* the same figures when every run of each point's second seed comes
  back as a :class:`FailedRun` (degraded points and ``FAILED`` cells);
* the journal-driven figures, built by :func:`figure_from_dataset`
  from small campaigns run through the orchestrator.

A refactor of the figure pipeline that claims to be
behaviour-preserving must leave every pin as it is.
"""

import hashlib

import pytest

from repro.experiments.campaign import (
    figure_from_dataset,
    load_dataset,
    parse_campaign,
    run_campaign,
)
from repro.experiments.executor import ExperimentExecutor, FailedRun
from repro.experiments.figures import FIGURES, generate_figures
from repro.experiments.report import render_table, to_json
from repro.experiments.settings import EvalSettings

TINY = EvalSettings(
    duration_us=50_000,
    seeds=(1, 2),
    pm_values=(0.0, 60.0),
    network_sizes=(1, 4),
    random_topologies=2,
    random_nodes=10,
    random_misbehaving=2,
    fault_loss_rates=(0.0, 0.3),
)

#: Small campaigns whose journals feed each journal-driven figure.
CAMPAIGNS = {
    "fig4": "scenario=circle:8|circle:8+interferers; pm=0|60; "
            "seeds=1-2; seconds=0.05",
    "fig5": "scenario=circle:8; protocol=802.11|correct; pm=0|60; "
            "seeds=1-2; seconds=0.05",
    "fig6": "scenario=circle:1|circle:4|circle:1+interferers"
            "|circle:4+interferers; protocol=802.11|correct; pm=0; "
            "seeds=1-2; seconds=0.05",
    "fig9a": "scenario=random:10/2; pm=0|60; seeds=1000-1001; seconds=0.05",
    "detectors": "scenario=circle:8; pm=0|60; detector=-|cusum|estimator; "
                 "seeds=1-2; seconds=0.05",
}
CAMPAIGNS["fig7"] = CAMPAIGNS["fig6"]

#: (sha256 of to_json, sha256 of render_table), first 16 hex digits.
IN_MEMORY_PINS = {
    "fig4": ("3f64d8c0d574eea1", "0557bdd130f09df8"),
    "fig5": ("b6388b623410ca26", "69fbe9c509ada697"),
    "fig6": ("5a1c0850b2d32ba2", "33253441a7775645"),
    "fig7": ("0f3ccbe44e66b293", "65271457c16c430b"),
    "fig8": ("f0fb5aea4fceb42f", "2b812506dd50e10c"),
    "fig9a": ("c8af6f647faddc1c", "7b2fd71f7c4df4c2"),
    "fig9b": ("945293299ac0f73f", "d89dbcd0ed866016"),
    "intro": ("1203a94ffb6ebfe7", "3086a1d408fb73c1"),
    "delay": ("3c8a3e8be7bcfb8d", "fd308299a9d69921"),
    "faults": ("7b8a7a053f89bf77", "df4d88c9ac7fb746"),
    "detectors": ("4d94e6b8360a3473", "8d05e236dc536e1b"),
}

DEGRADED_PINS = {
    "fig4": ("5ba6c04e979ffe7b", "7761774965f109e2"),
    "fig5": ("f0ec081f274b4982", "bbd098f5b4a57af5"),
    "fig6": ("46ee0a11fad4b654", "1e8d71d67efdb751"),
    "fig7": ("27e76523414324df", "ce22de3c4f752cea"),
    "fig8": ("8d2e7e8e357db533", "ddda1fc260199ce6"),
    "fig9a": ("cb462a1637b407e2", "6652ae898acc0be9"),
    "fig9b": ("de29c0572057c892", "efacfdf4d01ca285"),
    "intro": ("21edd271089fbbf4", "9655c9c707fd3e94"),
    "delay": ("9b18bc07e3045305", "7ab8bb9610083fe5"),
    "faults": ("6fed13ff33faa77d", "e37ffc11a04d16c5"),
    "detectors": ("088c551d4e98295a", "88ca846fc72568b2"),
}

JOURNAL_PINS = {
    "fig4": ("a456c50c24fdb484", "76993d6032f75b7d"),
    "fig5": ("6a602ffcf0bc0093", "b9f11ee936d18953"),
    "fig6": ("18fbe3fdd7230fcb", "b1b93257bbb7ed07"),
    "fig7": ("6dfe32391ada7168", "f2ea4b7ab1b209ef"),
    # random:N/M designates its cheaters at PM 0 too, so the PM 0 cells
    # place the same network as the PM 60 cells of each seed (PM 0
    # misdiagnosis 9.5238% -> 14.5833%, the in-memory fig9a's value).
    "fig9a": ("5ac29e2702a4b20c", "f26f32cc3c2aab30"),
    "detectors": ("0d20568dae17cf3b", "d848e50c1fccf478"),
}


def pins(figures):
    return {
        fid: tuple(
            hashlib.sha256(text.encode()).hexdigest()[:16]
            for text in (to_json(fig), render_table(fig))
        )
        for fid, fig in figures.items()
    }


#: The second seed of every sweep point: circle figures run seeds 1-2,
#: the random-topology figures placements 1000-1001.
FAILING_SEEDS = (2, 1001)


class FailSecondSeed(ExperimentExecutor):
    """Runs every config except the second seed's, which come back failed."""

    def run(self, configs):
        configs = list(configs)
        keep = [c for c in configs if c.seed not in FAILING_SEEDS]
        done = iter(super().run(keep) if keep else [])
        return [
            FailedRun(config=c, error="synthetic", attempts=1)
            if c.seed in FAILING_SEEDS else next(done)
            for c in configs
        ]


def test_in_memory_pins():
    with ExperimentExecutor(workers=1) as executor:
        figures = generate_figures(list(FIGURES), TINY, executor=executor)
    assert list(figures) == list(FIGURES)
    assert pins(figures) == IN_MEMORY_PINS


def test_degraded_pins():
    with FailSecondSeed(workers=1, on_failure="flag") as executor:
        figures = generate_figures(list(FIGURES), TINY, executor=executor)
    assert all(fig.has_failures for fig in figures.values())
    assert pins(figures) == DEGRADED_PINS


def test_journal_pins(tmp_path):
    datasets = {}
    figures = {}
    with ExperimentExecutor(workers=1, on_failure="flag") as executor:
        for fid, text in CAMPAIGNS.items():
            if text not in datasets:
                out = tmp_path / f"{fid}.out"
                report = run_campaign(parse_campaign(text), out,
                                      executor=executor)
                assert report.exit_code == 0
                datasets[text] = load_dataset(out)
            figures[fid] = figure_from_dataset(datasets[text], fid)
    assert pins(figures) == JOURNAL_PINS
