"""One generator per table/figure of the paper's evaluation.

Each ``figureN`` function runs the corresponding experiment at the
requested :class:`~repro.experiments.settings.EvalSettings` scale and
returns a :class:`FigureResult`: named series of (x, y) points that
mirror the curves in the paper.  ``repro.experiments.report`` renders
them as ASCII tables; the benchmark suite regenerates each figure and
asserts its qualitative shape.

Execution model
---------------
:data:`FIGURES` maps every figure id to a *planner*: a generator that
first contributes all of its ``ScenarioConfig`` tasks to a shared
:class:`~repro.experiments.executor.TaskBatch`, then ``yield``\\ s once
(the execution barrier), and finally reduces the results into the
figure's series.  :func:`generate_figures` flattens *several* figures
into one global batch so a single persistent worker pool sees the
entire (figure x sweep-point x seed) grid at once — no per-point pool
churn and no idle workers at sweep-point boundaries; each ``figureN``
function is that call for one id.  Because every run is fully
determined by its config, the batched schedule produces bit-identical
figures to sequential execution.

The seed-averaged figures — fig4, fig5, fig6, fig7, fig9a and the
detectors' operating points — are journal-less campaigns: their
planner expands the figure's campaign grid
(:func:`~repro.experiments.campaign.analysis.figure_spec`), runs the
cells, turns each outcome into the row a campaign journal would hold
(:func:`~repro.experiments.campaign.analysis.dataset_from_runs`) and
hands the rows to the figure's one builder
(:func:`~repro.experiments.campaign.analysis.figure_from_dataset`), the
same builder that reports a campaign from its journal.  fig8, fig9b,
intro, delay, faults and the detectors' time-to-detection series read
per-run state a journal does not record, so they reduce their
``RunResult``\\ s here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.sender_policy import ShrunkenWindowPolicy
from repro.experiments.executor import ExperimentExecutor, TaskBatch
from repro.experiments.scenarios import (
    PROTOCOL_80211,
    PROTOCOL_CORRECT,
    RunResult,
    ScenarioConfig,
)
from repro.experiments.settings import DEFAULT_SETTINGS, EvalSettings
from repro.faults import FaultProfile, FrameLossFault
from repro.metrics.stats import elementwise_mean, mean, summarize
from repro.net.topology import circle_topology, random_topology

#: Sender the paper designates as misbehaving in the circle topology.
MISBEHAVING_NODE = 3


@dataclass
class FigureResult:
    """Named series reproducing one figure.

    ``series`` maps a curve name (e.g. ``"CORRECT - MSB"``) to a list
    of (x, y) pairs; ``errors`` optionally holds the 95% CI half-width
    across seeds for the same (series, x).  ``meta`` carries free-form
    annotations such as the scale the figure was generated at.

    ``failed_points`` records sweep points whose runs (some or all)
    came back as :class:`~repro.experiments.executor.FailedRun` under
    the executor's ``on_failure="flag"`` mode: a point that still has
    surviving seeds is *degraded* (rendered with a ``*``), one with no
    survivors is absent from ``series`` and rendered as ``FAILED``.
    ``None`` as the x marks a whole series as degraded.
    """

    figure_id: str
    title: str
    x_label: str
    y_label: str
    series: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    errors: Dict[str, List[Tuple[float, float]]] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)
    failed_points: Dict[str, List[Optional[float]]] = field(
        default_factory=dict
    )

    def add_point(
        self, series_name: str, x: float, y: float,
        error: Optional[float] = None,
    ) -> None:
        self.series.setdefault(series_name, []).append((x, y))
        if error is not None:
            self.errors.setdefault(series_name, []).append((x, error))

    def mark_failed(self, series_name: str, x: Optional[float] = None) -> None:
        """Record that runs behind (series, x) failed (None: whole series)."""
        self.failed_points.setdefault(series_name, []).append(x)

    def add_stat_point(
        self, series_name: str, x: float,
        values: Sequence[Optional[float]], scale: float = 1.0,
    ) -> None:
        """Add the across-seed mean of per-run values, with its 95% CI.

        ``None`` stands for a run that failed (a ``FailedRun``, or a
        dataset row that is not ok): it is dropped from the statistic
        and recorded on the figure, so the point is degraded when some
        seeds survive and omitted entirely when none do.
        """
        ok = [value for value in values if value is not None]
        if len(ok) < len(values):
            self.mark_failed(series_name, x)
        if not ok:
            return
        stats = summarize(ok)
        self.add_point(
            series_name, x, stats.mean * scale, error=stats.ci95 * scale
        )

    @property
    def has_failures(self) -> bool:
        """Whether any sweep point lost runs to execution failures."""
        return any(self.failed_points.values())

    def is_failed(self, series_name: str, x: float) -> bool:
        """Whether (series, x) lost *all* its runs (no y value exists)."""
        if x not in self.failed_points.get(series_name, ()):  # fast path
            return False
        return all(px != x for px, _ in self.series.get(series_name, ()))

    def error_at(self, series_name: str, x: float) -> Optional[float]:
        """The recorded CI half-width for one point, if any."""
        for px, err in self.errors.get(series_name, ()):  # pragma: no branch
            if px == x:
                return err
        return None

    def ys(self, series_name: str) -> List[float]:
        """The y values of one series, in x order."""
        return [y for _, y in sorted(self.series[series_name])]

    def xs(self, series_name: str) -> List[float]:
        """The x values of one series, sorted."""
        return sorted(x for x, _ in self.series[series_name])


def _scale_meta(
    settings: EvalSettings, seeds: Optional[int] = None
) -> Dict[str, object]:
    """The scale a figure ran at; ``seeds`` counts the runs averaged
    per point (the settings' seeds unless the figure averages others,
    like fig9's placements)."""
    return {
        "duration_s": settings.duration_s,
        "seeds": len(settings.seeds) if seeds is None else seeds,
    }


PROTOCOL_LABELS = ((PROTOCOL_80211, "802.11"), (PROTOCOL_CORRECT, "CORRECT"))


def _ok(results: Sequence[object]) -> List[RunResult]:
    """The actual results of a batch slice (drops FailedRun entries)."""
    return [r for r in results if isinstance(r, RunResult)]


def _avg(results: Sequence[RunResult], metric) -> float:
    return mean([metric(r) for r in _ok(results)])


def _values(results: Sequence[object], metric: str) -> List[Optional[float]]:
    """One metric per run (``None`` for a FailedRun placeholder)."""
    return [
        getattr(r, metric) if isinstance(r, RunResult) else None
        for r in results
    ]


def generate_figures(
    ids: Optional[Iterable[str]] = None,
    settings: EvalSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> Dict[str, FigureResult]:
    """Generate several figures from one globally flattened task grid.

    Every requested figure contributes its complete config list to a
    single :class:`TaskBatch` before anything runs, so the worker pool
    is saturated across figure boundaries.  Results are keyed by
    figure id and are bit-identical to calling each ``figureN``
    individually.
    """
    wanted = list(ids) if ids is not None else list(FIGURES)
    unknown = [fid for fid in wanted if fid not in FIGURES]
    if unknown:
        raise KeyError(f"unknown figure ids {unknown}; known: {list(FIGURES)}")
    batch = _FigureBatch()
    gens = [(fid, FIGURES[fid](settings, batch)) for fid in wanted]
    for _, gen in gens:
        next(gen)
    batch.execute(executor=executor, workers=workers)
    figures: Dict[str, FigureResult] = {}
    for fid, gen in gens:
        try:
            next(gen)
        except StopIteration as stop:
            figures[fid] = stop.value
        else:
            raise RuntimeError("figure planner yielded more than once")
    return figures


def _generate_one(
    figure_id: str,
    settings: EvalSettings,
    workers: Optional[int],
    executor: Optional[ExperimentExecutor],
) -> FigureResult:
    figures = generate_figures([figure_id], settings, workers, executor)
    return figures[figure_id]


# ----------------------------------------------------------------------
# Campaign-grid figures: 4, 5, 6, 7, 9a and the detectors' operating point
# ----------------------------------------------------------------------
@dataclass
class _Grid:
    """One campaign grid of a :func:`generate_figures` call: its cells,
    their batch handle, and the dataset reduced from them."""

    cells: list
    handle: object
    dataset: object = None


class _FigureBatch(TaskBatch):
    """The task batch of one :func:`generate_figures` call, plus the
    campaign grids its figures plan, by spec.  fig6 and fig7 read the
    same grid, so its cells join the batch once and their runs become
    one dataset that both figures are built from."""

    def __init__(self) -> None:
        super().__init__()
        self.grids: Dict[object, _Grid] = {}


def _grid_plan(figure_id: str, settings: EvalSettings, batch: _FigureBatch):
    """Plan a seed-averaged figure as a journal-less campaign.

    The cells go into the batch grouped by scenario variant, then
    protocol (each group in expansion order, seeds innermost): the
    order these sweeps have always been submitted in, which the
    sim-grid benchmark's outcome digest pins.  The figure's ``meta``
    is the dataset's: the grid's duration and its seeds per point
    (fig9a's placements).
    """
    from repro.experiments.campaign.analysis import (
        dataset_from_runs,
        figure_from_dataset,
        figure_spec,
    )
    from repro.experiments.campaign.spec import expand_cells

    spec = figure_spec(figure_id, settings)
    grid = batch.grids.get(spec)
    if grid is None:
        cells = sorted(expand_cells(spec), key=lambda cell: (
            cell.axis.interferers, spec.protocols.index(cell.protocol)
        ))
        grid = batch.grids[spec] = _Grid(
            cells, batch.add([cell.config for cell in cells])
        )
    yield
    if grid.dataset is None:
        grid.dataset = dataset_from_runs(spec, grid.cells, grid.handle.results)
    fig = figure_from_dataset(grid.dataset, figure_id)
    if figure_id == "detectors":
        _add_latency_series(fig, grid.cells, grid.handle.results)
    return fig


def _add_latency_series(fig: FigureResult, cells, results) -> None:
    """Each detector's time to detection of the cheater (PM > 0 only).

    A latency is per-run state the journal does not record, so it is
    reduced from the runs here: averaged over the seeds in which the
    misbehaving sender got flagged at all, so a sweep point where no
    seed flagged has no latency sample (the detection-% series already
    shows the miss).
    """
    runs: Dict[Tuple[str, float], List[RunResult]] = {}
    for cell, result in zip(cells, results):
        if cell.pm > 0 and isinstance(result, RunResult):
            runs.setdefault((cell.detector, cell.pm), []).append(result)
    latency: Dict[str, List[Tuple[float, float]]] = {}
    for (detector, pm), ok in runs.items():
        packets = [r.detection_latency_packets(MISBEHAVING_NODE) for r in ok]
        micros = [r.detection_latency_us(MISBEHAVING_NODE) for r in ok]
        for name, samples, per_unit in (
            (f"{detector} - TTD (pkts)", packets, 1.0),
            (f"{detector} - TTD (ms)", micros, 1000.0),
        ):
            flagged = [v for v in samples if v is not None]
            if flagged:
                latency.setdefault(name, []).append(
                    (pm, mean(flagged) / per_unit)
                )
    # Each detector's TTD series follow its own operating-point series.
    series: Dict[str, List[Tuple[float, float]]] = {}
    for detector in dict.fromkeys(cell.detector for cell in cells):
        for kind in ("detection %", "false alarm %", "TTD (pkts)", "TTD (ms)"):
            name = f"{detector} - {kind}"
            points = fig.series.get(name, latency.get(name))
            if points is not None:
                series[name] = points
    fig.series = series


def figure4(
    settings: EvalSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Correct-diagnosis and misdiagnosis percentages vs PM.

    Reproduces Figure 4: 8 senders around R, node 3 misbehaving with
    the swept PM, for both ZERO-FLOW and TWO-FLOW scenarios, under the
    CORRECT protocol.
    """
    return _generate_one("fig4", settings, workers, executor)


def figure5(
    settings: EvalSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """MSB and AVG throughput vs PM for both protocols (Figure 5)."""
    return _generate_one("fig5", settings, workers, executor)


def figure6(
    settings: EvalSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Average per-sender throughput vs network size (Figure 6)."""
    return _generate_one("fig6", settings, workers, executor)


def figure7(
    settings: EvalSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Jain's fairness index vs network size (Figure 7)."""
    return _generate_one("fig7", settings, workers, executor)


def figure9a(
    settings: EvalSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Diagnosis accuracy vs PM over random topologies (Figure 9a)."""
    return _generate_one("fig9a", settings, workers, executor)


def figure_detectors(
    settings: EvalSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Compare detectors' operating points and detection latency.

    For every detector spec in ``settings.detectors`` (by default the
    paper's W/THRESH window, a one-sided CUSUM, and a CWmin estimator
    — see :mod:`repro.detect`) the ZERO-FLOW circle is swept over PM.
    Four series per detector:

    * ``detection %`` / ``false alarm %`` — the per-observation
      operating point (an ROC-style table: detection on misbehaving
      senders' judged packets vs. false alarms on honest ones);
    * ``TTD (pkts)`` / ``TTD (ms)`` — mean time to detection of the
      misbehaving sender, in judged packets and in simulated time,
      over the seeds in which it was flagged at all (PM > 0 only).
    """
    return _generate_one("detectors", settings, workers, executor)


# ----------------------------------------------------------------------
# Figure 8 — responsiveness of the diagnosis scheme
# ----------------------------------------------------------------------
def _figure8_plan(settings: EvalSettings, batch: TaskBatch):
    fig = FigureResult(
        figure_id="fig8",
        title="Evaluation of responsiveness of misbehavior diagnosis scheme",
        x_label="time (s)",
        y_label="correct diagnosis %",
        meta=_scale_meta(settings),
    )
    points = []
    for pm in settings.fig8_pm_values:
        topo = circle_topology(
            8, misbehaving=(MISBEHAVING_NODE,), pm_percent=pm,
            with_interferers=True,
        )
        config = ScenarioConfig(
            topology=topo, protocol=PROTOCOL_CORRECT,
            duration_us=settings.duration_us,
        )
        points.append((pm, batch.add_seeds(config, settings.seeds)))
    yield
    for pm, handle in points:
        ok = _ok(handle.results)
        name = f"PM={pm:.0f}%"
        if len(ok) < len(handle.results):
            fig.mark_failed(name)
        if not ok:
            continue
        series = elementwise_mean([
            r.collector.diagnosis_time_series(
                settings.fig8_bin_us, settings.duration_us
            )
            for r in ok
        ])
        for i, value in enumerate(series):
            fig.add_point(name, i * settings.fig8_bin_us / 1_000_000, value)
    return fig


def figure8(
    settings: EvalSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Correct-diagnosis percentage over time, TWO-FLOW (Figure 8)."""
    return _generate_one("fig8", settings, workers, executor)


# ----------------------------------------------------------------------
# Figure 9b — throughput over random topologies
# ----------------------------------------------------------------------
def _figure9b_plan(settings: EvalSettings, batch: TaskBatch):
    from repro.experiments.campaign.analysis import figure_spec
    from repro.experiments.campaign.spec import expand_cells

    fig = FigureResult(
        figure_id="fig9b",
        title="Throughput, random topology (40 nodes, 1500m x 700m)",
        x_label="Percentage of Misbehavior (PM)",
        y_label="throughput (Kbps)",
        meta=_scale_meta(settings, seeds=settings.random_topologies),
    )
    # Which nodes a topology designates as misbehaving is a function
    # of the placement RNG only (PM just scales their cheating), so an
    # honest run of the same placements yields their fair share.
    designated = [
        set(
            random_topology(
                random.Random(1000 + index),
                n_nodes=settings.random_nodes,
                n_misbehaving=settings.random_misbehaving,
                pm_percent=100.0,
            ).misbehaving_senders
        )
        for index in range(settings.random_topologies)
    ]
    # fig9a's random cells: honest at PM 0, then both protocols.
    grid = figure_spec("fig9a", settings)
    honest = batch.add([
        cell.config for cell in expand_cells(replace(grid, pm_values=(0.0,)))
    ])
    cells = expand_cells(
        replace(grid, protocols=(PROTOCOL_80211, PROTOCOL_CORRECT))
    )
    handle = batch.add([cell.config for cell in cells])
    yield
    baselines = []
    for topo_index, result in enumerate(honest.results):
        if not isinstance(result, RunResult):
            fig.mark_failed("cheaters fair share")
            continue
        tps = result.throughputs()
        baselines.extend(
            tps[n] for n in designated[topo_index] if n in tps
        )
    fig.meta["cheaters_fair_share_kbps"] = mean(baselines) / 1000.0
    points: Dict[Tuple[str, float], List[object]] = {}
    for cell, result in zip(cells, handle.results):
        points.setdefault((cell.protocol, cell.pm), []).append(result)
    labels = dict(PROTOCOL_LABELS)
    for (protocol, pm), results in points.items():
        label = labels[protocol]
        fig.add_stat_point(f"{label} - MSB", pm,
                           _values(results, "msb_throughput_bps"), scale=1e-3)
        fig.add_stat_point(f"{label} - AVG", pm,
                           _values(results, "avg_throughput_bps"), scale=1e-3)
    return fig


def figure9b(
    settings: EvalSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Throughput vs PM over random topologies (Figure 9b).

    Besides the paper's four curves, the result carries (in ``meta``)
    the *designated cheaters' fair share*: the mean throughput those
    same nodes obtain in a fully honest run.  In random fields the
    cheaters' local contention differs from the network average, so
    "restricted to a fair share" is judged against this baseline.
    """
    return _generate_one("fig9b", settings, workers, executor)


# ----------------------------------------------------------------------
# Section 1 motivating claim
# ----------------------------------------------------------------------
def _intro_claim_plan(settings: EvalSettings, batch: TaskBatch):
    fig = FigureResult(
        figure_id="intro",
        title="Intro claim: one [0, CW/4] misbehaver under IEEE 802.11",
        x_label="case",
        y_label="throughput (Kbps)",
        meta=_scale_meta(settings),
    )
    baseline = ScenarioConfig(
        topology=circle_topology(8), protocol=PROTOCOL_80211,
        duration_us=settings.duration_us,
    )
    baseline_handle = batch.add_seeds(baseline, settings.seeds)
    topo = circle_topology(8, misbehaving=(MISBEHAVING_NODE,), pm_percent=1.0)
    cheated = ScenarioConfig(
        topology=topo, protocol=PROTOCOL_80211,
        duration_us=settings.duration_us,
        policy_overrides={MISBEHAVING_NODE: ShrunkenWindowPolicy(4.0)},
    )
    cheated_handle = batch.add_seeds(cheated, settings.seeds)
    yield
    if len(_ok(baseline_handle.results)) < len(baseline_handle.results):
        fig.mark_failed("fair share (all honest)", 0)
    if len(_ok(cheated_handle.results)) < len(cheated_handle.results):
        fig.mark_failed("honest AVG with cheater", 1)
        fig.mark_failed("cheater (MSB)", 2)
    fair = _avg(baseline_handle.results, lambda r: r.avg_throughput_bps)
    results = _ok(cheated_handle.results)
    fig.add_point("fair share (all honest)", 0, fair / 1000.0)
    fig.add_point(
        "honest AVG with cheater", 1,
        _avg(results, lambda r: r.avg_throughput_bps) / 1000.0,
    )
    fig.add_point(
        "cheater (MSB)", 2,
        _avg(results, lambda r: r.msb_throughput_bps) / 1000.0,
    )
    fig.meta["degradation_percent"] = 100.0 * (
        1.0 - _avg(results, lambda r: r.avg_throughput_bps) / fair
    ) if fair else 0.0
    return fig


def intro_claim(
    settings: EvalSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """The introduction's example: one [0, CW/4] cheater under 802.11.

    The paper: "for a network containing 8 nodes sending packets to a
    common receiver, with one of the 8 nodes misbehaving by selecting
    backoff values from range [0, CW/4], the throughput of the other 7
    nodes is degraded by as much as 50%".
    """
    return _generate_one("intro", settings, workers, executor)


# ----------------------------------------------------------------------
# Extension figure: MAC access delay (the paper's other selfish motive)
# ----------------------------------------------------------------------
def _figure_delay_plan(settings: EvalSettings, batch: TaskBatch):
    fig = FigureResult(
        figure_id="delay",
        title="Mean MAC access delay (extension to Figure 5)",
        x_label="Percentage of Misbehavior (PM)",
        y_label="mean access delay (ms)",
        meta=_scale_meta(settings),
    )
    points = []
    for protocol, label in PROTOCOL_LABELS:
        for pm in settings.pm_values:
            topo = circle_topology(
                8, misbehaving=(MISBEHAVING_NODE,), pm_percent=pm,
            )
            config = ScenarioConfig(
                topology=topo, protocol=protocol,
                duration_us=settings.duration_us,
            )
            points.append(
                (label, pm, batch.add_seeds(config, settings.seeds))
            )
    yield
    for label, pm, handle in points:
        results = _ok(handle.results)
        if len(results) < len(handle.results):
            fig.mark_failed(f"{label} - AVG", pm)
            if pm > 0:
                fig.mark_failed(f"{label} - MSB", pm)
        if not results:
            continue
        msb_delays = [
            r.collector.mean_delay_us(MISBEHAVING_NODE) for r in results
        ]
        honest_delays = []
        for r in results:
            values = [
                r.collector.mean_delay_us(s)
                for s in range(1, 9)
                if s != MISBEHAVING_NODE
            ]
            honest_delays.append(mean(values))
        if pm > 0:
            fig.add_point(f"{label} - MSB", pm, mean(msb_delays) / 1000.0)
        fig.add_point(f"{label} - AVG", pm, mean(honest_delays) / 1000.0)
    return fig


def figure_delay(
    settings: EvalSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Mean MAC access delay vs PM, both protocols (extension).

    Section 3.1 defines selfish misbehavior as seeking "higher
    throughput or lower delay".  The paper plots only throughput; this
    companion figure shows the delay side of the same story: under
    802.11 the cheater's access delay collapses while honest senders
    queue longer; under CORRECT the penalties equalise delays again.
    """
    return _generate_one("delay", settings, workers, executor)


# ----------------------------------------------------------------------
# Extension figure: diagnosis robustness vs channel fault rate
# ----------------------------------------------------------------------
def _figure_faults_plan(settings: EvalSettings, batch: TaskBatch):
    fig = FigureResult(
        figure_id="faults",
        title="Diagnosis robustness under CTS/ACK loss (fault injection)",
        x_label="CTS/ACK loss rate",
        y_label="percentage of packets",
        meta=_scale_meta(settings),
    )
    points = []
    for rate in settings.fault_loss_rates:
        topo = circle_topology(
            8, misbehaving=(MISBEHAVING_NODE,), pm_percent=60.0,
            with_interferers=True,
        )
        faults = (
            FaultProfile(
                frame_loss=(
                    FrameLossFault(rate=rate, frame_kinds=("cts", "ack")),
                ),
            )
            if rate > 0.0 else None
        )
        config = ScenarioConfig(
            topology=topo, protocol=PROTOCOL_CORRECT,
            duration_us=settings.duration_us, faults=faults,
        )
        points.append((rate, batch.add_seeds(config, settings.seeds)))
    yield
    for rate, handle in points:
        results = handle.results
        fig.add_stat_point("correct diagnosis", rate,
                           _values(results, "correct_diagnosis_percent"))
        fig.add_stat_point("misdiagnosis", rate,
                           _values(results, "misdiagnosis_percent"))
    return fig


def figure_faults(
    settings: EvalSettings = DEFAULT_SETTINGS,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Diagnosis accuracy vs CTS/ACK loss rate (fault-injection study).

    Section 4.2 calls the loss of a CTS/ACK — the frames that carry
    the assigned backoff — the scheme's hardest case: the sender never
    learns its assignment, so the receiver's next observation compares
    against the wrong reference.  The paper only gestures at this; here
    the :mod:`repro.faults` layer drops exactly those frames at a swept
    rate (PM fixed at 60% in the TWO-FLOW circle) to measure how fast
    correct diagnosis erodes and misdiagnosis of honest senders grows
    as the channel degrades.
    """
    return _generate_one("faults", settings, workers, executor)


#: The figure registry: each id's planner (see the module docstring).
FIGURES = {
    "fig4": partial(_grid_plan, "fig4"),
    "fig5": partial(_grid_plan, "fig5"),
    "fig6": partial(_grid_plan, "fig6"),
    "fig7": partial(_grid_plan, "fig7"),
    "fig8": _figure8_plan,
    "fig9a": partial(_grid_plan, "fig9a"),
    "fig9b": _figure9b_plan,
    "intro": _intro_claim_plan,
    "delay": _figure_delay_plan,
    "faults": _figure_faults_plan,
    "detectors": partial(_grid_plan, "detectors"),
}
