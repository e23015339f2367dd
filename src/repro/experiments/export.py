"""Batch export of all figure data (tables + JSON) to a directory.

This is the reproducibility driver behind EXPERIMENTS.md: it runs
every figure generator at a chosen scale and archives both the
human-readable table and the raw series.

    from repro.experiments.export import export_all
    export_all("results/", settings=PAPER_SETTINGS)   # paper scale

or from the shell::

    python -c "from repro.experiments.export import export_all; export_all('results')"
"""

from __future__ import annotations

import pathlib
import time
from typing import Dict, Iterable, Optional

from repro.experiments.executor import ExperimentExecutor
from repro.experiments.figures import FIGURES, FigureResult, generate_figures
from repro.experiments.report import render_table, to_json
from repro.experiments.settings import DEFAULT_SETTINGS, EvalSettings


def export_figure(
    figure_id: str,
    out_dir: pathlib.Path,
    settings: EvalSettings,
    workers: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> FigureResult:
    """Generate one figure and write ``<id>.txt`` and ``<id>.json``."""
    fig = generate_figures(
        [figure_id], settings, workers=workers, executor=executor
    )[figure_id]
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{figure_id}.txt").write_text(
        render_table(fig) + "\n", encoding="utf-8"
    )
    (out_dir / f"{figure_id}.json").write_text(
        to_json(fig), encoding="utf-8"
    )
    return fig


def export_all(
    out_dir: str,
    settings: EvalSettings = DEFAULT_SETTINGS,
    figure_ids: Optional[Iterable[str]] = None,
    workers: Optional[int] = None,
    verbose: bool = True,
) -> Dict[str, FigureResult]:
    """Generate and archive every (or the selected) figure.

    Returns the figure results keyed by id.  Figures are generated
    sequentially, cheapest first, so partial output is useful even if
    interrupted — but all of them share one persistent worker pool
    (and the run cache, when enabled) via a single
    :class:`ExperimentExecutor`.
    """
    directory = pathlib.Path(out_dir)
    wanted = list(figure_ids) if figure_ids is not None else list(FIGURES)
    results: Dict[str, FigureResult] = {}
    with ExperimentExecutor(workers=workers) as executor:
        for figure_id in wanted:
            start = time.time()
            results[figure_id] = export_figure(
                figure_id, directory, settings, executor=executor
            )
            if verbose:
                print(f"{figure_id}: {time.time() - start:.0f}s "
                      f"-> {directory / figure_id}.txt")
    return results
