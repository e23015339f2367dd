#!/usr/bin/env python3
"""Regenerate every figure of the paper's evaluation section.

Runs each figure generator at the selected scale and prints the ASCII
table.  Scales:

    python examples/reproduce_figures.py              # default scale
    REPRO_QUICK=1 python examples/reproduce_figures.py  # smoke scale
    REPRO_FULL=1  python examples/reproduce_figures.py  # paper scale (hours)

Pass figure ids to restrict, e.g.:

    python examples/reproduce_figures.py fig4 fig5
"""

from __future__ import annotations

import sys
import time

from repro.experiments import FIGURES, active_settings, generate_figures
from repro.experiments.report import print_figure


def main() -> None:
    wanted = sys.argv[1:] or list(FIGURES)
    unknown = [w for w in wanted if w not in FIGURES]
    if unknown:
        raise SystemExit(
            f"unknown figure id(s) {unknown}; choose from {list(FIGURES)}"
        )
    settings = active_settings()
    print(f"Scale: {settings.duration_s:g}s per run, "
          f"{len(settings.seeds)} seeds, PM sweep {settings.pm_values}")
    for figure_id in wanted:
        start = time.time()
        fig = generate_figures([figure_id], settings)[figure_id]
        print()
        print_figure(fig)
        print(f"   [generated in {time.time() - start:.1f}s]")


if __name__ == "__main__":
    main()
