"""A campaign grid is expanded, fingerprinted and reduced once.

* ``merge_journals`` and ``load_dataset`` share one grid index per
  spec text (a small LRU), so after the shards ran, reporting a
  campaign canonicalises no config again.
* fig6 and fig7 read the same grid: one ``generate_figures`` call adds
  its cells to the batch once and builds one dataset for both.
* In-memory fig9a/fig9b report the runs averaged per point (the
  placements), not the settings' seed count.
"""

from repro.experiments import cache, report
from repro.experiments.campaign import (
    analysis,
    expand_cells,
    load_dataset,
    merge_journals,
    parse_campaign,
    run_campaign,
)
from repro.experiments.executor import ExperimentExecutor
from repro.experiments.figures import generate_figures
from repro.experiments.settings import EvalSettings


def _spy_canonicalisations(monkeypatch):
    seen = []
    encode = cache.canonical_json

    def spy(obj):
        seen.append(obj)
        return encode(obj)

    monkeypatch.setattr(cache, "canonical_json", spy)
    return seen


class TestGridIndexMemo:
    def test_shards_merge_and_load_canonicalise_each_cell_once_more(
            self, tmp_path, monkeypatch):
        analysis._grid_index.cache_clear()
        seen = _spy_canonicalisations(monkeypatch)
        spec = parse_campaign(
            "scenario=circle:3; pm=0|60; seeds=1-3; seconds=0.01"
        )
        cells = len(expand_cells(spec))
        executor = ExperimentExecutor(workers=1, on_failure="flag",
                                      cache=None)

        def report_campaign(root):
            shards = [root / f"shard{i}" for i in range(2)]
            for i, shard_dir in enumerate(shards):
                run_campaign(spec, shard_dir, shard=(i, 2),
                             executor=executor)
            merge = merge_journals(shards, root / "merged")
            return merge, load_dataset(root / "merged")

        try:
            seen.clear()
            merge, dataset = report_campaign(tmp_path / "first")
            first = len(seen)
            seen.clear()
            report_campaign(tmp_path / "second")
            second = len(seen)
        finally:
            executor.close()
        assert merge.complete and merge.ok == cells == 6
        assert len(dataset) == cells and not dataset.skipped
        # Shards (each cell once) + one grid expansion for merge and load.
        assert first == 2 * cells
        # The grid stays known: only the shards' own cells.
        assert second == cells

    def test_table_is_bounded(self):
        analysis._grid_index.cache_clear()
        for seed in range(1, analysis.GRID_INDEX_SIZE + 3):
            analysis._grid_index(
                f"scenario=circle:1; seeds={seed}; seconds=0.01"
            )
        info = analysis._grid_index.cache_info()
        assert info.currsize == analysis.GRID_INDEX_SIZE
        assert info.misses == analysis.GRID_INDEX_SIZE + 2


SMALL = EvalSettings(
    duration_us=50_000,
    seeds=(5,),
    pm_values=(0.0, 60.0),
    network_sizes=(1, 4),
    random_topologies=2,
    random_nodes=10,
    random_misbehaving=2,
)


class TestSharedFigureGrid:
    def test_fig6_and_fig7_run_and_reduce_one_grid(self, monkeypatch):
        built = []
        build = analysis.dataset_from_runs

        def counting(spec, cells, outcomes):
            built.append(len(cells))
            return build(spec, cells, outcomes)

        monkeypatch.setattr(analysis, "dataset_from_runs", counting)
        executor = ExperimentExecutor(workers=1, cache=None)
        batches = []
        run = executor.run

        def capturing(configs):
            batches.append(len(configs))
            return run(configs)

        executor.run = capturing
        try:
            both = generate_figures(["fig6", "fig7"], SMALL,
                                    executor=executor)
            alone = {
                fid: generate_figures([fid], SMALL, executor=executor)[fid]
                for fid in ("fig6", "fig7")
            }
        finally:
            executor.close()
        cells = 2 * 2 * len(SMALL.network_sizes) * len(SMALL.seeds)
        assert batches == [cells, cells, cells]
        assert built == [cells, cells, cells]
        for fid in ("fig6", "fig7"):
            assert report.to_json(both[fid]) == report.to_json(alone[fid])
            assert report.render_table(both[fid]) \
                == report.render_table(alone[fid])


class TestRandomFigureMeta:
    def test_fig9_meta_counts_the_placements_per_point(self):
        figures = generate_figures(["fig9a", "fig9b"], SMALL, workers=1)
        assert len(SMALL.seeds) == 1
        assert figures["fig9a"].meta["seeds"] == SMALL.random_topologies
        assert figures["fig9b"].meta["seeds"] == SMALL.random_topologies
