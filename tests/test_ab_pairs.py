"""The statistics of ``tools/ab_pairs.py`` (the runs themselves are not
exercised here: each takes a benchmark's worth of time)."""

import importlib.util
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)


class TestSignTest:
    @pytest.mark.parametrize("wins, losses, p", [
        (10, 0, 2 / 1024),
        (0, 10, 2 / 1024),
        (9, 1, 2 * 11 / 1024),
        (5, 5, 1.0),
        (0, 0, 1.0),
        (1, 0, 1.0),
        (6, 0, 2 / 64),
    ])
    def test_exact_two_sided_p(self, wins, losses, p):
        assert ab_pairs.sign_test_p(wins, losses) == pytest.approx(p)


class TestReport:
    METRICS = [
        {"name": "wall_s", "better": "lower", "bound": 0.25},
        {"name": "work_per_s", "better": "higher", "bound": 0.25},
    ]

    def test_wins_follow_each_metrics_direction(self):
        base = [{"wall_s": 1.0, "work_per_s": 100.0} for _ in range(4)]
        head = [{"wall_s": w, "work_per_s": r}
                for w, r in ((0.8, 120.0), (0.9, 110.0), (1.0, 100.0),
                             (1.1, 90.0))]
        lines = ab_pairs.report(self.METRICS, base, head)
        wall = next(line for line in lines if line.startswith("wall_s"))
        work = next(line for line in lines if line.startswith("work_per_s"))
        # Two wins, one tie (counted for neither side), one loss.
        assert " 2/4 " in wall and " 2/4 " in work
        assert wall.endswith("ok") and work.endswith("ok")

    def test_bound_verdict(self):
        base = [{"wall_s": 1.0, "work_per_s": 100.0}] * 3
        head = [{"wall_s": 1.3, "work_per_s": 70.0}] * 3
        lines = ab_pairs.report(self.METRICS, base, head)
        assert all("worse by 30.0% > 25%" in line for line in lines[1:])

    def test_quartiles_match_the_benchmark_runner(self):
        assert ab_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)
        q1, median, q3 = ab_pairs.quartiles([4.0, 1.0, 3.0, 2.0])
        assert (q1, median, q3) == (1.25, 2.5, 3.75)
