"""Interleaved A/B pairs of the repository benchmark between two revisions.

    python3 tools/ab_pairs.py --base HEAD~1 --head HEAD \\
        --workload sim-grid --pairs 10 [--seed 1] [--seconds 25]

Both revisions are exported with ``git archive`` into a temporary
directory, so the comparison uses committed files only (to include
uncommitted work, stage it and pass ``--head $(git stash create)``).
Each pair runs ``perfbench/run.py --trace 0`` once per revision with
identical arguments, alternating which revision goes first.  For every
end-to-end metric of ``BENCHMARK.json`` the tool prints each side's
median and quartiles over the pairs, how many pairs the head won
(by the metric's ``better`` direction; ties count for neither side),
the exact two-sided sign-test p-value of those wins, and whether the
head's median is worse than the base's by more than the metric's bound.

The run fails (exit 1) if any perfbench run fails or reports
``"correct": false``.  Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import pathlib
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent


def export(rev: str, dest: pathlib.Path) -> str:
    """Extract ``rev``'s tree into ``dest``; returns the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT,
        check=True, capture_output=True,
    ).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # Pythons without extraction filters
            tar.extractall(dest)
    return commit


def run_once(tree: pathlib.Path, args) -> Dict[str, float]:
    """One benchmark run in ``tree``; its end-to-end metric values."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode != 0 or result is None or not result.get("correct"):
        raise RuntimeError(
            f"perfbench failed in {tree} (exit {proc.returncode}):\n"
            f"{proc.stderr[-2000:]}"
        )
    return {name: m["value"] for name, m in result["metrics"].items()}


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value (ties already dropped)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2 ** n)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), by the method ``perfbench/run.py`` uses."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0], ordered[0], ordered[0]
    q1, _, q3 = statistics.quantiles(ordered, n=4)
    return q1, statistics.median(ordered), q3


def report(metrics: List[dict], base: List[dict], head: List[dict]) -> List[str]:
    lines = [
        f"{'metric':<12} {'base median [q1, q3]':>32} "
        f"{'head median [q1, q3]':>32} {'head/base':>9} {'wins':>7} "
        f"{'sign p':>8}  bound"
    ]
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        b = [run[name] for run in base]
        h = [run[name] for run in head]
        bq1, bmed, bq3 = quartiles(b)
        hq1, hmed, hq3 = quartiles(h)
        lower = better == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, h))
        losses = sum((y > x) if lower else (y < x) for x, y in zip(b, h))
        ratio = hmed / bmed if bmed else float("nan")
        worse = (ratio - 1) if lower else (1 - ratio)
        verdict = (f"worse by {worse:.1%} > {metric['bound']:.0%}"
                   if worse > metric["bound"] else "ok")
        lines.append(
            f"{name:<12} {bmed:>12.6g} [{bq1:.6g}, {bq3:.6g}]".ljust(45)
            + f"{hmed:>12.6g} [{hq1:.6g}, {hq3:.6g}]".ljust(33)
            + f"{ratio:>9.3f} {wins:>3}/{len(b):<3} "
            f"{sign_test_p(wins, losses):>8.4f}  {verdict}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--head", required=True, help="head revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="perfbench --seconds per run (default: the "
                             "benchmark's 25)")
    parser.add_argument("--json", type=pathlib.Path,
                        help="also write every run's metrics here")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    scratch = pathlib.Path(tempfile.mkdtemp(prefix="ab_pairs-"))
    try:
        trees = {side: scratch / side for side in ("base", "head")}
        commits = {side: export(getattr(args, side), trees[side])
                   for side in trees}
        metrics = json.loads(
            (trees["head"] / "BENCHMARK.json").read_text()
        )["end_to_end"]
        runs: Dict[str, List[dict]] = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(trees[side], args))
            print(f"pair {pair + 1}/{args.pairs} done ({order[0]} first)",
                  file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} "
          f"interleaved pairs of --seconds {args.seconds:g}")
    print(f"  base {commits['base'][:12]}  head {commits['head'][:12]}")
    for line in report(metrics, runs["base"], runs["head"]):
        print("  " + line)
    if args.json is not None:
        args.json.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "commits": commits, "runs": runs},
            indent=1,
        ) + "\n")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"ab_pairs: {exc}", file=sys.stderr)
        sys.exit(1)
