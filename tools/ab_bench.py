"""Run the benchmark on two trees in alternating pairs and judge the difference.

Run from anywhere, naming the parent's tree and the change's tree::

    python3 tools/ab_bench.py PARENT CHANGE [--workload NAME ...] [--pairs 10]
                              [--seed 1] [--seconds S] [--out RUNS.json]

Each pair runs ``bench/run.py`` untraced, once from each tree, with the
same seed; pair i uses seed ``--seed`` + i, and the side that runs first
alternates from pair to pair, the parent first in the first pair.  Every
run starts from a tree without ``__pycache__``, as a fresh checkout would.
The run length defaults to ``run_seconds`` in the parent's
``BENCHMARK.json``, and the metrics, their directions and their bounds come
from its ``end_to_end`` list.  Each tree runs its own ``bench/``, which a
change that claims a gain leaves as it is.

For each workload and metric the script prints each side's median and
quartiles, how many pairs the change won (ties count for neither), and a
verdict:

- ``gain``: over at least ten pairs, the change won at least nine tenths
  of them, and its median is better than the parent's by more than the
  parent's interquartile range;
- ``within bound``: the change's median is no worse than the parent's by
  more than the metric's bound, a fraction of the parent's median, and
  neither side's interquartile range exceeds that bound;
- ``unresolved``: the spread exceeds the bound, unless every run of the
  change reads better than every run of the parent, which is within bound;
- ``beyond bound``: the change's median is worse by more than the bound.

Failed items are counted per side.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
GAIN_SHARE = 0.9  # of all pairs run, ties counting for neither side
GAIN_PAIRS = 10  # fewer pairs never show a gain


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single run is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent, change, better: str, bound: float) -> dict:
    """The comparison of one metric on one workload.

    ``parent`` and ``change`` hold one value per pair, in pair order;
    ``better`` is "higher" or "lower" and ``bound`` the fraction of the
    parent's median by which the change may be worse.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one value per side in every pair")
    sign = 1 if better == "higher" else -1
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gap = sign * (cm - pm)  # > 0: the change's median is better
    allowed = bound * abs(pm)
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if len(parent) >= GAIN_PAIRS and wins >= GAIN_SHARE * len(parent) and gap > p3 - p1:
        status = "gain"
    elif gap < -allowed:
        status = "beyond bound"
    elif max(p3 - p1, c3 - c1) <= allowed or every_run_better:
        status = "within bound"
    else:
        status = "unresolved"
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "pairs": len(parent), "wins": wins, "losses": losses,
        "change_pct": 100 * (cm - pm) / pm if pm else None,
        "verdict": status,
    }


def summarize(runs, spec) -> dict:
    """{workload: {metric: verdict}} over ``runs``, a list of records
    ``{"workload", "pair", "side", "failed", "metrics"}`` as ``run_once``
    returns them, for every end-to-end metric of ``spec`` (a parsed
    ``BENCHMARK.json``).  The runs of a workload are paired by ``pair``."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_pair = {}
        for r in runs:
            if r["workload"] == workload:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [by_pair[k] for k in sorted(by_pair) if len(by_pair[k]) == 2]
        rows = {}
        for m in spec["end_to_end"]:
            values = {side: [p[side]["metrics"][m["name"]]["value"] for p in pairs] for side in SIDES}
            rows[m["name"]] = verdict(values["parent"], values["change"], m["better"], m["bound"])
        rows["failed"] = {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}
        out[workload] = rows
    return out


def _clear_pycache(tree: Path) -> None:
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced ``bench/run.py`` run from ``tree``: its item counts and
    metrics, read from the last line of its stdout."""
    _clear_pycache(tree)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"failed": result["failed"], "attempted": result["attempted"], "metrics": result["metrics"]}


def report(summary) -> str:
    lines = []
    for workload, rows in summary.items():
        failed = rows["failed"]
        lines.append(f"{workload}: failed items parent {failed['parent']}, change {failed['change']}")
        for name, row in rows.items():
            if name == "failed":
                continue
            p, c = row["parent"], row["change"]
            pct = "" if row["change_pct"] is None else f" {row['change_pct']:+.1f}%"
            lines.append(
                f"  {name:12s} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
                f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]{pct}  "
                f"wins {row['wins']}/{row['pairs']}  {row['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append",
                        help="a workload of BENCHMARK.json (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", type=Path, help="write every run and the summary here as JSON")
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"{side} tree {tree} has no bench/run.py")
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json has {known}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    runs = []
    for workload in workloads:
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(trees[side], workload, args.seed + i, seconds)
                run.update(workload=workload, pair=i, side=side, seed=args.seed + i)
                runs.append(run)
                print(f"{workload} pair {i} {side}: items_per_s "
                      f"{run['metrics']['items_per_s']['value']:.1f}", file=sys.stderr, flush=True)
    summary = summarize(runs, spec)
    print(report(summary))
    if args.out is not None:
        args.out.write_text(json.dumps({"seconds": seconds, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
