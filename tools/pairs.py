"""Alternating benchmark runs of two source trees, summarized per metric.

    python tools/pairs.py PARENT_TREE CHANGE_TREE --workload W --seeds A-B
        [--workload W --seeds A-B ...] [--claim W:METRIC:PCT]
        --out BENCH_<n>.json

Each tree is a checkout of the repository, such as a ``git archive`` of a
commit unpacked in a scratch directory. For each workload and seed in turn
the tool runs ``bench/run.py --trace 0`` once on each tree, one run at a
time, each from its own tree's ``bench/``, for ``run_seconds`` of the change
tree's ``BENCHMARK.json``. Even-indexed pairs run the parent first,
odd-indexed ones the change first.

The output holds the machine facts of the first run, the order, every raw
run with its failed-operation count, and per workload and end-to-end metric
the parent's and the change's quartiles, ``median_change_pct``,
``pairs_change_lower``, ``pairs_change_better`` (strictly, in the metric's
better direction; a tie counts for neither side), ``within_bound``, the
bound being the metric's in ``BENCHMARK.json``, and ``unresolved``: the
parent's interquartile range is wider than the bound times its median, so
the pairs cannot tell a change within the bound from one past it, and not
every change run beats every parent run. ``--claim W:METRIC:PCT``
adds ``claim_result``: met when METRIC on W is at least PCT percent better
in the median, better in at least nine of ten pairs, by a median gap wider
than the parent's interquartile range, with no failed operation. The file
is rewritten after every pair, so an interrupted session keeps the pairs it
finished. A run that exits non-zero is kept with its exit code and the end
of its stderr, and one that exits 0 without a details line and a JSON result
at the end of its output with a ``malformed`` note and the end of its stdout;
its pair counts in no summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
MACHINE_FACTS = ("nproc", "python", "numpy", "blas", "threads")


def parse_seeds(text: str) -> list[int]:
    """``A-B`` as the seeds A..B inclusive; a lone ``A`` as [A]."""
    lo, _, hi = text.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds or seeds[0] < 0:
        raise ValueError(f"seeds must be A-B with 0 <= A <= B, got {text!r}")
    return seeds


def quartiles(values: list[float]) -> list[float]:
    """Q1, median and Q3, interpolated linearly between order statistics."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload, its seeds, the failed counts [parent, change] of each
    seed and per metric of ``metrics`` (``BENCHMARK.json``'s ``end_to_end``
    entries: name, better, bound) the pair summary. Only seeds that both
    sides ran to a result count."""
    by_key = {(r["workload"], r["seed"], r["side"]): r for r in runs if "metrics" in r}
    out: dict = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        seeds = sorted({seed for w, seed, _ in by_key if w == workload
                        and all((w, seed, side) in by_key for side in SIDES)})
        pairs = [[by_key[workload, seed, side] for side in SIDES] for seed in seeds]
        summary = {}
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            values = [[r["metrics"][name] for r in pair] for pair in pairs]
            if not values:
                continue
            parent_runs, change_runs = ([v[i] for v in values] for i in range(2))
            parent_q, change_q = quartiles(parent_runs), quartiles(change_runs)
            parent_median, change_median = parent_q[1], change_q[1]
            limit = parent_median * (1 + metric["bound"] if lower else 1 - metric["bound"])
            beats_all = (max(change_runs) < min(parent_runs) if lower
                         else min(change_runs) > max(parent_runs))
            summary[name] = {
                "parent_q1_median_q3": parent_q,
                "change_q1_median_q3": change_q,
                "median_change_pct": 100.0 * (change_median - parent_median) / parent_median,
                "pairs_change_lower": sum(c < p for p, c in values),
                "pairs_change_better": sum(c < p if lower else c > p for p, c in values),
                "pairs": len(values),
                "within_bound": change_median <= limit if lower else change_median >= limit,
                "unresolved": (parent_q[2] - parent_q[0] > metric["bound"] * abs(parent_median)
                               and not beats_all),
            }
        out[workload] = {"seeds": seeds, "failed": [[r["failed"] for r in pair] for pair in pairs],
                         "summary": summary}
    return out


def claim_result(workloads: dict, workload: str, metric: dict, pct: float) -> dict:
    """Whether ``metric`` on ``workload`` is at least ``pct`` percent better
    in the median, better in at least nine of ten pairs, with a median gap
    wider than the parent's interquartile range and no failed operation."""
    row = workloads[workload]["summary"][metric["name"]]
    parent_q, change_q, pairs = row["parent_q1_median_q3"], row["change_q1_median_q3"], row["pairs"]
    lower = metric["better"] == "lower"
    change_pct = row["median_change_pct"] if lower else -row["median_change_pct"]
    better_pairs = row["pairs_change_better"]
    gap, iqr = abs(change_q[1] - parent_q[1]), parent_q[2] - parent_q[0]
    failed = sum(map(sum, workloads[workload]["failed"]))
    return {
        "workload": workload, "metric": metric["name"], "claimed_pct": pct,
        "parent_q1_median_q3": parent_q, "change_q1_median_q3": change_q,
        "median_change_pct": row["median_change_pct"], "pairs_change_better": better_pairs,
        "pairs": pairs, "parent_iqr": iqr, "median_gap": gap, "failed_operations": failed,
        "met": (change_pct <= -pct and 10 * better_pairs >= 9 * pairs and gap > iqr
                and failed == 0),
    }


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict | None]:
    """One ``bench/run.py`` run from ``tree``: its result record and the
    machine facts of its details line, or an error record and None."""
    cmd = [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        return {"exit": done.returncode, "stderr": done.stderr[-2000:]}, None
    try:
        *_, details, result = done.stdout.strip().splitlines()
        result, facts = json.loads(result), json.loads(details)["facts"]
        return ({"failed": result["failed"], "attempted": result["attempted"],
                 "metrics": {k: m["value"] for k, m in result["metrics"].items()}}, facts)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        note = f"no details line and JSON result at the end of stdout ({exc!r})"
        return {"exit": 0, "malformed": note, "stdout": done.stdout[-2000:]}, None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the parent commit's tree")
    ap.add_argument("change", type=Path, help="the change's tree")
    ap.add_argument("--workload", action="append", required=True, help="one per --seeds")
    ap.add_argument("--seeds", action="append", required=True, help="A-B: the seeds of one pair each")
    ap.add_argument("--claim", help="W:METRIC:PCT, the gain to check")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if len(args.workload) != len(args.seeds):
        ap.error("give one --seeds per --workload")
    try:
        plan = [(w, parse_seeds(s)) for w, s in zip(args.workload, args.seeds)]
    except ValueError as exc:
        ap.error(str(exc))
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            ap.error(f"the {side} tree {tree} has no bench/run.py")
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = benchmark["end_to_end"]
    seconds = benchmark["run_seconds"]
    claim = None
    if args.claim:
        workload, name, pct = (args.claim.split(":") + ["", "", ""])[:3]
        metric = next((m for m in metrics if m["name"] == name), None)
        if workload not in dict(plan) or metric is None or not pct.replace(".", "", 1).isdigit():
            ap.error(f"--claim must be W:METRIC:PCT with a planned workload, an end-to-end "
                     f"metric and a percentage, got {args.claim!r}")
        claim = (workload, metric, float(pct))

    out = {
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "machine": None,
        "order": "; ".join(f"{w} {len(seeds)} pairs (seeds {seeds[0]}-{seeds[-1]})" for w, seeds in plan)
                 + "; one run at a time; even-indexed pairs run the parent first, odd-indexed "
                   "the change first; each side runs bench/run.py from its own tree",
        "workloads": {},
        "runs": [],
    }
    for workload, seeds in plan:
        for i, seed in enumerate(seeds):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                record, facts = bench_run(trees[side], workload, seed, seconds)
                out["runs"].append({"workload": workload, "seed": seed, "side": side, **record})
                if facts is not None and out["machine"] is None:
                    out["machine"] = {k: facts.get(k) for k in MACHINE_FACTS}
                shown = record.get("metrics") or record.get("malformed") or f"exit {record['exit']}"
                print(f"{workload} seed {seed} {side}: {shown}", file=sys.stderr)
            out["workloads"] = summarize(out["runs"], metrics)
            if claim and claim[1]["name"] in out["workloads"].get(claim[0], {}).get("summary", {}):
                out["claim_result"] = claim_result(out["workloads"], *claim)
            args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
