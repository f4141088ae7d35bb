"""Compare the benchmark of two checkouts in alternating pairs of runs.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs N --seconds S [--seed K]

PARENT and CHANGE are git checkouts. For each workload of CHANGE's
``BENCHMARK.json``, pair ``i`` runs ``perfbench/run.py --workload W --seed
K+i --seconds S --trace 0`` once in each checkout, from that checkout's
root, one process at a time; the parent goes first in even pairs and the
change in odd ones. The end-to-end metrics are read from the last line each
run prints. The record goes to ``CHANGE/BENCH_<date>_<parent commit>.json``:
per workload, and per metric, every run of both sides, both sides' medians
and quartiles, change median / parent median, the pairs in which the
change did better (won) or worse (lost), and a verdict (see ``verdict``)
against the metric's bound in ``BENCHMARK.json``, which the tool only reads.
The exit status is 1 if any run failed its correctness check.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def describe(checkout: Path) -> str:
    """The checkout's short commit, marked when its files differ from it."""
    sha = git(checkout, "rev-parse", "--short", "HEAD")
    return sha + (" with uncommitted changes" if git(checkout, "status", "--porcelain") else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``; its last printed line, as a dict."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{checkout}: {workload} seed {seed} printed no result "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3}


def verdict(metric: dict, parent: dict, change: dict, won: int, pairs: int) -> str:
    """``gain`` when the change won at least 9 in 10 of the pairs and its
    median beats the parent's by more than the parent's quartile distance;
    ``regression`` when its median is worse than the parent's by more than the
    metric's ``bound`` (relative, as BENCHMARK.json gives it); ``unresolved``
    otherwise."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    gap = sign * (change["median"] - parent["median"])
    if gap < -metric["bound"] * abs(parent["median"]):
        return "regression"
    if 10 * won >= 9 * pairs and gap > parent["q3"] - parent["q1"]:
        return "gain"
    return "unresolved"


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if metric["better"] == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    p, c = summary(parent), summary(change)
    won = sum(g > 0 for g in gains)
    return {"unit": metric["unit"], "better": metric["better"], "parent": p, "change": c,
            "change_over_parent": c["median"] / p["median"] if p["median"] else None,
            "pairs_won": won, "pairs_lost": sum(g < 0 for g in gains),
            "verdict": verdict(metric, p, c, won, len(gains)),
            "parent_runs": parent, "change_runs": change}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    seeds = [args.seed + i for i in range(args.pairs)]
    record = {
        "parent": git(checkouts["parent"], "rev-parse", "--short", "HEAD"),
        "change": describe(checkouts["change"]),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
                   "--trace 0",
        "pairs": args.pairs, "seeds": seeds,
        "order": "alternating: parent first in even pairs (from 0), change first in odd ones",
        "machine": f"{platform.machine()}, {platform.python_implementation()} "
                   f"{platform.python_version()}; one run at a time",
        "workloads": {},
    }
    correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            for side in SIDES[::-1] if i % 2 else SIDES:
                runs[side].append(run_once(checkouts[side], workload, seed, args.seconds))
                print(f"{workload} pair {i} {side}: {runs[side][-1]['metrics']}", flush=True)
        every = runs["parent"] + runs["change"]
        correct &= all(r["correct"] for r in every)
        record["workloads"][workload] = {
            "all_runs_correct": all(r["correct"] for r in every),
            "failed_calls": sum(r["failed"] for r in every),
            "metrics": {m["name"]: compare(m, *([r["metrics"][m["name"]]["value"]
                                                 for r in runs[side]] for side in SIDES))
                        for m in spec["end_to_end"]},
        }
    out = checkouts["change"] / f"BENCH_{datetime.date.today()}_{record['parent']}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
