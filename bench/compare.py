"""Compare two sweep files: parent (first) against change (second).

    python3 bench/compare.py parent.json change.json

For each workload and end-to-end metric, prints each side's median and
quartiles, the pairs each side won (runs paired by seed; ties count for
neither) and a verdict:

  better      the change won at least 9/10 of the pairs and its median beats
              the parent's by more than the parent's interquartile distance
  worse       the same with the sides swapped
  unresolved  anything else

and whether the change's median is worse than the parent's by more than
the metric's bound in BENCHMARK.json ("REGRESSION"), or not ("ok").
"""

from __future__ import annotations

import argparse
import json
import sys

from measure import quartiles

WIN_SHARE = 0.9


def verdict(parent: list[float], change: list[float], lower_is_better: bool) -> tuple[str, int, int]:
    sign = -1 if lower_is_better else 1
    pairs = list(zip(parent, change))
    change_wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    parent_wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    p1, p2, p3 = quartiles(parent)
    _, c2, _ = quartiles(change)
    gap = sign * (c2 - p2)
    if change_wins >= WIN_SHARE * len(pairs) and gap > p3 - p1:
        return "better", change_wins, parent_wins
    if parent_wins >= WIN_SHARE * len(pairs) and -gap > p3 - p1:
        return "worse", change_wins, parent_wins
    return "unresolved", change_wins, parent_wins


def paired(a: list[dict], b: list[dict], name: str) -> tuple[list[float], list[float]]:
    """Values of `name` on the seeds both sides ran, in seed order."""
    left = {r["seed"]: r["result"]["metrics"][name]["value"] for r in a}
    right = {r["seed"]: r["result"]["metrics"][name]["value"] for r in b}
    seeds = sorted(left.keys() & right.keys())
    return [left[s] for s in seeds], [right[s] for s in seeds]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--spec", default="BENCHMARK.json")
    args = parser.parse_args(argv)
    with open(args.parent, encoding="utf-8") as handle:
        parent = json.load(handle)
    with open(args.change, encoding="utf-8") as handle:
        change = json.load(handle)
    with open(args.spec, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]

    for workload in sorted(parent["runs"].keys() & change["runs"].keys()):
        print(workload)
        for metric in metrics:
            name, lower = metric["name"], metric["better"] == "lower"
            a, b = paired(parent["runs"][workload], change["runs"][workload], name)
            if not a:
                continue
            call, b_wins, a_wins = verdict(a, b, lower)
            a1, a2, a3 = quartiles(a)
            b1, b2, b3 = quartiles(b)
            worse_by = ((b2 - a2) if lower else (a2 - b2)) / a2 if a2 else 0.0
            bound = "REGRESSION" if worse_by > metric["bound"] else "ok"
            print(f"  {name:12s} parent {a2:.6g} [{a1:.6g}, {a3:.6g}]  "
                  f"change {b2:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"wins {b_wins}/{len(a)} vs {a_wins}/{len(a)}  {call}  {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
