#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload by alternating pairs.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE \\
        --workload infer-attr --pairs 10 --seed 1 --seconds 30

Each pair runs ``perfbench/run.py --trace 0`` once in each tree, the parent
first in even pairs and the change first in odd ones, so both sides see the
same stretch of a machine whose speed wanders.  The per-run metrics, their
medians and interquartile ranges, the seed, the seconds, the machine, each
tree's ``git rev-parse HEAD`` (null outside a git checkout) and each tree's
``src/`` line count go to ``BENCH_<workload>.json`` at the root of this
repository.  For every end-to-end metric of ``BENCHMARK.json`` it prints the
medians, the pairs the change won, whether the median gap beats the
parent's IQR, and whether the change is worse than the metric's bound, and
it names the metric unresolved when the parent's IQR is wider than that
bound and not every change run beats every parent run; then
the change's ``src/`` line delta; then every run that was not ``correct`` or
had failed operations, with the ``check failed:`` lines it printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHECK_FAILED = "check failed: "


def end_to_end_metrics():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        return {m["name"]: m for m in json.load(fp)["end_to_end"]}


def git_head(tree):
    proc = subprocess.run(
        ["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_lines(tree):
    """Lines of the Python files under ``tree/src``, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n") for path in Path(tree).glob("src/**/*.py"))


def run_once(tree, workload, seed, seconds):
    """One untraced benchmark run in ``tree``: (machine line, result line),
    the result carrying the run's ``check failed:`` reasons as ``problems``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    problems = [line.removeprefix(CHECK_FAILED) for line in proc.stderr.splitlines()
                if line.startswith(CHECK_FAILED)]
    if proc.returncode != 0 or len(lines) < 2:
        return None, {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                      "problems": problems, "error": proc.stderr.strip().splitlines()[-1:]}
    result = json.loads(lines[-1]) | {"problems": problems}
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    return json.loads(lines[-2])["machine"], result


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summarize(runs, metrics):
    """Per metric of ``metrics`` (name -> {"better", "bound"}): medians,
    IQRs, pairs the change won, and the three verdicts.  ``runs`` holds
    one dict per run with ``pair``, ``tree`` and ``metrics``.  A metric is
    unresolved when the parent's IQR is wider than its bound, unless every
    change run beats every parent run."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["tree"]] = run["metrics"]
    pairs = [p for p in by_pair.values() if {"parent", "change"} <= set(p)]
    summary = {}
    for name, spec in metrics.items():
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if name in p["parent"] and name in p["change"]]
        if not both:
            continue
        sign = 1.0 if spec["better"] == "higher" else -1.0
        parent = statistics.median(a for a, _ in both)
        change = statistics.median(b for _, b in both)
        spread = iqr([a for a, _ in both])
        gain = sign * (change - parent)
        beats_all = min(sign * b for _, b in both) > max(sign * a for a, _ in both)
        summary[name] = {
            "parent_median": parent,
            "change_median": change,
            "parent_iqr": spread,
            "change_iqr": iqr([b for _, b in both]),
            "won": sum(sign * (b - a) > 0 for a, b in both),
            "pairs": len(both),
            "gap_beats_iqr": gain > spread,
            "worse_than_bound": -gain > spec["bound"] * abs(parent),
            "unresolved": spread > spec["bound"] * abs(parent) and not beats_all,
        }
    return summary


def report_lines(summary, runs, lines_of_src=None):
    """The verdict per metric, the ``src/`` line delta when ``lines_of_src``
    ({"parent": n, "change": m}) is given, and the runs that went wrong."""
    lines = []
    for name, s in summary.items():
        lines.append(
            f"{name}: {s['parent_median']:.4g} -> {s['change_median']:.4g} "
            f"(parent IQR {s['parent_iqr']:.3g}); change won {s['won']}/{s['pairs']}; "
            f"gap beats IQR: {'yes' if s['gap_beats_iqr'] else 'no'}; "
            f"worse than bound: {'yes' if s['worse_than_bound'] else 'no'}"
            + ("; unresolved: parent IQR wider than bound" if s["unresolved"] else "")
        )
    if lines_of_src:
        parent, change = lines_of_src["parent"], lines_of_src["change"]
        lines.append(f"src/ lines: {parent} -> {change} ({change - parent:+d})")
    for run in runs:
        if not run["correct"] or run["failed"]:
            lines.append(
                f"pair {run['pair']} {run['tree']}: correct {run['correct']}, "
                f"failed {run['failed']} {run.get('error', '')}".rstrip()
            )
            lines += [f"  {CHECK_FAILED}{problem}" for problem in run.get("problems", [])]
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_tree", type=Path)
    ap.add_argument("change_tree", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)

    trees = {"parent": args.parent_tree, "change": args.change_tree}
    runs, machine = [], None
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for name in order:
            info, result = run_once(trees[name], args.workload, args.seed, args.seconds)
            machine = machine or info
            runs.append({"pair": pair, "tree": name} | result)
            print(f"pair {pair} {name}: {json.dumps(result['metrics'])}", file=sys.stderr)

    summary = summarize(runs, end_to_end_metrics())
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": 0,
        "machine": machine,
        "heads": {name: git_head(tree) for name, tree in trees.items()},
        "src_lines": {name: src_lines(tree) for name, tree in trees.items()},
        "runs": runs,
        "summary": summary,
    }
    with open(ROOT / f"BENCH_{args.workload}.json", "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=1)
        fp.write("\n")
    print("\n".join(report_lines(summary, runs, doc["src_lines"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
