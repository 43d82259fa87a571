"""Record a benchmark comparison of two revisions as a ``BENCH_*.json`` file.

    python3 tools/record_bench.py --parent REV --change REV \\
        --workloads bulk_audit quickstart longseq_eval --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --claim bulk_audit:wall_norm --workdir /tmp/bench-pairs --output BENCH_N.json

Each revision is checked out in its own ``git clone`` of ``--repo`` under
``--workdir``, and both clones are byte-compiled with ``compileall`` before
any run, so neither side pays for compiling a module the other finds
cached. For each seed and workload it runs ``python3 bench/run.py
--workload W --seed K`` once in each clone, the side that runs first
alternating from pair to pair, and reads the machine, detail and result
lines each run prints last. The record holds the machine block, every
run's values, and per workload and side the median and quartiles of
``setup_s``, ``wall_norm`` and ``peak_rss_mb`` from the result line and of
the raw ``wall_s`` and ``slowdown`` (each run's median over its iterations)
from the detail line, with the change's win counts. A claim is met when the
change reads lower in at least nine tenths of the pairs, ties counting for
neither, and the medians differ by more than the parent's interquartile
range. Uses the standard library only and imports nothing from ``bench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

GATED = ("setup_s", "wall_norm", "peak_rss_mb")  # the result line's metrics
RAW = ("wall_s", "slowdown")  # per-iteration lists of the detail line
SIDES = ("parent", "change")


class RecordError(Exception):
    """A run that printed no result, or a clone that could not be made."""


def parse_run(stdout: str) -> dict:
    """The machine block and the values of one ``bench/run.py --workload W``
    run, read from the last three JSON lines it printed."""
    lines = [line for line in stdout.splitlines() if line.startswith("{")]
    if len(lines) < 3:
        raise RecordError(f"expected machine, detail and result lines, got {len(lines)}")
    machine, detail, result = (json.loads(line) for line in lines[-3:])
    detail = detail["detail"]
    values = {name: result["metrics"][name]["value"] for name in GATED}
    values["wall_s"] = median(detail["iteration_wall_s"])
    values["slowdown"] = median(detail["iteration_slowdown"])
    return {"machine": machine["machine"], "values": values, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"]}


def _quantile(ordered, q: float) -> float:
    """Linear interpolation between closest ranks, inclusive endpoints."""
    h = (len(ordered) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])


def median(values) -> float:
    return _quantile(sorted(values), 0.5)


def summary(values) -> dict:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no values to summarise")
    q1, q3 = _quantile(ordered, 0.25), _quantile(ordered, 0.75)
    return {"n": len(ordered), "median": _quantile(ordered, 0.5), "q1": q1, "q3": q3,
            "iqr": q3 - q1, "min": ordered[0], "max": ordered[-1]}


def wins(pairs) -> dict:
    """How many ``(parent, change)`` pairs the change reads lower, higher or
    the same in."""
    lower = sum(1 for p, c in pairs if c < p)
    higher = sum(1 for p, c in pairs if c > p)
    return {"pairs": len(pairs), "lower": lower, "higher": higher,
            "ties": len(pairs) - lower - higher}


def claim_verdict(pairs) -> dict:
    """Whether the change is lower by the rule for claiming a gain: lower in
    at least nine tenths of the pairs, and a median gap wider than the
    parent's interquartile range."""
    parent = summary([p for p, _ in pairs])
    change = summary([c for _, c in pairs])
    counts = wins(pairs)
    gap = parent["median"] - change["median"]
    return {**counts, "parent_median": parent["median"], "change_median": change["median"],
            "median_gap": gap, "parent_iqr": parent["iqr"],
            "met": 10 * counts["lower"] >= 9 * counts["pairs"] and gap > parent["iqr"]}


def pair_order(index: int) -> tuple[str, str]:
    """The side order of the seed at ``index``: the parent runs first for
    even indices, the change for odd ones."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def build_record(runs, claim=None) -> dict:
    """The record of ``runs``, dicts with ``workload``, ``seed``, ``side``,
    ``first`` and the ``parse_run`` fields, and of the ``(workload, metric)``
    claim when one is given."""
    workloads = {}
    for name in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == name]
        by_seed = {(r["seed"], r["side"]): r["values"] for r in mine}
        seeds = sorted({r["seed"] for r in mine})
        entry = {side: {metric: summary([r["values"][metric] for r in mine
                                         if r["side"] == side])
                        for metric in GATED + RAW}
                 for side in SIDES}
        entry["change_lower"] = {
            metric: wins([(by_seed[(k, "parent")][metric], by_seed[(k, "change")][metric])
                          for k in seeds])
            for metric in GATED + RAW}
        entry["failed_checks"] = {side: sum(r["failed"] for r in mine if r["side"] == side)
                                  for side in SIDES}
        workloads[name] = entry
    record = {"machine": runs[0]["machine"], "workloads": workloads,
              "runs": [{k: r[k] for k in ("workload", "seed", "side", "first", "values",
                                          "correct", "failed")} for r in runs]}
    if claim is not None:
        name, metric = claim
        mine = {(r["seed"], r["side"]): r["values"][metric]
                for r in runs if r["workload"] == name}
        seeds = sorted({seed for seed, _ in mine})
        record["claim"] = {"workload": name, "metric": metric, "better": "lower",
                           **claim_verdict([(mine[(k, "parent")], mine[(k, "change")])
                                            for k in seeds])}
    return record


def _git(*args, cwd=None) -> None:
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        raise RecordError(f"git {' '.join(args)} failed: {done.stderr.strip()}")


def make_clone(repo: Path, rev: str, path: Path) -> None:
    """A ``git clone`` of ``repo`` at ``rev``, byte-compiled with ``compileall``."""
    if path.exists():
        raise RecordError(f"{path} exists; give a --workdir without it")
    _git("clone", "--quiet", "--no-checkout", str(repo), str(path))
    _git("-c", "advice.detachedHead=false", "checkout", "--quiet", rev, cwd=path)
    done = subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "bench"], cwd=path,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise RecordError(f"compileall in {path} failed: {done.stdout.strip()}")


def run_bench(checkout: Path, workload: str, seed: int) -> dict:
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed)], cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RecordError(f"bench/run.py --workload {workload} --seed {seed} in {checkout} "
                          f"exited {done.returncode}: {done.stderr.strip()[-500:]}")
    try:
        return parse_run(done.stdout)
    except (ValueError, KeyError) as exc:  # a JSON line that is not the one expected
        raise RecordError(f"bench/run.py --workload {workload} --seed {seed} in {checkout}: "
                          f"unreadable output ({exc!r})") from None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", default=".", help="repository to clone (default: .)")
    parser.add_argument("--parent", required=True, help="revision of the parent side")
    parser.add_argument("--change", required=True, help="revision of the change side")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC the change claims lower")
    parser.add_argument("--workdir", required=True, help="directory for the two clones")
    parser.add_argument("--output", required=True)
    args = parser.parse_args(argv)
    claim = None
    if args.claim is not None:
        claim = tuple(args.claim.partition(":")[::2])
        if claim[0] not in args.workloads or claim[1] not in GATED:
            parser.error(f"--claim needs one of --workloads and one of {', '.join(GATED)}")

    try:
        workdir = Path(args.workdir)
        checkouts = {side: workdir / side for side in SIDES}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            make_clone(Path(args.repo).resolve(), rev, checkouts[side])
        runs = []
        for index, seed in enumerate(args.seeds):
            order = pair_order(index)
            for workload in args.workloads:
                for side in order:
                    run = run_bench(checkouts[side], workload, seed)
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "first": order[0], **run})
                    print(f"{workload} seed {seed} {side}: "
                          + " ".join(f"{k} {v:.4g}" for k, v in run["values"].items()),
                          file=sys.stderr, flush=True)
    except RecordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = build_record(runs, claim)
    record["revisions"] = {"parent": args.parent, "change": args.change}
    Path(args.output).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8")
    if claim is not None:
        c = record["claim"]
        print(f"claim {c['workload']} {c['metric']}: lower in {c['lower']}/{c['pairs']} pairs, "
              f"median {c['parent_median']:.4g} -> {c['change_median']:.4g}, parent IQR "
              f"{c['parent_iqr']:.4g}: {'met' if c['met'] else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
