"""The subsense benchmark. Run it from the root of a checkout:

    python3 bench/run.py --workload quickstart --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

One workload prints a machine line, a detail line and, last, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, holding the
end-to-end metrics of BENCHMARK.json (``--trace 0``) or its per-layer
metrics (``--trace 1``). ``--workload all`` runs every workload untraced and
prints one row per workload with every end-to-end metric, the gated ones
and the ones only reported.

Each run sets the workload up ``SETUP_REPS`` times in worker processes,
interpreter start-up included, then runs measured iterations, one worker
each, while the next one is expected to end within ``--seconds``; there is
always at least one. A traced run adds one traced iteration after a plain
one.

The machine is shared, and its speed swings by tens of percent over
minutes. So during each iteration a timer samples a fixed reference
computation (``reference.py``); weighted by the workload's mix of numpy and
Python work it gives the machine's ``slowdown`` against nominal speed, and
``wall_norm`` is the measured wall time divided by it, in seconds at
nominal speed. Raw ``wall_s`` is reported too. Set-up is gauged by a
reference process (``python3 bench/reference.py``) before and after each
set-up worker: ``setup_s`` is the median over the set-ups of each one's
wall time divided by the mean slowdown of the two reference processes
around it, also in seconds at nominal speed; raw ``setup_wall_s`` is
reported too.

Checks count toward ``failed``: every CLI command exits 0, every JSON
output parses, ss beats baseline on quickstart, set-up repeats byte for
byte, and the ss checkpoint and ``eval.json`` have one digest per program
version and seed, across iterations and across runs in this checkout (a
version is the files under ``src/`` and the benchmark's own modules). Work
files go to ``.bench_work/``; the spans of the last traced run of each
workload and seed stay there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import PROCESS_NOMINAL_S, slowdown
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
REFERENCE = BENCH_DIR / "reference.py"
SETUP_REPS = 5
DEADLINE_S = 170.0
BLAS_THREADS = "1"  # one BLAS thread keeps runs steady on a shared machine
# End-to-end metrics reported beside the gated ones of BENCHMARK.json: raw
# wall time follows the machine's speed, the throughputs exist on some
# workloads only, and the quality outcomes are fixed by the seed.
REPORTED_UNITS = {
    "setup_wall_s": "s", "wall_s": "s", "slowdown": "x", "train_examples_per_s": "1/s",
    "eval_comments_per_s": "1/s", "test_f1": "F1", "f1_gap": "F1",
    "fp_with_identity": "count", "failed_share": "share",
}


class BenchError(Exception):
    pass


def _worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run(script: Path, args, env, deadline: float) -> tuple[str, float]:
    """Run a script of the benchmark to completion; returns its stdout and
    wall time."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(script), *args], env=env, stdout=subprocess.PIPE,
            text=True, timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script.name} {' '.join(args[:2])} ran past the deadline") from None
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{script.name} {' '.join(args[:2])} exited {proc.returncode}")
    return proc.stdout, elapsed


def _run_worker(args, env, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its JSON result and wall time."""
    stdout, elapsed = _run(WORKER, args, env, deadline)
    return json.loads(stdout.strip().splitlines()[-1]), elapsed


def _reference_slowdown(env, deadline: float) -> float:
    """The machine's slowdown for set-up, from one reference process."""
    return _run(REFERENCE, [], env, deadline)[1] / PROCESS_NOMINAL_S


def _version_digest(root: Path) -> str:
    """Identifies what produces the outputs: every file under src/ but caches,
    and the benchmark's own modules, which define the inputs and commands."""
    h = hashlib.sha256()
    for base, pattern in ((root / "src", "**/*"), (BENCH_DIR, "*.py")):
        for path in sorted(base.glob(pattern)):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(f"{base.name}/{path.relative_to(base)}".encode() + b"\0"
                         + path.read_bytes())
    return h.hexdigest()


def _check_ledger(ledger_path: Path, key: str, digests: dict) -> bool:
    """Record the digests of a version and seed, or compare with the record."""
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    if key in ledger:
        return ledger[key] == digests
    ledger[key] = digests
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, ledger_path)
    return True


def run_workload(root: Path, name: str, seed: int, seconds: float, traced: bool) -> dict:
    wl = WORKLOADS[name]
    work_root = root / ".bench_work"
    work = work_root / f"{name}-seed{seed}-{os.getpid()}"
    env = _worker_env(root)
    deadline = time.monotonic() + DEADLINE_S
    spans_path = work_root / f"spans-{name}-seed{seed}.csv.gz"
    setups, setup_times, iterations = [], [], []
    setup_slowdowns = [_reference_slowdown(env, deadline)]
    try:
        for rep in range(SETUP_REPS):
            out, elapsed = _run_worker(
                ["setup", name, str(seed), str(work / f"setup{rep}")], env, deadline)
            setups.append(out)
            setup_times.append(elapsed)
            setup_slowdowns.append(_reference_slowdown(env, deadline))
        measure = ["measure", name, str(seed), str(work / "setup0")]
        start = time.perf_counter()
        while True:
            out, _ = _run_worker([*measure, "0", "-", "0" if iterations else "1"], env, deadline)
            iterations.append(out)
            typical = statistics.median(it["wall_s"] for it in iterations)
            if traced or time.perf_counter() - start + typical > seconds:
                break
        if traced:
            out, _ = _run_worker([*measure, "1", str(spans_path), "0"], env, deadline)
            iterations.append(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for it in iterations:
        it["slowdown"] = slowdown(it["reference_s"], wl.mix)
        it["wall_norm"] = it["wall_s"] / it["slowdown"]
    plain = [it for it in iterations if not it["traced"]]
    checks = [tuple(c) for s in setups for c in s["checks"]]
    checks += [tuple(c) for it in iterations for c in it["checks"]]
    checks.append(("set-up repeats byte for byte",
                   all(s["digests"] == setups[0]["digests"] for s in setups)))
    digests = iterations[0]["digests"]
    checks.append(("ss checkpoint and eval.json repeat across iterations",
                   None not in digests.values()
                   and all(it["digests"] == digests for it in iterations)))
    key = f"{_version_digest(root)}/{name}/seed{seed}"
    checks.append(("ss checkpoint and eval.json repeat across runs",
                   _check_ledger(work_root / "digests.json", key, digests)))
    failures = [label for label, ok in checks if not ok]

    train_rates = [it["train_rows"] / it["train_s"] for it in plain if it["train_s"] > 0]
    eval_rates = [it["eval_comments"] / it["eval_s"] for it in plain if it["eval_s"] > 0]
    quality = plain[0]["quality"]
    values = {
        "setup_s": statistics.median(
            t / ((before + after) / 2)
            for t, before, after in zip(setup_times, setup_slowdowns, setup_slowdowns[1:])),
        "setup_wall_s": statistics.median(setup_times),
        "wall_norm": statistics.median(it["wall_norm"] for it in plain),
        "peak_rss_mb": max(it["peak_rss_mb"] for it in plain),
        "wall_s": statistics.median(it["wall_s"] for it in plain),
        "slowdown": statistics.median(it["slowdown"] for it in plain),
        "train_examples_per_s": statistics.median(train_rates) if train_rates else None,
        "eval_comments_per_s": statistics.median(eval_rates) if eval_rates else None,
        "test_f1": quality.get("test_f1"),
        "f1_gap": quality.get("f1_gap"),
        "fp_with_identity": quality.get("fp_with_identity"),
        "failed_share": len(failures) / len(checks),
    }
    detail = {
        "workload": name, "seed": seed, "iterations": len(plain), "setup_reps": SETUP_REPS,
        "setup_s_each": setup_times,
        "setup_slowdown": setup_slowdowns,
        "iteration_wall_s": [it["wall_s"] for it in plain],
        "iteration_slowdown": [it["slowdown"] for it in plain],
        "commands": plain[0]["commands"],
        "quality": quality,
        "input": plain[0]["input"],
        "digests": digests,
        "failures": failures,
    }
    if traced:
        traced_it = iterations[-1]
        values.update(traced_it["layers"])
        # Traced minus untraced wall time, both at the untraced run's machine speed.
        values["trace.overhead_s"] = plain[0]["slowdown"] * (
            traced_it["wall_norm"] - plain[0]["wall_norm"])
        detail["unmeasured"] = traced_it["unmeasured"]
        detail["spans"] = str(spans_path.relative_to(root))
    return {"machine": plain[0]["machine"], "detail": detail, "values": values,
            "correct": not failures, "attempted": len(checks), "failed": len(failures)}


def _table(spec, runs) -> str:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | REPORTED_UNITS
    lines = [["workload"] + [f"{k} [{u}]" for k, u in units.items()]]
    for name, run in runs:
        row = run["values"]
        lines.append([name] + ["-" if row[k] is None else f"{row[k]:.4g}" for k in units])
    widths = [max(len(line[i]) for line in lines) for i in range(len(lines[0]))]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip()
                     for line in lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "subsense" / "cli.py").is_file():
        print("error: run from the root of a subsense checkout (src/subsense is missing)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced = bool(args.trace) and args.workload != "all"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    runs = []
    try:
        for name in names:
            runs.append((name, run_workload(root, name, args.seed, args.seconds, traced)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for _, run in runs:
        if run["detail"]["failures"]:
            print(f"failed checks: {run['detail']['failures']}", file=sys.stderr)
    print(json.dumps({"machine": runs[0][1]["machine"]}))
    if args.workload == "all":
        print(_table(spec, runs))
        return 0
    run = runs[0][1]
    print(json.dumps({"detail": run["detail"]}))
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    metrics = {m["name"]: {"value": run["values"][m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
