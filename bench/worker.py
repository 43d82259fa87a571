"""Child process of the benchmark: one set-up or one measured phase.

    python3 bench/worker.py setup   WORKLOAD SEED DIR
    python3 bench/worker.py measure WORKLOAD SEED DIR TRACE SPANS_PATH DESCRIBE

``bench/run.py`` starts it with ``PYTHONPATH`` pointing at the checkout's
``src``. Set-up generates the inputs and runs the set-up commands in DIR.
``measure`` runs one iteration of the workload's commands in DIR, traced
when TRACE is 1 (spans go to SPANS_PATH); DESCRIBE 1 adds the input
properties and the machine block. Commands go through
``subsense.cli.dispatch`` in this process. The last stdout line is one JSON
object describing what ran.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import gen
import reference
import tracing
from workloads import BATCH_SIZE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _csv_rows(path) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def _flags(argv) -> dict[str, str]:
    """Flag/value pairs of a command line whose flags all take a value."""
    return dict(zip(argv[1::2], argv[2::2]))


def _train_rows(argv) -> int:
    """Training rows a finished train command processed: every step takes
    the next batch of a fresh permutation each epoch."""
    flags = _flags(argv)
    n = _csv_rows(flags["--train"])
    steps = _csv_rows(Path(flags["--outdir"]) / "history.csv")
    per_epoch = math.ceil(n / BATCH_SIZE)
    full, rest = divmod(steps, per_epoch)
    return full * n + min(rest * BATCH_SIZE, n)


def run_commands(dispatch, commands, tracer=None, clock=time.perf_counter) -> list[dict]:
    """Run CLI commands back to back, timed by ``clock``; their stdout goes
    to the null device."""
    records = []
    with open(os.devnull, "w", encoding="utf-8") as sink, contextlib.redirect_stdout(sink):
        for argv in commands:
            start = clock()
            try:
                if tracer is None:
                    rc = dispatch(list(argv))
                else:
                    with tracer.span(f"cli.{argv[0]}"):
                        rc = dispatch(list(argv))
            except Exception:  # a crash is a failed operation, not the end of the run
                traceback.print_exc()
                rc = -1
            records.append({"argv": list(argv), "seconds": clock() - start, "rc": rc})
    return records


def _command_checks(records) -> list[tuple[str, bool]]:
    return [(f"{r['argv'][0]} exits 0", r["rc"] == 0) for r in records]


def _json_checks(directories) -> list[tuple[str, bool]]:
    checks = []
    for d in directories:
        for path in sorted(Path(d).rglob("*.json")):
            try:
                json.loads(path.read_text(encoding="utf-8"))
                checks.append((f"{path} parses", True))
            except (OSError, ValueError):
                checks.append((f"{path} parses", False))
    return checks


def _load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def _train_throughput(records) -> tuple[int, float]:
    rows = seconds = 0
    for r in records:
        if r["argv"][0] == "train" and r["rc"] == 0:
            rows += _train_rows(r["argv"])
            seconds += r["seconds"]
    return rows, seconds


def setup(workload: str, seed: int, directory: str) -> dict:
    from subsense.cli import dispatch  # import start-up belongs to set-up

    wl = WORKLOADS[workload]
    d = Path(directory)
    (d / "data").mkdir(parents=True)
    for part, n in wl.generated:
        gen.write_csv(gen.generate(n, seed, part), d / "data" / f"{part}.csv")
    os.chdir(d)
    records = run_commands(dispatch, wl.setup_commands(seed))
    # Every set-up file, the set-up checkpoint included, must repeat exactly.
    digests = {str(p): _sha256(p) for p in sorted(Path(".").rglob("*")) if p.is_file()}
    return {"checks": _command_checks(records) + _json_checks(["."]), "digests": digests}


def run_iteration(wl, seed: int, dispatch, tracer=None) -> dict:
    shutil.rmtree("iter", ignore_errors=True)
    os.mkdir("iter")
    with reference.SpeedGauge() as gauge:
        if tracer is not None:
            tracer.clock = gauge.clock
        records = run_commands(dispatch, wl.commands(seed), tracer, gauge.clock)
    wall = sum(r["seconds"] for r in records)

    checks = _command_checks(records) + _json_checks(["iter"])
    f1 = {}  # test F1 of each evaluated run, by run directory
    evaluated = eval_s = 0
    for r in records:
        if r["argv"][0] in ("eval", "audit") and r["rc"] == 0:
            flags = _flags(r["argv"])
            evaluated += _csv_rows(flags["--test"])
            eval_s += r["seconds"]
            report = _load_json(flags["--output"])
            if r["argv"][0] == "eval" and report is not None:
                f1[str(Path(flags["--manifest"]).parent)] = report["f1"]
    ss_audit = _load_json(Path(wl.ss_report) / "audit.json")
    checks.append(("ss eval.json and audit.json present", wl.ss_run in f1 and bool(ss_audit)))
    quality = {"test_f1": f1.get(wl.ss_run), "eval_f1": f1}
    if ss_audit:
        quality["fp_with_identity"] = ss_audit["named_groups"]["FPwIT"]["size"]
    if wl.baseline_run is not None:
        compared = wl.ss_run in f1 and wl.baseline_run in f1
        checks.append(("ss test F1 above baseline test F1",
                       compared and f1[wl.ss_run] > f1[wl.baseline_run]))
        if compared:
            quality["f1_gap"] = f1[wl.ss_run] - f1[wl.baseline_run]

    digests = {}
    for path in (Path(wl.ss_run) / "checkpoint.bin", Path(wl.ss_report) / "eval.json"):
        digests[str(path)] = _sha256(path) if path.exists() else None
    rows, train_s = _train_throughput(records)
    return {
        "wall_s": wall,
        "reference_s": gauge.seconds(),  # median time of each reference component
        "commands": [[r["argv"][0], r["seconds"], r["rc"]] for r in records],
        "checks": checks,
        "quality": quality,
        "digests": digests,
        "train_rows": rows,
        "train_s": train_s,
        "eval_comments": evaluated,
        "eval_s": eval_s,
        "traced": tracer is not None,
    }


def input_properties(wl) -> dict:
    """Identity share and mean real (unpadded) positions of the test comments."""
    from subsense import datasets, identity, textprep

    comments = datasets.read_canonical(wl.test_csv)
    config = _load_json(Path(wl.ss_run) / "config.json")
    max_len = config["model"]["max_len"]
    terms = identity.default_terms()
    with_identity = sum(1 for c in comments if identity.detect(c.text, terms).present)
    real = sum(min(len(textprep.word_split(c.text)), max_len - 2) + 2 for c in comments)
    return {
        "input.identity_share": with_identity / len(comments),
        "input.mean_real_tokens": real / len(comments),
        "input.max_len": max_len,
    }


def machine_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", f"default ({os.cpu_count()})"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def measure(workload: str, seed: int, directory: str, traced: bool, spans_path: str,
            describe: bool) -> dict:
    """One iteration of the measured phase, traced or not, in a fresh process
    so that every iteration starts as cold as a CLI invocation does."""
    import subsense
    from subsense.cli import dispatch

    source = Path(subsense.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise SystemExit(f"subsense imported from {source}, not from {ROOT / 'src'}")
    wl = WORKLOADS[workload]
    os.chdir(directory)
    if not traced:
        result = run_iteration(wl, seed, dispatch)
    else:
        tracer = tracing.Tracer(f"{workload}-seed{seed}-{os.getpid()}")
        tracer.install()
        try:
            result = run_iteration(wl, seed, dispatch, tracer)
        finally:
            tracer.restore()
        n_comments = sum(_csv_rows(p) for p in wl.input_csvs)
        calls = tracing.call_counts(tracer)
        result["layers"] = tracing.layer_metrics(tracer, n_comments)
        result["unmeasured"] = sorted(
            {name for name in wl.expected_layers if calls.get(name, 0) == 0}
            | set(tracer.missing)
            | ({"encoder.padded_share"} if not tracer.padding_measured else set())
        )
        tracer.write(spans_path)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if describe:
        result["input"] = input_properties(wl)
        result["machine"] = machine_block()
    return result


def main(argv) -> int:
    phase, workload, seed, directory, *rest = argv
    if phase == "setup":
        out = setup(workload, int(seed), directory)
    elif phase == "measure":
        traced, spans_path, describe = rest
        out = measure(workload, int(seed), directory, traced == "1", spans_path, describe == "1")
    else:
        raise SystemExit(f"unknown phase {phase!r}")
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
