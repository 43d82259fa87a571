"""The recorder's parsing and statistics, on made-up run output (no
benchmark runs)."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import record_bench as rb  # noqa: E402

MACHINE = {"python": "3.11.7", "numpy": "2.4.6", "nproc": 2}


def run_stdout(setup_s=1.2, wall_norm=0.7, peak=55.0, walls=(1.0, 3.0, 2.0),
               slowdowns=(1.5, 1.1, 1.3), failed=0):
    """What ``bench/run.py --workload W`` prints: the machine, detail and
    result lines, here after a stray line of text."""
    detail = {"workload": "bulk_audit", "iteration_wall_s": list(walls),
              "iteration_slowdown": list(slowdowns), "failures": []}
    metrics = {"setup_s": {"value": setup_s, "unit": "s"},
               "wall_norm": {"value": wall_norm, "unit": "nominal_s"},
               "peak_rss_mb": {"value": peak, "unit": "MB"}}
    result = {"correct": failed == 0, "attempted": 103, "failed": failed, "metrics": metrics}
    return "\n".join(["note", json.dumps({"machine": MACHINE}), json.dumps({"detail": detail}),
                      json.dumps(result)]) + "\n"


def test_parse_run_reads_gated_metrics_and_raw_medians():
    run = rb.parse_run(run_stdout())
    assert run["machine"] == MACHINE
    assert run["values"] == {"setup_s": 1.2, "wall_norm": 0.7, "peak_rss_mb": 55.0,
                             "wall_s": 2.0, "slowdown": 1.3}
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 103, 0)


def test_parse_run_refuses_output_without_result_lines():
    with pytest.raises(rb.RecordError):
        rb.parse_run('{"machine": {}}\n')


def test_summary_quartiles_interpolate_between_ranks():
    s = rb.summary([4.0, 1.0, 3.0, 2.0])
    assert (s["min"], s["q1"], s["median"], s["q3"], s["max"]) == (1.0, 1.75, 2.5, 3.25, 4.0)
    assert s["iqr"] == 1.5 and s["n"] == 4
    assert rb.summary([7.0])["iqr"] == 0.0
    with pytest.raises(ValueError):
        rb.summary([])


def test_wins_count_ties_for_neither_side():
    assert rb.wins([(2.0, 1.0), (1.0, 2.0), (1.0, 1.0), (3.0, 2.5)]) == {
        "pairs": 4, "lower": 2, "higher": 1, "ties": 1}


@pytest.mark.parametrize("pairs, met", [
    # lower in 10 of 10, gap 0.1 against an IQR of 0.045
    ([(0.70 + i / 100, 0.60 + i / 100) for i in range(10)], True),
    # lower in 9 of 10 still meets the rule
    ([(0.70 + i / 100, 0.60 + i / 100) for i in range(9)] + [(0.70, 0.75)], True),
    # lower in 8 of 10 does not
    ([(0.70 + i / 100, 0.60 + i / 100) for i in range(8)] + [(0.70, 0.75)] * 2, False),
    # lower in every pair, but by less than the parent's IQR
    ([(0.70 + i / 100, 0.69 + i / 100) for i in range(10)], False),
    # a tie counts for neither side
    ([(0.70 + i / 100, 0.60 + i / 100) for i in range(9)] + [(0.70, 0.70)], True),
    ([(0.70 + i / 100, 0.60 + i / 100) for i in range(8)] + [(0.70, 0.70)] * 2, False),
])
def test_claim_rule(pairs, met):
    assert rb.claim_verdict(pairs)["met"] is met


def test_pair_order_alternates():
    assert [rb.pair_order(i)[0] for i in range(4)] == ["parent", "change", "parent", "change"]


def test_build_record_pairs_runs_by_seed():
    runs = []
    for k, (parent, change) in enumerate([(0.72, 0.66), (0.70, 0.65), (0.74, 0.67)], start=1):
        for side, value in (("parent", parent), ("change", change)):
            runs.append({"workload": "bulk_audit", "seed": k, "side": side,
                         "first": rb.pair_order(k - 1)[0],
                         **rb.parse_run(run_stdout(wall_norm=value))})
    record = rb.build_record(runs, ("bulk_audit", "wall_norm"))
    entry = record["workloads"]["bulk_audit"]
    assert entry["parent"]["wall_norm"]["median"] == 0.72
    assert entry["change"]["wall_norm"]["median"] == 0.66
    assert entry["change_lower"]["wall_norm"] == {"pairs": 3, "lower": 3, "higher": 0,
                                                  "ties": 0}
    assert entry["change_lower"]["setup_s"]["ties"] == 3
    assert entry["failed_checks"] == {"parent": 0, "change": 0}
    claim = record["claim"]
    assert (claim["lower"], claim["pairs"], claim["met"]) == (3, 3, True)
    assert claim["median_gap"] == pytest.approx(0.06)
    assert record["machine"] == MACHINE
    assert len(record["runs"]) == 6
    json.dumps(record)  # the record is JSON as it stands


def test_make_clone_checks_out_the_revision_compiled(tmp_path):
    repo = tmp_path / "repo"
    for name in ("src", "bench"):
        (repo / name).mkdir(parents=True)
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    revisions = []
    for text in ("A = 1\n", "A = 2\n"):
        (repo / "src" / "m.py").write_text(text, encoding="utf-8")
        (repo / "bench" / "b.py").write_text(text, encoding="utf-8")
        subprocess.run([*git, "add", "-A"], cwd=repo, check=True)
        subprocess.run([*git, "commit", "-qm", text], cwd=repo, check=True)
        revisions.append(subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                                        capture_output=True, text=True).stdout.strip())
    clone = tmp_path / "parent"
    rb.make_clone(repo, revisions[0], clone)
    assert (clone / ".git").is_dir()
    assert (clone / "src" / "m.py").read_text(encoding="utf-8") == "A = 1\n"
    for name in ("src", "bench"):
        assert list((clone / name / "__pycache__").glob("*.pyc"))
    with pytest.raises(rb.RecordError):
        rb.make_clone(repo, revisions[1], clone)
