"""End-to-end acceptance suite.

Runs every shipped acceptance check at its stated tolerance and prints one
``[A#] PASS/FAIL`` line per check (visible with ``pytest -s`` or ``-v -s``).
Checks A7b and A10b need the public corpora under $SUBSENSE_DATA_DIR and
skip otherwise; their fixture-level counterparts always run.
"""

import dataclasses
import json
import math
import os
import random
import time
from pathlib import Path

import numpy as np
import pytest

from subsense import audit, cli
from subsense import augment as ag
from subsense import datasets as ds
from subsense import encoder as enc
from subsense import identity as idn
from subsense import subjectivity as sj
from subsense import textprep as tp
from subsense import trainer as tr

import oracles
from conftest import DATA_DIR
from score_vectors import PAIRED_COMMENTS, SPOT_SCORES

CORPORA_ENV = "SUBSENSE_DATA_DIR"


def verdict(tag: str, ok: bool, detail: str = ""):
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}{' ' + detail if detail else ''}")
    assert ok, f"{tag}: {detail}"


# ---------------------------------------------------------------------------
# Shared synthetic task: corpus, splits, and six trained models.

SYNTH_MAX_LEN = 16


@pytest.fixture(scope="module")
def synth_task():
    corpus = ds.synth_generate(2000, theta=0.5, noise=0.0, seed=42)
    train, val, test = ds.split(list(corpus.comments), seed=7)
    vocab = tp.build_vocab(train, max_size=400, min_freq=2)
    return {
        "corpus": corpus,
        "splits": (train, val, test),
        "vocab": vocab,
        "id_lex": idn.default_terms(),
    }


def _prepared(task, comments, mode):
    return tr.prepare_examples(
        comments, task["vocab"], task["corpus"].lexicon, task["id_lex"],
        SYNTH_MAX_LEN, mode,
    )


@pytest.fixture(scope="module")
def trained_runs(synth_task):
    """(mode, seed) -> trained params/config/test F1 for 3 seeds x 2 modes."""
    train, val, test = synth_task["splits"]
    schedule = tr.TrainSchedule(
        batch_size=32, lr0=1e-3, val_every=100, max_halvings=5, epoch_cap=12
    )
    runs = {}
    started = time.perf_counter()
    for mode in (ag.AugmentMode.SS, ag.AugmentMode.BASELINE):
        train_set = _prepared(synth_task, train, mode)
        val_set = _prepared(synth_task, val, mode)
        test_set = _prepared(synth_task, test, mode)
        for seed in (1, 2, 3):
            config = enc.ModelConfig(
                max_len=SYNTH_MAX_LEN, vocab_size=len(synth_task["vocab"]),
                d_model=32, n_heads=2, n_layers=1, d_ff=64,
                dropout_rate=0.1, seed=seed,
            )
            params, history = tr.train(
                train_set, val_set, config, schedule, mode, seed=seed
            )
            preds, _ = tr.predict_batch(params, config, test_set.data)
            test_f1 = audit.f1(audit.confusion(preds, test_set.labels))
            runs[(mode, seed)] = {
                "params": params, "config": config, "test_set": test_set,
                "f1": test_f1, "history": history,
            }
    runs["elapsed"] = time.perf_counter() - started
    return runs


# ---------------------------------------------------------------------------
# A1: mask-gate equivalence.

NEUTRAL_WORDS = [
    "the", "a", "report", "meeting", "garden", "boring", "sad", "nice",
    "river", "schedule", "very", "good", "plain", "budget", "tuesday",
]


def test_a01_mask_gate_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    lexicon = sj.default_lexicon()
    terms = idn.default_terms()
    dims = [(8, 1), (8, 2), (16, 2), (16, 4), (32, 4)]
    triples = 0
    worst = 0.0
    for setup in range(25):
        d_model, n_heads = dims[setup % len(dims)]
        config = enc.ModelConfig(
            max_len=int(rng.choice([6, 8, 12])), vocab_size=32,
            d_model=d_model, n_heads=n_heads, n_layers=int(rng.integers(0, 3)),
            d_ff=int(rng.choice([16, 32])), dropout_rate=0.0, seed=setup,
        )
        vocab = tp.Vocab.from_tokens(NEUTRAL_WORDS)
        params = enc.init(config)
        ss_batch, base_batch = [], []
        for _ in range(40):
            n_tokens = int(rng.integers(1, config.max_len - 1))
            words = [NEUTRAL_WORDS[rng.integers(len(NEUTRAL_WORDS))] for _ in range(n_tokens)]
            text = " ".join(words)
            assert not idn.detect(text, terms).present
            s = sj.score(text, lexicon)
            encoded = oracles.encode(tp.word_split(text), vocab, config.max_len)
            ss_batch.append(oracles.augment(encoded, s, False, ag.AugmentMode.SS))
            base_batch.append(oracles.augment(encoded, s, False, ag.AugmentMode.BASELINE))
            triples += 1
        ss_logits, _ = enc.forward(oracles.assemble(ss_batch, config), params, config)
        base_logits, _ = enc.forward(oracles.assemble(base_batch, config), params, config)
        worst = max(worst, float(np.max(np.abs(ss_logits - base_logits))))
    elapsed = time.perf_counter() - started
    verdict(
        "A1", triples >= 1000 and worst <= 1e-9 and elapsed < 60,
        f"{triples} triples, worst |logit diff| {worst:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# A2: slot liveness on a trained model.

def test_a02_slot_liveness(trained_runs):
    started = time.perf_counter()
    run = trained_runs[(ag.AugmentMode.SS, 1)]
    params, config = run["params"], run["config"]

    def toxic_logit(example):
        logits, _ = enc.forward(oracles.assemble([example], config), params, config)
        return float(logits[0, ds.Label.TOXIC])

    gated_on = [e.aug for e in oracles.rows(run["test_set"]) if e.aug.slot_mask == 1]
    gated_off = [e.aug for e in oracles.rows(run["test_set"]) if e.aug.slot_mask == 0]
    assert len(gated_on) >= 30 and len(gated_off) >= 30

    changed = 0
    for ex in gated_on:
        base = toxic_logit(ex)
        deltas = []
        for step in (0.1, -0.1):
            fill = ex.slot_fill + step
            if 0.0 <= fill <= 1.0:
                deltas.append(toxic_logit(dataclasses.replace(ex, slot_fill=fill)) - base)
        if deltas and all(abs(d) > 0.0 for d in deltas):
            changed += 1
    fraction = changed / len(gated_on)

    frozen = 0
    for ex in gated_off:
        base = toxic_logit(ex)
        for step in (0.1, -0.1):
            fill = ex.slot_fill + step
            if 0.0 <= fill <= 1.0:
                if toxic_logit(dataclasses.replace(ex, slot_fill=fill)) != base:
                    frozen += 1
    elapsed = time.perf_counter() - started
    verdict(
        "A2", fraction >= 0.9 and frozen == 0 and elapsed < 60,
        f"gated-on changed {fraction:.1%} of {len(gated_on)}, "
        f"gated-off changed {frozen}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# A3: full-parameter gradient oracle via central differences.

def test_a03_gradient_oracle():
    started = time.perf_counter()
    config = enc.ModelConfig(
        max_len=6, vocab_size=11, d_model=8, n_heads=2, n_layers=1, d_ff=16,
        dropout_rate=0.0, seed=3,
    )
    vocab = tp.Vocab.from_tokens(["a", "b", "c", "d", "e", "f", "g"])
    batch = [
        oracles.AugmentedExample(oracles.encode(["a", "b", "c"], vocab, 6), 0.73, 1,
                                 ag.AugmentMode.SS),
        oracles.AugmentedExample(oracles.encode(["d", "e"], vocab, 6), 0.21, 0,
                                 ag.AugmentMode.SS),
    ]
    labels = np.array([int(ds.Label.TOXIC), int(ds.Label.NONTOXIC)])
    weights = tr.ClassWeights(1.0, 1.0)
    params = enc.init(config)

    def loss_of(current_batch=batch):
        logits, _ = enc.forward(oracles.assemble(current_batch, config), params, config)
        value, _ = tr._batch_loss_grad(logits, labels, weights)
        return value

    logits, cache = enc.forward(oracles.assemble(batch, config), params, config,
                                train_mode=True)
    _, dlogits = tr._batch_loss_grad(logits, labels, weights)
    grads, slot_grad = enc.backward(cache, params, config, dlogits)

    h = 1e-5
    worst = 0.0
    worst_at = ""
    n_checked = 0
    for name, tensor in params.items():
        grad = grads[name].reshape(-1)
        flat = tensor.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_of()
            flat[i] = orig - h
            down = loss_of()
            flat[i] = orig
            fd = (up - down) / (2 * h)
            rel = abs(grad[i] - fd) / max(abs(grad[i]), abs(fd), 1e-4)
            n_checked += 1
            if rel > worst:
                worst, worst_at = rel, f"{name}[{i}]"

    # Slot-fill path: perturb each example's fill value directly.
    for row, ex in enumerate(batch):
        plus = [*batch]
        minus = [*batch]
        plus[row] = dataclasses.replace(ex, slot_fill=ex.slot_fill + h)
        minus[row] = dataclasses.replace(ex, slot_fill=ex.slot_fill - h)
        fd = (loss_of(plus) - loss_of(minus)) / (2 * h)
        rel = abs(slot_grad[row] - fd) / max(abs(slot_grad[row]), abs(fd), 1e-4)
        n_checked += 1
        if rel > worst:
            worst, worst_at = rel, f"slot_fill[{row}]"
    assert slot_grad[1] == 0.0  # masked slot is disconnected

    elapsed = time.perf_counter() - started
    verdict(
        "A3", worst < 1e-4 and elapsed < 120,
        f"{n_checked} coordinates, max rel err {worst:.2e} at {worst_at}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# A4: synthetic separation between gated and baseline models.

def test_a04_synthetic_separation(trained_runs):
    rows = []
    ok = True
    for seed in (1, 2, 3):
        ss_f1 = trained_runs[(ag.AugmentMode.SS, seed)]["f1"]
        base_f1 = trained_runs[(ag.AugmentMode.BASELINE, seed)]["f1"]
        rows.append(f"seed {seed}: ss {ss_f1:.4f} baseline {base_f1:.4f}")
        ok = ok and ss_f1 >= 0.95 and (ss_f1 - base_f1) >= 0.05
    elapsed = trained_runs["elapsed"]
    ok = ok and elapsed < 300
    verdict("A4", ok, "; ".join(rows) + f"; train time {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# A5: learning-rate schedule conformance on the scripted F1 sequence.

def test_a05_schedule_conformance():
    script = [0.5, 0.6, 0.55, 0.7, 0.65, 0.6, 0.8, 0.75, 0.7, 0.65]
    ctrl = tr.HalvingController(lr=2e-5, max_halvings=5)
    halved_at = []
    consumed = 0
    for i, f1_value in enumerate(script, start=1):
        consumed = i
        if ctrl.observe(f1_value) == "halved":
            halved_at.append(i)
        if ctrl.exhausted:
            break
    ok = (
        halved_at == [3, 5, 6, 8, 9]
        and consumed == 9
        and ctrl.exhausted
        and ctrl.lr == pytest.approx(2e-5 * 0.5**5)
    )
    verdict("A5", ok, f"halvings at {halved_at}, stopped after evaluation {consumed}")


# ---------------------------------------------------------------------------
# A6: subjectivity fidelity on the paired comment vectors.

def test_a06_subjectivity_fidelity():
    lexicon = sj.default_lexicon()
    details = []
    ok = True
    for key, pair in PAIRED_COMMENTS.items():
        toxic = sj.score(pair["toxic"], lexicon).value
        nontoxic = sj.score(pair["nontoxic"], lexicon).value
        ok = ok and toxic >= nontoxic
        details.append(f"{key} {toxic:.4f}>={nontoxic:.4f}")
    for key, expected in SPOT_SCORES.items():
        got = sj.score(PAIRED_COMMENTS[key]["toxic"], lexicon).value
        ok = ok and abs(got - expected) <= 0.05
        details.append(f"{key} spot {got:.4f}~{expected}")
    verdict("A6", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# A7: conversion counts (fixtures always; full corpora when available).

def test_a07_conversion_fixtures():
    checks = [
        ("ws_10.csv", ds.DatasetKind.WS, 10, 10, 3, 0),
        ("twitter18k_10.csv", ds.DatasetKind.TWITTER18K, 10, 10, 5, 0),
        ("twitter42k_10.csv", ds.DatasetKind.TWITTER42K, 10, 8, 3, 2),
        ("wiki_10.csv", ds.DatasetKind.WIKI, 10, 10, 5, 0),
    ]
    ok = True
    details = []
    for name, kind, n_in, n_kept, n_toxic, n_dropped in checks:
        result = ds.convert(kind, ds.load_rows(DATA_DIR / name))
        good = (
            result.n_input == n_in and len(result.comments) == n_kept
            and result.n_toxic == n_toxic and result.n_dropped == n_dropped
        )
        ok = ok and good
        details.append(f"{kind.value} kept {len(result.comments)}/{result.n_input}")
    verdict("A7", ok, "; ".join(details) + " (schema fixtures)")


def _corpora_dir():
    path = os.environ.get(CORPORA_ENV)
    return Path(path) if path else None


@pytest.mark.skipif(_corpora_dir() is None, reason=f"{CORPORA_ENV} not set")
def test_a07b_conversion_full_corpora():
    base = _corpora_dir()
    t42 = ds.convert(ds.DatasetKind.TWITTER42K, ds.load_rows(base / "twitter42k.csv"))
    t18 = ds.convert(ds.DatasetKind.TWITTER18K, ds.load_rows(base / "twitter18k.csv"))
    wiki = ds.convert(ds.DatasetKind.WIKI, ds.load_rows(base / "wiki.csv"))
    ok = (
        (len(t42.comments), t42.n_toxic) == (42314, 5705)
        and (len(t18.comments), t18.n_toxic) == (18625, 5814)
        and (len(wiki.comments), wiki.n_toxic) == (159571, 16225)
    )
    verdict("A7b", ok, "full-corpora conversion counts")


# ---------------------------------------------------------------------------
# A8: audit oracle on 500 random synthetic predictions.

def test_a08_audit_oracle():
    started = time.perf_counter()
    corpus = ds.synth_generate(500, theta=0.5, noise=0.0, seed=77)
    rng = random.Random(99)
    comments = list(corpus.comments)
    preds = [rng.choice([ds.Label.TOXIC, ds.Label.NONTOXIC]) for _ in comments]
    golds = [c.label for c in comments]
    terms = idn.default_terms()
    cells = audit.bias_groups(preds, golds, oracles.features(comments, terms, corpus.lexicon))

    # Brute-force oracle: independent grouping and quantile arithmetic.
    expected: dict = {}
    for comment, pred, gold in zip(comments, preds, golds):
        if pred == ds.Label.TOXIC:
            outcome = "TP" if gold == ds.Label.TOXIC else "FP"
        else:
            outcome = "FN" if gold == ds.Label.TOXIC else "TN"
        present = idn.detect(comment.text, terms).present
        expected.setdefault((outcome, present), []).append(
            sj.score(comment.text, corpus.lexicon).value
        )

    def quantile(values, q):
        ordered = sorted(values)
        if len(ordered) == 1:
            return ordered[0]
        h = (len(ordered) - 1) * q
        lo = math.floor(h)
        hi = min(lo + 1, len(ordered) - 1)
        return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo])

    ok = sum(cell.size for cell in cells.values()) == 500
    for key, cell in cells.items():
        values = expected.get(key, [])
        ok = ok and sorted(cell.scores) == sorted(values)
        if values:
            stats = (cell.stats.low, cell.stats.q1, cell.stats.median,
                     cell.stats.q3, cell.stats.high)
            oracle = (min(values), quantile(values, 0.25), quantile(values, 0.5),
                      quantile(values, 0.75), max(values))
            ok = ok and stats == oracle
        else:
            ok = ok and cell.stats is None
    elapsed = time.perf_counter() - started
    verdict("A8", ok and elapsed < 10, f"8 cells over 500 predictions, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# A9: aggregation format over 10 seeded synthetic runs through the CLI.

def test_a09_aggregation_format(tmp_path, capsys):
    root = tmp_path
    data = root / "data"
    assert cli.dispatch(["synth", "--n", "150", "--theta", "0.5", "--noise", "0.0",
                         "--seed", "11", "--outdir", str(data)]) == 0
    assert cli.dispatch(["split", "--input", str(data / "corpus.csv"),
                         "--outdir", str(data), "--seed", "2"]) == 0
    flags = [
        "--min-freq", "2", "--max-len", "16", "--d-model", "16", "--n-heads", "2",
        "--n-layers", "1", "--d-ff", "32", "--batch-size", "16", "--lr", "1e-3",
        "--val-every", "10", "--epoch-cap", "2", "--vocab-size", "500",
        "--lexicon", str(data / "lexicon.tsv"),
    ]
    manifests = []
    for mode in ("ss", "baseline"):
        for seed in range(1, 6):
            rundir = root / f"run-{mode}-{seed}"
            assert cli.dispatch([
                "train", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
                "--mode", mode, "--seed", str(seed), "--outdir", str(rundir), *flags,
            ]) == 0
            assert cli.dispatch(["eval", "--manifest", str(rundir / "manifest.json"),
                                 "--test", str(data / "test.csv")]) == 0
            manifests.append(rundir / "manifest.json")
    capsys.readouterr()
    assert cli.dispatch(["compare", *[str(m) for m in manifests],
                         "--output", str(root / "compare.json")]) == 0
    out = capsys.readouterr().out

    ss_f1s = [
        json.loads((root / f"run-ss-{seed}" / "eval.json").read_text())["f1"]
        for seed in range(1, 6)
    ]
    mean = sum(ss_f1s) / 5
    population_std = math.sqrt(sum((x - mean) ** 2 for x in ss_f1s) / 5)
    summary = json.loads((root / "compare.json").read_text())

    header_ok = all(col in out for col in ("Model", "F1", "std", "FP", "FN"))
    rows_ok = "ss" in out and "baseline" in out
    std_ok = abs(summary["ss"]["std"] - population_std) < 1e-12
    runs_ok = summary["ss"]["runs"] == 5 and summary["baseline"]["runs"] == 5
    formatted_ok = f"{summary['ss']['f1']:.4f}" in out and f"{summary['ss']['std']:.4f}" in out
    ok = header_ok and rows_ok and std_ok and runs_ok and formatted_ok
    verdict(
        "A9", ok,
        f"10 runs aggregated; ss mean {mean:.4f} population std {population_std:.4f}",
    )


# ---------------------------------------------------------------------------
# A10: identity-term coverage.

def test_a10_coverage_fixture():
    corpus = ds.synth_generate(400, theta=0.5, noise=0.0, seed=13)
    from fractions import Fraction

    planted = Fraction(sum(1 for r in corpus.planted.values() if r.has_identity), 400)
    got = idn.coverage(list(corpus.comments), idn.default_terms())
    handcrafted = [
        "the women met", "the gay couple", "a muslim family",  # 3 hits
        "plain text", "garden notes", "tax forms", "river report",
        "bus schedule", "quiet evening", "budget memo",
    ]
    fixture_cov = idn.coverage(handcrafted, idn.default_terms())
    ok = got == float(round(planted, 4)) and fixture_cov == 0.3
    verdict("A10", ok, f"synthetic coverage {got:.4f}, fixture coverage {fixture_cov:.4f}")


@pytest.mark.skipif(_corpora_dir() is None, reason=f"{CORPORA_ENV} not set")
def test_a10b_coverage_full_corpora():
    base = _corpora_dir()
    terms = idn.default_terms()
    expectations = [
        ("ws.csv", ds.DatasetKind.WS, 0.2120),
        ("twitter18k.csv", ds.DatasetKind.TWITTER18K, 0.1990),
        ("twitter42k.csv", ds.DatasetKind.TWITTER42K, 0.0422),
        ("wiki.csv", ds.DatasetKind.WIKI, 0.0602),
    ]
    ok = True
    details = []
    for name, kind, expected in expectations:
        result = ds.convert(kind, ds.load_rows(base / name))
        got = idn.coverage(list(result.comments), terms)
        ok = ok and abs(got - expected) <= 0.005
        details.append(f"{kind.value} {got:.4f}~{expected:.4f}")
    verdict("A10b", ok, "; ".join(details))
