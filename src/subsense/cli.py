"""Command-line entry point wiring scoring, conversion, splitting, training,
evaluation, auditing and run comparison.

Exit codes: 0 success, 1 usage error, 2 data, contract or file error. Every train
run writes a manifest capturing the configuration digest, seed, mode and
input digests needed to reproduce it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

from . import audit, datasets, encoder, identity, subjectivity, textprep, trainer
from .atomic import replacing
from .augment import AugmentMode
from .errors import (
    ConfigError, ContractError, ResourceError, SchemaError, SubsenseError, UsageError,
    check_fields,
)

MANIFEST_VERSION = 1
# Manifest keys that eval, audit and compare read.
MANIFEST_KEYS = (
    "config_digest", "seed", "mode", "soc_weight", "dataset_id", "lexicon",
    "identity_terms", "artifacts",
)
ARTIFACT_KEYS = ("checkpoint", "config", "vocab", "eval_report", "audit_report")
# eval writes its predictions beside its report and audit reads them from
# beside its own, so an audit never runs the encoder again.
PREDICTIONS_FILE = "predictions.csv"
PREDICTION_COLUMNS = ["id", "pred", "p_toxic", "subjectivity", "terms"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


def _read_json(path, error):
    """Parse a JSON file; malformed content raises ``error``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{path} is not valid JSON: {exc}") from None


def _write_json(obj, path) -> None:
    """Stream ``obj`` to ``path`` as indented JSON: a large audit report is
    never held as one string, and a failed write leaves no partial file."""
    with replacing(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _resolve_subj_lexicon(path_arg):
    """Explicit flag beats SUBSENSE_LEXICON beats the packaged lexicon."""
    if path_arg:
        p = str(path_arg)
        if p.endswith(".tsv"):
            return subjectivity.load_lexicon_tsv(p), p
        return subjectivity.load_lexicon(p), p
    env = os.environ.get(subjectivity.ENV_LEXICON)
    if env:
        return subjectivity.default_lexicon(), env
    return subjectivity.default_lexicon(), "packaged"


def _resolve_id_lexicon(path_arg):
    if path_arg:
        return identity.load_terms(path_arg), str(path_arg)
    return identity.default_terms(), "paper-25"


def _cmd_score(args) -> int:
    lexicon, _ = _resolve_subj_lexicon(args.lexicon)
    terms, _ = _resolve_id_lexicon(args.identity_terms)
    if args.text is None and args.file is None:
        raise UsageError("score needs --text or --file")
    if args.text is not None:
        texts = [args.text]
    else:
        src = Path(args.file)
        if not src.exists():
            raise ResourceError(f"input file not found: {src}")
        texts = [line for line in src.read_text(encoding="utf-8").splitlines() if line]
    for text in texts:
        s = subjectivity.score(text, lexicon)
        match = identity.detect(text, terms)
        matched = " ".join(match.terms) if match.present else "-"
        print(f"subjectivity {s.value:.4f}")
        print(f"identity present={'true' if match.present else 'false'} matched: {matched}")
    return 0


def _cmd_convert(args) -> int:
    kind = datasets.DatasetKind.parse(args.kind)
    result = datasets.convert(kind, datasets.load_rows(args.input))
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    datasets.write_canonical(result.comments, out)
    print(
        f"read {result.n_input} rows, kept {len(result.comments)} "
        f"(toxic {result.n_toxic}, nontoxic {result.n_nontoxic}), dropped {result.n_dropped}"
    )
    return 0


def _cmd_split(args) -> int:
    comments = datasets.read_canonical(args.input)
    train, val, test = datasets.split(comments, args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, part in (("train", train), ("val", val), ("test", test)):
        datasets.write_canonical(part, outdir / f"{name}.csv")
    print(f"split {len(comments)} -> train {len(train)} / val {len(val)} / test {len(test)}")
    return 0


def _cmd_synth(args) -> int:
    corpus = datasets.synth_generate(args.n, args.theta, args.noise, args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    datasets.write_canonical(corpus.comments, outdir / "corpus.csv")
    subjectivity.write_lexicon_tsv(corpus.lexicon, outdir / "lexicon.tsv")
    planted = {
        cid: {
            "score": rec.score,
            "has_identity": rec.has_identity,
            "rule_label": str(rec.rule_label),
            "label": str(rec.label),
        }
        for cid, rec in corpus.planted.items()
    }
    _write_json(
        {"n": args.n, "theta": args.theta, "noise": args.noise, "seed": args.seed,
         "records": planted},
        outdir / "planted.json",
    )
    n_toxic = sum(1 for c in corpus.comments if c.label is datasets.Label.TOXIC)
    print(f"generated {len(corpus.comments)} comments ({n_toxic} toxic) in {outdir}")
    return 0


def _checked_section(doc, section: str, cls, path, error) -> dict:
    """The ``section`` object of a parsed JSON file, its keys and values
    checked against the fields of ``cls`` by ``check_fields``; anything else
    raises ``error`` naming ``path``."""
    values = doc.get(section, {}) if isinstance(doc, dict) else None
    if not isinstance(values, dict):
        raise error(f"{path}: {section!r} must be a JSON object")
    try:
        check_fields(cls, values, section)
    except ConfigError as exc:
        raise error(f"{path}: {exc}") from None
    return values


def _config_section(args, section: str, cls) -> dict:
    """The checked ``section`` object of the --config file; empty without
    --config."""
    if not args.config:
        return {}
    return _checked_section(_read_json(args.config, ConfigError), section, cls,
                            args.config, ConfigError)


def _model_config_from_args(args, vocab_size: int) -> encoder.ModelConfig:
    base = _config_section(args, "model", encoder.ModelConfig)
    values = {
        "max_len": args.max_len, "d_model": args.d_model, "n_heads": args.n_heads,
        "n_layers": args.n_layers, "d_ff": args.d_ff, "dropout_rate": args.dropout,
    }
    merged = {**base, **{k: v for k, v in values.items() if v is not None}}
    merged.setdefault("max_len", 128)
    merged["vocab_size"] = vocab_size
    merged["seed"] = args.seed
    return encoder.ModelConfig(**merged)


def _schedule_from_args(args) -> trainer.TrainSchedule:
    base = _config_section(args, "schedule", trainer.TrainSchedule)
    values = {
        "batch_size": args.batch_size, "lr0": args.lr, "val_every": args.val_every,
        "max_halvings": args.max_halvings, "epoch_cap": args.epoch_cap,
    }
    merged = {**base, **{k: v for k, v in values.items() if v is not None}}
    return trainer.TrainSchedule(**merged)


def _cmd_train(args) -> int:
    mode = AugmentMode.parse(args.mode)
    train_comments = datasets.read_canonical(args.train)
    val_comments = datasets.read_canonical(args.val)
    subj_lex, subj_label = _resolve_subj_lexicon(args.lexicon)
    id_lex, id_label = _resolve_id_lexicon(args.identity_terms)

    vocab = textprep.build_vocab(
        train_comments, max_size=args.vocab_size, min_freq=args.min_freq
    )
    config = _model_config_from_args(args, len(vocab))
    schedule = _schedule_from_args(args)
    train_set = trainer.prepare_examples(
        train_comments, vocab, subj_lex, id_lex, config.max_len, mode
    )
    val_set = trainer.prepare_examples(
        val_comments, vocab, subj_lex, id_lex, config.max_len, mode
    )

    progress = print if args.verbose else None
    params, history = trainer.train(
        train_set, val_set, config, schedule, mode,
        soc_weight=args.soc_weight, seed=args.seed, progress=progress,
    )

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    vocab.save(outdir / "vocab.txt")
    encoder.save_params(params, outdir / "checkpoint.bin")
    history.to_csv(outdir / "history.csv")
    run_config = {
        "model": config.to_dict(),
        "schedule": {
            "batch_size": schedule.batch_size, "lr0": schedule.lr0,
            "val_every": schedule.val_every, "max_halvings": schedule.max_halvings,
            "halving_factor": schedule.halving_factor, "epoch_cap": schedule.epoch_cap,
        },
        "mode": mode.value,
        "soc_weight": args.soc_weight,
        "seed": args.seed,
        "min_freq": args.min_freq,
    }
    _write_json(run_config, outdir / "config.json")
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "config_digest": _sha256_json(run_config),
        "seed": args.seed,
        "mode": mode.value,
        "soc_weight": args.soc_weight,
        "dataset_id": args.dataset_id or Path(args.train).stem,
        "inputs": {
            "train": {"path": str(args.train), "sha256": _sha256_file(args.train)},
            "val": {"path": str(args.val), "sha256": _sha256_file(args.val)},
        },
        "lexicon": subj_label,
        "identity_terms": id_label,
        "artifacts": {
            "checkpoint": str(outdir / "checkpoint.bin"),
            "history": str(outdir / "history.csv"),
            "config": str(outdir / "config.json"),
            "vocab": str(outdir / "vocab.txt"),
            "eval_report": str(outdir / "eval.json"),
            "audit_report": str(outdir / "audit.json"),
        },
    }
    _write_json(manifest, outdir / "manifest.json")
    best = history.best_val_f1()
    print(
        f"trained {mode.value} seed {args.seed}: {len(history.entries)} steps, "
        f"stop={history.stop_reason}, best val F1 "
        f"{'n/a' if best is None else f'{best:.4f}'}"
    )
    print(f"manifest: {outdir / 'manifest.json'}")
    return 0


def _load_manifest(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ResourceError(f"manifest not found: {p}")
    manifest = _read_json(p, ContractError)
    if not isinstance(manifest, dict) or manifest.get("manifest_version") != MANIFEST_VERSION:
        raise ContractError(f"unsupported manifest version in {p}")
    missing = [k for k in MANIFEST_KEYS if k not in manifest]
    if not missing:
        artifacts = manifest["artifacts"]
        if not isinstance(artifacts, dict):
            raise ContractError(f"manifest {p}: artifacts must be a JSON object")
        missing = [f"artifacts.{k}" for k in ARTIFACT_KEYS if k not in artifacts]
    if missing:
        raise ContractError(f"manifest {p} lacks {', '.join(missing)}")
    return manifest


def _rebuild_run(manifest):
    config_path = manifest["artifacts"]["config"]
    run_config = _read_json(config_path, ContractError)
    model = _checked_section(run_config, "model", encoder.ModelConfig, config_path,
                             ContractError)
    try:
        config = encoder.ModelConfig.from_dict(model)
    except ConfigError as exc:
        raise ContractError(f"{config_path}: {exc}") from None
    vocab = textprep.Vocab.load(manifest["artifacts"]["vocab"])
    params = encoder.load_params(manifest["artifacts"]["checkpoint"])
    encoder.validate_params(params, config)
    subj_path = manifest["lexicon"]
    subj_lex, _ = _resolve_subj_lexicon(None if subj_path == "packaged" else subj_path)
    id_path = manifest["identity_terms"]
    id_lex, _ = _resolve_id_lexicon(None if id_path == "paper-25" else id_path)
    mode = AugmentMode.parse(manifest["mode"])
    return config, vocab, params, subj_lex, id_lex, mode


def _predictions_tag(manifest, test_sha256: str) -> str:
    """First line of ``predictions.csv``: the checkpoint, test CSV and run
    configuration the predictions were made from."""
    checkpoint = _sha256_file(manifest["artifacts"]["checkpoint"])
    return (f"# subsense predictions checkpoint={checkpoint} test={test_sha256} "
            f"config={manifest['config_digest']}")


def _write_predictions(path, tag, comments, preds, probs, features) -> None:
    """One row per comment after ``tag`` and a header. Floats are written
    with ``repr``, so they read back bit for bit; identity terms are single
    words (``IdentityLexicon``), joined by a space."""
    with replacing(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(tag + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PREDICTION_COLUMNS)
        for comment, pred, prob, (subj, terms) in zip(comments, preds, probs, features):
            writer.writerow([comment.id, str(pred), repr(prob), repr(subj), " ".join(terms)])


def _read_predictions(path, tag, comments):
    """The predictions and audit features ``eval`` wrote for ``comments``.
    A missing file, another ``tag``, other ids or a malformed row raise
    ContractError saying to run ``eval`` first."""
    def stale(reason):
        return ContractError(f"{path}: {reason}; run `subsense eval` with the same "
                             "report directory first")

    if not path.exists():
        raise stale("no predictions")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            if fh.readline().rstrip("\r\n") != tag:
                raise stale("predictions of another checkpoint, test CSV or config")
            rows = list(csv.reader(fh))
        if not rows or rows[0] != PREDICTION_COLUMNS or len(rows) - 1 != len(comments):
            raise stale("predictions do not cover the test CSV")
        preds, features = [], []
        for comment, (cid, pred, _, subj, terms) in zip(comments, rows[1:]):
            if cid != comment.id:
                raise stale(f"id {cid!r} where the test CSV has {comment.id!r}")
            preds.append(datasets.Label.parse(pred))
            features.append(audit.CommentFeatures(float(subj), tuple(terms.split())))
    except (ValueError, csv.Error, SchemaError) as exc:
        raise stale(f"malformed predictions ({exc})") from None
    return preds, features


def _cmd_eval(args) -> int:
    manifest = _load_manifest(args.manifest)
    config, vocab, params, subj_lex, id_lex, mode = _rebuild_run(manifest)
    comments = datasets.read_canonical(args.test)
    prepared = trainer.prepare_examples(comments, vocab, subj_lex, id_lex, config.max_len, mode)
    preds, probs = trainer.predict_batch(
        params, config, encoder.assemble([ex.aug for ex in prepared], config))
    counts = audit.confusion(preds, [c.label for c in comments])
    test_sha256 = _sha256_file(args.test)
    report = {
        "config_digest": manifest["config_digest"],
        "mode": manifest["mode"],
        "seed": manifest["seed"],
        "soc_weight": manifest["soc_weight"],
        "dataset_id": manifest["dataset_id"],
        "test": {"path": str(args.test), "sha256": test_sha256},
        "n": counts.total,
        "tp": counts.tp, "fp": counts.fp, "tn": counts.tn, "fn": counts.fn,
        "f1": audit.f1(counts),
    }
    out = Path(args.output) if args.output else Path(manifest["artifacts"]["eval_report"])
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_predictions(out.parent / PREDICTIONS_FILE, _predictions_tag(manifest, test_sha256),
                       comments, preds, probs, [ex.features for ex in prepared])
    _write_json(report, out)
    print(f"f1 {report['f1']:.4f} (tp {counts.tp} fp {counts.fp} tn {counts.tn} fn {counts.fn})")
    print(f"report: {out}")
    return 0


def _cmd_audit(args) -> int:
    manifest = _load_manifest(args.manifest)
    out = Path(args.output) if args.output else Path(manifest["artifacts"]["audit_report"])
    comments = datasets.read_canonical(args.test)
    tag = _predictions_tag(manifest, _sha256_file(args.test))
    preds, features = _read_predictions(out.parent / PREDICTIONS_FILE, tag, comments)
    report = audit.audit_report(comments, preds, [c.label for c in comments], features)
    _write_json(report.to_json_dict(), out)
    with replacing(out.with_suffix(".txt"), "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    if args.cells_csv:
        Path(args.cells_csv).parent.mkdir(parents=True, exist_ok=True)
        with replacing(args.cells_csv, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(report.cells_csv_rows())
    print(report.to_text())
    print(f"report: {out}")
    return 0


def _cmd_compare(args) -> int:
    rows: dict[str, list[tuple[float, int, int]]] = {}
    for mpath in args.manifests:
        manifest = _load_manifest(mpath)
        eval_path = Path(manifest["artifacts"]["eval_report"])
        if not eval_path.exists():
            raise ContractError(f"no eval report for {mpath}; run `subsense eval` first")
        report = _read_json(eval_path, ContractError)
        name = manifest["mode"]
        if manifest["soc_weight"]:
            name += f"+soc({manifest['soc_weight']})"
        rows.setdefault(name, []).append((report["f1"], report["fp"], report["fn"]))
    named = [(name, audit.aggregate(runs)) for name, runs in sorted(rows.items())]
    f1_table = audit.render_f1_table(named)
    fpfn_table = audit.render_fp_fn_table(named)
    print(f1_table)
    print()
    print(fpfn_table)
    if args.output:
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        _write_json(
            {
                name: {
                    "runs": len(agg.f1_values), "f1": agg.mean_f1, "std": agg.std_f1,
                    "fp": agg.mean_fp, "fn": agg.mean_fn,
                }
                for name, agg in named
            },
            args.output,
        )
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="subsense", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("score", help="subjectivity + identity report for text")
    p.add_argument("--text")
    p.add_argument("--file")
    p.add_argument("--lexicon")
    p.add_argument("--identity-terms", dest="identity_terms")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("convert", help="convert a raw corpus to canonical CSV")
    p.add_argument("--kind", required=True,
                   choices=[k.value for k in datasets.DatasetKind])
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("split", help="stratified 80/10/10 split")
    p.add_argument("--input", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("train", help="train a classifier")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--mode", required=True, choices=[m.value for m in AugmentMode])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--soc-weight", type=float, default=0.0, dest="soc_weight")
    p.add_argument("--outdir", required=True)
    p.add_argument("--dataset-id", dest="dataset_id")
    p.add_argument("--config", help="JSON file with model/schedule sections; flags override")
    p.add_argument("--lexicon")
    p.add_argument("--identity-terms", dest="identity_terms")
    p.add_argument("--vocab-size", type=int, default=8000, dest="vocab_size")
    p.add_argument("--min-freq", type=int, default=1, dest="min_freq")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--d-model", type=int, dest="d_model")
    p.add_argument("--n-heads", type=int, dest="n_heads")
    p.add_argument("--n-layers", type=int, dest="n_layers")
    p.add_argument("--d-ff", type=int, dest="d_ff")
    p.add_argument("--dropout", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr", type=float)
    p.add_argument("--val-every", type=int, dest="val_every")
    p.add_argument("--max-halvings", type=int, dest="max_halvings")
    p.add_argument("--epoch-cap", type=int, dest="epoch_cap")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained run on a test CSV")
    p.add_argument("--manifest", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("audit", help="bias audit of a trained run")
    p.add_argument("--manifest", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--output")
    p.add_argument("--cells-csv", dest="cells_csv")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("compare", help="aggregate eval reports from N manifests")
    p.add_argument("manifests", nargs="+")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_compare)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise UsageError(parser.format_help())
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (SubsenseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
