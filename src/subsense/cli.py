"""Command-line entry point wiring scoring, conversion, splitting, training,
evaluation, auditing and run comparison.

Exit codes: 0 success, 1 usage error, 2 data, contract or file error. Every train
run writes config.json, the only home of its settings (model, mode, SOC weight),
and a manifest holding the input paths and digests and the sha256 of each run
file that eval and audit read.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import audit, datasets, encoder, identity, subjectivity, textprep, trainer
from .atomic import replacing
from .augment import AugmentMode
from .errors import ContractError, SubsenseError, UsageError, check_fields, read_text

# A run directory is its own unit: eval, audit and compare find each of its
# files (the RUN_FILES, history.csv, eval.json and audit.json) by a fixed name
# beside the manifest they are given. The manifest's ``files`` holds the
# sha256 of each file they read from the run, which are the RUN_FILES: the
# model and both lexicons the gate reads, so no run depends on code that
# may change. Every report names the sha256 of the manifest it was made from.
# Each run setting has one home: config.json, which ``files`` hashes.
MANIFEST_VERSION = 6
RUN_FILES = ("config.json", "vocab.txt", "checkpoint.bin", "lexicon.tsv", "identity_terms.txt")
# Every key of the manifest, config.json and eval report, with its type: the
# keys train and eval write. A file holding another key is refused.
RUN_KEYS = {"manifest_version": int, "inputs": dict, "files": dict}
CONFIG_KEYS = {"model": dict, "schedule": dict, "mode": str, "soc_weight": float,
               "min_freq": int}
EVAL_KEYS = {"manifest_sha256": str, "test": dict, "n": int, "tp": int, "fp": int, "tn": int,
             "fn": int, "f1": float}
# eval writes its predictions beside its report and audit reads them from
# beside its own, so an audit never runs the encoder or parses the test CSV:
# each row holds the comment's gold label beside its prediction. The first
# line names the sha256 of the manifest and test CSV they were made from and
# ends with " n=<rows>"; the digest and the count bind the rows to that CSV.
PREDICTIONS_FILE = "predictions.csv"
PREDICTIONS_TAG = "# subsense predictions manifest={} test={}"
PREDICTION_COLUMNS = ["id", "label", "pred", "p_toxic", "subjectivity", "terms"]
LABEL_NAMES = {label: str(label) for label in datasets.Label}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n{self.format_usage()}")


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _read_json(path):
    """Parse a JSON file; malformed content raises ``ContractError``."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ContractError(f"{path} is not valid JSON: {exc}") from None


def _write_json(obj, path) -> None:
    """Stream ``obj`` to ``path`` as indented JSON, never held as one string;
    a failed write leaves no partial file."""
    with replacing(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _check_paths(writes, reads=(), outdir=None) -> None:
    """Refuse, before a command computes or writes anything, a file it could
    not write or must not replace. ``writes`` and ``reads`` are pairs of flag
    or role and path (None when absent): every file the command writes, and
    the files it reads or must leave as they are. Refused are a write that is
    an existing directory, an ``--outdir`` that exists as something other
    than a directory, either below a path that exists and is not a directory,
    and a write that resolves to the file of another role; two reads of one
    file are no clash."""
    outputs = [(role, Path(path)) for role, path in writes if path is not None]
    for role, path in outputs:
        if path.is_dir():
            raise ContractError(f"{role} {path} is a directory; give a file path")
    if outdir is not None:
        outdir = Path(outdir)
        if outdir.exists() and not outdir.is_dir():
            raise ContractError(f"--outdir {outdir} exists and is not a directory")
        outputs.insert(0, ("--outdir", outdir))
    for role, path in outputs:
        # "." and "/" have no parents, and both exist as directories
        above = next((parent for parent in path.parents if parent.exists()), None)
        if above is not None and not above.is_dir():
            raise ContractError(f"{role} {path} lies below {above}, which is not a directory")
    seen: dict[Path, str] = {}
    for role, path in reads:
        if path is not None:
            seen.setdefault(Path(path).resolve(), f"{role} {path}")
    for role, path in writes:
        if path is not None:
            named = f"{role} {path}"
            other = seen.setdefault(Path(path).resolve(), named)
            if other != named:
                raise ContractError(f"{named} and {other} are the same file; "
                                    "give each its own path")


def _identity_terms(path):
    return identity.load_terms(path) if path else identity.default_terms()


def _cmd_score(args) -> int:
    lexicon = subjectivity.load_lexicon(subjectivity.lexicon_path(args.lexicon))
    terms = _identity_terms(args.identity_terms)
    texts = ([args.text] if args.file is None
             else [line for line in read_text(args.file, "input file").splitlines() if line])
    for text in texts:
        tokens = textprep.word_split(text)
        s = subjectivity.score(text, lexicon, tokens)
        match = identity.detect(text, terms, tokens)
        matched = " ".join(match.terms) if match.present else "-"
        print(f"subjectivity {s.value:.4f}")
        print(f"identity present={'true' if match.present else 'false'} matched: {matched}")
    return 0


def _cmd_convert(args) -> int:
    _check_paths([("--output", args.output)], [("--input", args.input)])
    kind = datasets.DatasetKind(args.kind)
    result = datasets.convert(kind, datasets.load_rows(args.input))
    datasets.write_canonical(result.comments, args.output)
    print(
        f"read {result.n_input} rows, kept {len(result.comments)} "
        f"(toxic {result.n_toxic}, nontoxic {result.n_nontoxic}), dropped {result.n_dropped}"
    )
    return 0


def _read_comments(path) -> list[datasets.Comment]:
    """The comments of a canonical CSV, which must hold at least one."""
    comments = datasets.read_canonical(path)
    if not comments:
        raise ContractError(f"no comments in {path}")
    return comments


def _cmd_split(args) -> int:
    outputs = [Path(args.outdir) / f"{name}.csv" for name in ("train", "val", "test")]
    _check_paths([("output", out) for out in outputs], [("--input", args.input)], args.outdir)
    comments = datasets.read_canonical(args.input)
    train, val, test = datasets.split(comments, args.seed)
    for part, out in zip((train, val, test), outputs):
        datasets.write_canonical(part, out)
    print(f"split {len(comments)} -> train {len(train)} / val {len(val)} / test {len(test)}")
    return 0


def _cmd_synth(args) -> int:
    outdir = Path(args.outdir)
    outputs = [outdir / name for name in ("corpus.csv", "lexicon.tsv")]
    _check_paths([("output", out) for out in outputs], outdir=outdir)
    corpus = datasets.synth_generate(args.n, args.theta, args.noise, args.seed)
    datasets.write_canonical(corpus.comments, outputs[0])
    subjectivity.write_lexicon_tsv(corpus.lexicon, outputs[1])
    n_toxic = sum(1 for c in corpus.comments if c.label is datasets.Label.TOXIC)
    print(f"generated {len(corpus.comments)} comments ({n_toxic} toxic) in {outdir}")
    return 0


def _checked_keys(doc, types: dict, path, name: str) -> dict:
    """``doc``, parsed from ``path``, if it is an object holding exactly the
    keys of ``types``, each with a value of its type (``check_fields``); else
    a ContractError naming ``path`` and the first key at fault."""
    if not isinstance(doc, dict):
        raise ContractError(f"{path}: {name} must be a JSON object")
    try:
        check_fields(types, doc, name)
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from None
    return doc


def _given(**flags) -> dict:
    """The flags the command line set; the dataclass defaults fill the rest."""
    return {k: v for k, v in flags.items() if v is not None}


def _cmd_train(args) -> int:
    # ModelConfig takes 0 layers, but with no block CLS attends to nothing,
    # so every comment gets one logit row and a run learns only the prior.
    if args.n_layers == 0:
        raise ContractError("--n-layers 0 leaves CLS nothing to attend to; give 1 or more")
    outdir = Path(args.outdir)
    _check_paths([("run file", outdir / name)
                  for name in (*RUN_FILES, "history.csv", "manifest.json")],
                 [("--train", args.train), ("--val", args.val), ("--lexicon", args.lexicon),
                  ("--identity-terms", args.identity_terms)], outdir)
    mode = AugmentMode.parse(args.mode)
    train_comments = _read_comments(args.train)
    val_comments = _read_comments(args.val)
    subj_path = subjectivity.lexicon_path(args.lexicon)
    subj_lex = subjectivity.load_lexicon(subj_path)
    id_lex = _identity_terms(args.identity_terms)

    vocab = textprep.build_vocab(
        train_comments, max_size=args.vocab_size, min_freq=args.min_freq
    )
    config = encoder.ModelConfig(
        max_len=args.max_len, vocab_size=len(vocab), seed=args.seed,
        **_given(d_model=args.d_model, n_heads=args.n_heads, n_layers=args.n_layers,
                 d_ff=args.d_ff, dropout_rate=args.dropout))
    schedule = trainer.TrainSchedule(**_given(
        batch_size=args.batch_size, lr0=args.lr, val_every=args.val_every,
        max_halvings=args.max_halvings, epoch_cap=args.epoch_cap))
    train_set, val_set = (
        trainer.prepare_examples(comments, vocab, subj_lex, id_lex, config.max_len, mode)
        for comments in (train_comments, val_comments)
    )

    progress = print if args.verbose else None
    params, history = trainer.train(
        train_set, val_set, config, schedule, mode,
        soc_weight=args.soc_weight, seed=args.seed, progress=progress,
    )

    vocab.save(outdir / "vocab.txt")
    encoder.save_params(params, outdir / "checkpoint.bin")
    history.to_csv(outdir / "history.csv")
    run_config = {
        "model": dataclasses.asdict(config),
        "schedule": dataclasses.asdict(schedule),
        "mode": mode.value,
        "soc_weight": args.soc_weight,
        "min_freq": args.min_freq,
    }
    _write_json(run_config, outdir / "config.json")
    # eval reads the lexicons as loaded here, never the files train read.
    subjectivity.write_lexicon_tsv(subj_lex, outdir / "lexicon.tsv")
    with replacing(outdir / "identity_terms.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(f"{term}\n" for term in id_lex.terms))
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        # The train and val CSVs, and the source of each lexicon by the run
        # file it became: the path given, or the packaged lexicon's file name
        # and the stock list, which no checkout moves.
        "inputs": {
            **{key: {"path": str(path), "sha256": _sha256_file(path)}
               for key, path in (("train", args.train), ("val", args.val))},
            "lexicon.tsv": ({"path": str(subj_path)} if args.lexicon
                            else {"packaged": subj_path.name}),
            "identity_terms.txt": ({"path": str(args.identity_terms)} if args.identity_terms
                                   else {"packaged": "identity.STOCK_TERMS"}),
        },
        "files": {name: _sha256_file(outdir / name) for name in RUN_FILES},
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


def _load_manifest(path) -> tuple[Path, str]:
    """The run directory and the sha256 of the checked manifest at ``path``.
    ``files`` must name exactly the run files, and each must hash to the
    sha256 it records."""
    p = Path(path)
    if not p.exists():
        raise ContractError(f"manifest not found: {p}")
    manifest = _read_json(p)
    if not isinstance(manifest, dict) or manifest.get("manifest_version") != MANIFEST_VERSION:
        raise ContractError(f"unsupported manifest version in {p}")
    names = set(_checked_keys(manifest, RUN_KEYS, p, "manifest")["files"])
    if names != set(RUN_FILES):
        raise ContractError(f"{p}: files must name exactly {', '.join(RUN_FILES)}")
    for name in sorted(names):  # a missing file is an OSError naming it
        if _sha256_file(p.parent / name) != manifest["files"][name]:
            raise ContractError(f"{p.parent / name} is not the file train wrote: its sha256 "
                                f"differs from {p}'s files[{name!r}]")
    return p.parent, _sha256_file(p)


def _run_files(path) -> list:
    """The manifest at ``path`` and each file train wrote beside it, which no
    report may replace, as ``_check_paths`` pairs."""
    run = Path(path).parent
    return [("manifest", path),
            *(("run file", run / name) for name in ("history.csv", *RUN_FILES))]


def _run_config(run: Path) -> tuple[encoder.ModelConfig, AugmentMode, float]:
    """The model config, augment mode and SOC weight of the run in ``run``,
    read from its config.json, the one home of each."""
    path = run / "config.json"
    run_config = _checked_keys(_read_json(path), CONFIG_KEYS, path, "config")
    try:
        config = encoder.ModelConfig.from_dict(run_config["model"])
        check_fields(trainer.TrainSchedule, run_config["schedule"], "TrainSchedule")
        return config, AugmentMode.parse(run_config["mode"]), run_config["soc_weight"]
    except ContractError as exc:
        raise ContractError(f"{path}: {exc}") from None


def _rebuild_run(run: Path):
    config, mode, _ = _run_config(run)
    vocab = textprep.Vocab.load(run / "vocab.txt")
    if len(vocab) != config.vocab_size:
        raise ContractError(f"{run / 'vocab.txt'} holds {len(vocab)} tokens, "
                            f"{run / 'config.json'} says {config.vocab_size}")
    params = encoder.load_params(run / "checkpoint.bin", config)
    subj_lex = subjectivity.load_lexicon(run / "lexicon.tsv")
    id_lex = identity.load_terms(run / "identity_terms.txt")
    return config, vocab, params, subj_lex, id_lex, mode


def _write_predictions(path, tag, comments, preds, probs, features) -> None:
    """One row per comment after ``tag`` with the row count and a header.
    Labels are written by their canonical names and floats with ``repr``,
    so they read back bit for bit; identity terms are single words
    (``IdentityLexicon``), joined by a space."""
    with replacing(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"{tag} n={len(comments)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(PREDICTION_COLUMNS)
        for comment, pred, prob, (subj, terms) in zip(comments, preds, probs, features):
            writer.writerow([comment.id, LABEL_NAMES[comment.label], LABEL_NAMES[pred],
                             repr(prob), repr(subj), " ".join(terms)])


def _read_predictions(path, tag):
    """The ids, gold labels, predictions and audit features ``eval`` wrote
    under ``tag``. A missing file, another ``tag``, a row count other than
    the tag's or a malformed row raise ContractError saying to run ``eval``
    first."""
    def stale(reason):
        return ContractError(f"{path}: {reason}; run `subsense eval` with the same "
                             "report directory first")

    if not path.exists():
        raise stale("no predictions")
    ids, golds, preds, features = [], [], [], []
    terms_of = {}  # one tuple per distinct terms cell, shared by its rows
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            head, _, n = fh.readline().rstrip("\r\n").rpartition(" n=")
            if head != tag:
                raise stale("predictions of another run or test CSV")
            if not (n.isascii() and n.isdigit()):
                raise stale(f"malformed predictions (row count {n!r} is not a count)")
            rows = csv.reader(fh)
            if next(rows, None) != PREDICTION_COLUMNS:
                raise stale("predictions do not cover the test CSV")
            for cid, gold, pred, p_toxic, subj, terms in rows:
                subj = float(subj)
                if not (0.0 <= float(p_toxic) <= 1.0 and 0.0 <= subj <= 1.0):  # NaN fails too
                    raise stale(f"malformed predictions (p_toxic or subjectivity of {cid!r} "
                                "outside [0, 1])")
                ids.append(cid)
                golds.append(datasets.LABELS[gold])  # only as eval writes it
                preds.append(datasets.LABELS[pred])
                features.append(audit.CommentFeatures(
                    subj, terms_of.setdefault(terms, tuple(terms.split()))))
            if len(ids) != int(n):
                raise stale("predictions do not cover the test CSV")
    except KeyError as exc:  # malformed, as a float() ValueError is
        raise stale(f"malformed predictions (unknown canonical label {exc.args[0]!r})") from None
    except (ValueError, csv.Error) as exc:
        raise stale(f"malformed predictions ({exc})") from None
    return ids, golds, preds, features


def _cmd_eval(args) -> int:
    out = Path(args.output or Path(args.manifest).parent / "eval.json")
    predictions = out.parent / PREDICTIONS_FILE
    run, manifest_sha256 = _load_manifest(args.manifest)
    _check_paths([("--output", out), ("predictions", predictions)],
                 [("--test", args.test), *_run_files(args.manifest)])
    config, vocab, params, subj_lex, id_lex, mode = _rebuild_run(run)
    comments = _read_comments(args.test)
    prepared = trainer.prepare_examples(comments, vocab, subj_lex, id_lex, config.max_len, mode)
    preds, probs = trainer.predict_batch(params, config, prepared.data)
    counts = audit.confusion(preds, [c.label for c in comments])
    test_sha256 = _sha256_file(args.test)
    report = {
        "manifest_sha256": manifest_sha256,
        "test": {"path": str(args.test), "sha256": test_sha256},
        "n": counts.total,
        "tp": counts.tp, "fp": counts.fp, "tn": counts.tn, "fn": counts.fn,
        "f1": audit.f1(counts),
    }
    tag = PREDICTIONS_TAG.format(manifest_sha256, test_sha256)
    _write_predictions(predictions, tag, comments, preds, probs,
                       zip(map(float, prepared.data.fill), prepared.terms))
    _write_json(report, out)
    print(f"f1 {report['f1']:.4f} (tp {counts.tp} fp {counts.fp} tn {counts.tn} fn {counts.fn})")
    print(f"report: {out}")
    return 0


def _cmd_audit(args) -> int:
    out = Path(args.output or Path(args.manifest).parent / "audit.json")
    predictions = out.parent / PREDICTIONS_FILE
    run, manifest_sha256 = _load_manifest(args.manifest)
    _check_paths([("--output", out)],
                 [("--test", args.test), ("predictions", predictions),
                  ("run file", run / "eval.json"), *_run_files(args.manifest)])
    tag = PREDICTIONS_TAG.format(manifest_sha256, _sha256_file(args.test))
    ids, golds, preds, features = _read_predictions(predictions, tag)
    report = audit.audit_report(ids, preds, golds, features)
    _write_json(report.to_json_dict(), out)
    print(report.to_text())
    print(f"report: {out}")
    return 0


def _cmd_compare(args) -> int:
    rows: dict[str, list[tuple[float, int, int]]] = {}
    reads = []
    given: dict[str, str] = {}  # manifest sha256 to the path it was given by
    tested = None  # the first run's test CSV sha256 and eval.json
    for mpath in args.manifests:
        run, manifest_sha256 = _load_manifest(mpath)
        # One run given twice, by one path or as a copy of its directory,
        # would count twice in the mean and std.
        if manifest_sha256 in given:
            raise ContractError(f"manifest {mpath} is the run of {given[manifest_sha256]} "
                                "(the same sha256); give each run once")
        given[manifest_sha256] = mpath
        _, mode, soc_weight = _run_config(run)
        eval_path = run / "eval.json"
        reads += [("run file", eval_path), *_run_files(mpath)]
        if not eval_path.exists():
            raise ContractError(f"no eval report for {mpath}; run `subsense eval` first")
        report = _checked_keys(_read_json(eval_path), EVAL_KEYS, eval_path, "eval report")
        if report["manifest_sha256"] != manifest_sha256:
            raise ContractError(f"{eval_path} reports another manifest than {mpath}; "
                                "run `subsense eval` again")
        test = _checked_keys(report["test"], {"path": str, "sha256": str}, eval_path,
                             "eval report test")
        # F1 on two test sets would be averaged as if measured on one.
        tested = tested or (test["sha256"], eval_path)
        if test["sha256"] != tested[0]:
            raise ContractError(f"{tested[1]} and {eval_path} name different test CSVs; "
                                "evaluate every run on one")
        name = mode.value + (f"+soc({soc_weight})" if soc_weight else "")
        rows.setdefault(name, []).append((report["f1"], report["fp"], report["fn"]))
    _check_paths([("--output", args.output)], reads)
    named = [(name, audit.aggregate(runs)) for name, runs in sorted(rows.items())]
    print(audit.render_f1_table(named), audit.render_fp_fn_table(named), sep="\n\n")
    if args.output:
        _write_json({name: {"runs": len(agg.f1_values), "f1": agg.mean_f1, "std": agg.std_f1,
                            "fp": agg.mean_fp, "fn": agg.mean_fn} for name, agg in named},
                    args.output)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="subsense", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("score", help="subjectivity + identity report for text")
    given = p.add_mutually_exclusive_group(required=True)
    given.add_argument("--text")
    given.add_argument("--file")
    p.add_argument("--lexicon")
    p.add_argument("--identity-terms", dest="identity_terms")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("convert", help="convert a raw corpus of one --kind to canonical CSV")
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
    p.add_argument("--lexicon")
    p.add_argument("--identity-terms", dest="identity_terms")
    p.add_argument("--vocab-size", type=int, default=8000, dest="vocab_size")
    p.add_argument("--min-freq", type=int, default=1, dest="min_freq")
    p.add_argument("--max-len", type=int, default=128, dest="max_len")
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
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("compare", help="aggregate eval reports from N manifests")
    p.add_argument("manifests", nargs="+")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_compare)

    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        if any("\0" in arg for arg in argv):  # only a Python caller can pass one
            raise ContractError("an argument holds a NUL byte")
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
