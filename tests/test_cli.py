import csv
import hashlib
import io
import json
import shutil
from pathlib import Path

import pytest

from subsense import audit, cli, datasets, encoder, identity, subjectivity, textprep, trainer
from subsense.augment import AugmentMode

from conftest import DATA_DIR


def sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


TRAIN_FLAGS = [
    "--min-freq", "2", "--max-len", "16", "--d-model", "16", "--n-heads", "2",
    "--n-layers", "1", "--d-ff", "32", "--batch-size", "16", "--lr", "1e-3",
    "--val-every", "10", "--epoch-cap", "2", "--vocab-size", "500",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> split -> one trained ss run with eval, shared by tests."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "data"
    assert cli.dispatch(["synth", "--n", "120", "--theta", "0.5", "--noise", "0.0",
                         "--seed", "3", "--outdir", str(data)]) == 0
    assert cli.dispatch(["split", "--input", str(data / "corpus.csv"),
                         "--outdir", str(data), "--seed", "1"]) == 0
    run = root / "run-ss"
    assert cli.dispatch([
        "train", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
        "--mode", "ss", "--seed", "1", "--outdir", str(run),
        "--lexicon", str(data / "lexicon.tsv"), *TRAIN_FLAGS,
    ]) == 0
    assert cli.dispatch(["eval", "--manifest", str(run / "manifest.json"),
                         "--test", str(data / "test.csv")]) == 0
    return {"root": root, "data": data, "run": run}


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli.dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_prints_help(self, capsys):
        assert cli.dispatch([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag(self, capsys):
        assert cli.dispatch(["convert", "--kind", "ws"]) == 1
        assert capsys.readouterr().err

    def test_data_error_is_two(self, tmp_path, capsys):
        code = cli.dispatch(["convert", "--kind", "ws",
                             "--input", str(tmp_path / "nope.csv"),
                             "--output", str(tmp_path / "out.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_score_without_input_is_usage_error(self, capsys):
        assert cli.dispatch(["score"]) == 1
        capsys.readouterr()


class TestScore:
    def test_paired_comment_report(self, capsys):
        code = cli.dispatch(["score", "--text", "men and women are segregated in mosques ."])
        assert code == 0
        out = capsys.readouterr().out
        assert "subjectivity 0.0000" in out
        assert "present=true" in out
        assert "women" in out

    def test_no_identity(self, capsys):
        assert cli.dispatch(["score", "--text", "an utterly boring meeting"]) == 0
        out = capsys.readouterr().out
        assert "present=false" in out
        assert "subjectivity 1.0000" in out

    def test_file_input(self, tmp_path, capsys):
        src = tmp_path / "lines.txt"
        src.write_text("the women spoke\nplain text\n")
        assert cli.dispatch(["score", "--file", str(src)]) == 0
        out = capsys.readouterr().out
        assert out.count("subjectivity") == 2

    def test_env_var_overrides_lexicon(self, tmp_path, capsys, monkeypatch):
        custom = tmp_path / "mini.tsv"
        custom.write_text("plain\t0.8\t0.0\t1.0\n")
        monkeypatch.setenv("SUBSENSE_LEXICON", str(custom))
        assert cli.dispatch(["score", "--text", "a plain sentence"]) == 0
        out = capsys.readouterr().out
        assert "subjectivity 0.8000" in out

    def test_explicit_lexicon_flag(self, tmp_path, capsys):
        custom = tmp_path / "mini.tsv"
        custom.write_text("sentence\t0.4\n")
        assert cli.dispatch(["score", "--text", "a plain sentence",
                             "--lexicon", str(custom)]) == 0
        assert "subjectivity 0.4000" in capsys.readouterr().out


class TestConvertAndSplit:
    def test_convert_fixture(self, tmp_path, capsys):
        out = tmp_path / "ws.csv"
        code = cli.dispatch(["convert", "--kind", "ws",
                             "--input", str(DATA_DIR / "ws_10.csv"), "--output", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "kept 10" in stdout and "toxic 3" in stdout
        assert out.exists()

    def test_split_outputs(self, tmp_path, capsys):
        src = tmp_path / "canon.csv"
        cli.dispatch(["convert", "--kind", "twitter18k",
                      "--input", str(DATA_DIR / "twitter18k_10.csv"), "--output", str(src)])
        capsys.readouterr()
        assert cli.dispatch(["split", "--input", str(src),
                             "--outdir", str(tmp_path / "splits"), "--seed", "4"]) == 0
        for name in ("train.csv", "val.csv", "test.csv"):
            assert (tmp_path / "splits" / name).exists()


class TestTrainArtifacts:
    def test_artifacts_exist(self, pipeline):
        run = pipeline["run"]
        for name in ("checkpoint.bin", "history.csv", "config.json",
                     "manifest.json", "vocab.txt", "eval.json"):
            assert (run / name).exists(), name

    def test_manifest_contents(self, pipeline):
        manifest = json.loads((pipeline["run"] / "manifest.json").read_text())
        assert manifest["mode"] == "ss"
        assert manifest["seed"] == 1
        assert len(manifest["config_digest"]) == 64
        assert manifest["inputs"]["train"]["sha256"]
        assert manifest["dataset_id"] == "train"

    def test_train_is_deterministic(self, pipeline, capsys):
        data = pipeline["data"]
        runs = []
        for tag in ("a", "b"):
            rundir = pipeline["root"] / f"det-{tag}"
            assert cli.dispatch([
                "train", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
                "--mode", "ss", "--seed", "7", "--outdir", str(rundir),
                "--lexicon", str(data / "lexicon.tsv"), *TRAIN_FLAGS,
            ]) == 0
            runs.append(rundir)
        capsys.readouterr()
        assert sha(runs[0] / "checkpoint.bin") == sha(runs[1] / "checkpoint.bin")
        assert sha(runs[0] / "history.csv") == sha(runs[1] / "history.csv")
        m0 = json.loads((runs[0] / "manifest.json").read_text())
        m1 = json.loads((runs[1] / "manifest.json").read_text())
        assert m0["config_digest"] == m1["config_digest"]

    def test_eval_is_idempotent(self, pipeline, capsys):
        run, data = pipeline["run"], pipeline["data"]
        first = [(run / name).read_bytes() for name in ("eval.json", "predictions.csv")]
        assert cli.dispatch(["eval", "--manifest", str(run / "manifest.json"),
                             "--test", str(data / "test.csv")]) == 0
        capsys.readouterr()
        assert [(run / name).read_bytes() for name in ("eval.json", "predictions.csv")] == first

    def test_audit_reports(self, pipeline, capsys):
        run, data = pipeline["run"], pipeline["data"]
        cells = run / "cells.csv"
        assert cli.dispatch(["audit", "--manifest", str(run / "manifest.json"),
                             "--test", str(data / "test.csv"),
                             "--cells-csv", str(cells)]) == 0
        out = capsys.readouterr().out
        assert "f1" in out
        payload = json.loads((run / "audit.json").read_text())
        assert "cells" in payload and "named_groups" in payload
        assert (run / "audit.txt").exists()
        assert cells.exists()

    def test_compare_renders_tables(self, pipeline, capsys):
        run = pipeline["run"]
        code = cli.dispatch(["compare", str(run / "manifest.json"),
                             str(run / "manifest.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Model" in out and "F1" in out and "std" in out
        assert "FP" in out and "FN" in out
        assert "ss" in out

    def test_compare_output_into_a_missing_directory(self, pipeline, tmp_path, capsys):
        run = pipeline["run"]
        out = tmp_path / "new" / "deeper" / "compare.json"
        assert cli.dispatch(["compare", str(run / "manifest.json"), "--output", str(out)]) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads(out.read_text())
        assert payload["ss"]["runs"] == 1
        assert sorted(p.name for p in out.parent.iterdir()) == ["compare.json"]

    def test_compare_requires_eval(self, pipeline, capsys):
        data = pipeline["data"]
        rundir = pipeline["root"] / "run-noeval"
        assert cli.dispatch([
            "train", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
            "--mode", "baseline", "--seed", "2", "--outdir", str(rundir),
            "--lexicon", str(data / "lexicon.tsv"), *TRAIN_FLAGS,
        ]) == 0
        capsys.readouterr()
        assert cli.dispatch(["compare", str(rundir / "manifest.json")]) == 2
        assert "eval" in capsys.readouterr().err


class TestBadInputExitsTwo:
    """Malformed inputs end with exit 2 and a one-line message."""

    def one_line_error(self, capsys):
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err
        return err

    def train_with_config(self, pipeline, tmp_path, text):
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        data = pipeline["data"]
        return cli.dispatch([
            "train", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
            "--mode", "ss", "--seed", "1", "--outdir", str(tmp_path / "run"),
            "--config", str(config), *TRAIN_FLAGS,
        ])

    def test_config_not_json(self, pipeline, tmp_path, capsys):
        assert self.train_with_config(pipeline, tmp_path, "{model: 1") == 2
        assert "not valid JSON" in self.one_line_error(capsys)
        assert not (tmp_path / "run").exists()

    def test_config_unknown_model_key(self, pipeline, tmp_path, capsys):
        text = json.dumps({"model": {"d_model": 16, "n_blocks": 3}})
        assert self.train_with_config(pipeline, tmp_path, text) == 2
        assert "n_blocks" in self.one_line_error(capsys)

    def test_config_unknown_schedule_key(self, pipeline, tmp_path, capsys):
        text = json.dumps({"schedule": {"warmup": 10}})
        assert self.train_with_config(pipeline, tmp_path, text) == 2
        assert "warmup" in self.one_line_error(capsys)

    def test_config_section_not_object(self, pipeline, tmp_path, capsys):
        assert self.train_with_config(pipeline, tmp_path, json.dumps({"model": [1]})) == 2
        self.one_line_error(capsys)

    @pytest.mark.parametrize("section,key,value", [
        ("model", "d_model", "x"),
        ("model", "n_layers", 1.5),
        ("model", "dropout_rate", True),
        ("model", "n_heads", None),
        ("schedule", "lr0", "fast"),
        ("schedule", "epoch_cap", [2]),
    ])
    def test_config_wrong_type(self, pipeline, tmp_path, capsys, section, key, value):
        text = json.dumps({section: {key: value}})
        assert self.train_with_config(pipeline, tmp_path, text) == 2
        assert f"{section}.{key}" in self.one_line_error(capsys)
        assert not (tmp_path / "run").exists()

    def test_config_int_fills_float_field(self, pipeline, tmp_path):
        text = json.dumps({"model": {"dropout_rate": 0}, "schedule": {"halving_factor": 0.5}})
        assert self.train_with_config(pipeline, tmp_path, text) == 0
        run_config = json.loads((tmp_path / "run" / "config.json").read_text())
        assert run_config["model"]["dropout_rate"] == 0

    @pytest.mark.parametrize("model", [
        {"d_model": "x"}, {"n_layers": 1.0}, {"unknown": 1}, [1], None, "drop max_len",
    ])
    def test_run_config_broken_model(self, pipeline, tmp_path, capsys, model):
        run = tmp_path / "run"
        run.mkdir()
        run_config = json.loads((pipeline["run"] / "config.json").read_text())
        if model == "drop max_len":
            del run_config["model"]["max_len"]
        elif isinstance(model, dict):
            run_config["model"].update(model)
        else:
            run_config["model"] = model
        (run / "config.json").write_text(json.dumps(run_config), encoding="utf-8")
        manifest = json.loads((pipeline["run"] / "manifest.json").read_text())
        manifest["artifacts"]["config"] = str(run / "config.json")
        (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        code = cli.dispatch(["eval", "--manifest", str(run / "manifest.json"),
                             "--test", str(pipeline["data"] / "test.csv"),
                             "--output", str(tmp_path / "eval.json")])
        assert code == 2
        assert "config.json" in self.one_line_error(capsys)
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("drop", ["artifacts", "mode", "config_digest"])
    def test_manifest_missing_key(self, pipeline, tmp_path, capsys, drop):
        manifest = json.loads((pipeline["run"] / "manifest.json").read_text())
        del manifest[drop]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        code = cli.dispatch(["eval", "--manifest", str(path),
                             "--test", str(pipeline["data"] / "test.csv"),
                             "--output", str(tmp_path / "eval.json")])
        assert code == 2
        assert drop in self.one_line_error(capsys)

    def test_manifest_missing_artifact(self, pipeline, tmp_path, capsys):
        manifest = json.loads((pipeline["run"] / "manifest.json").read_text())
        del manifest["artifacts"]["vocab"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert cli.dispatch(["compare", str(path)]) == 2
        assert "artifacts.vocab" in self.one_line_error(capsys)

    def test_manifest_not_json(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("not json", encoding="utf-8")
        assert cli.dispatch(["compare", str(path)]) == 2
        self.one_line_error(capsys)

    def test_read_error(self, tmp_path, capsys):
        assert cli.dispatch(["score", "--file", str(tmp_path)]) == 2
        self.one_line_error(capsys)

    def test_write_error(self, pipeline, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        assert cli.dispatch(["split", "--input", str(pipeline["data"] / "corpus.csv"),
                             "--outdir", str(blocker), "--seed", "1"]) == 2
        self.one_line_error(capsys)


def _audit(manifest, test, report_dir, *extra):
    return cli.dispatch(["audit", "--manifest", str(manifest), "--test", str(test),
                         "--output", str(report_dir / "audit.json"), *extra])


def _eval(manifest, test, report_dir):
    return cli.dispatch(["eval", "--manifest", str(manifest), "--test", str(test),
                         "--output", str(report_dir / "eval.json")])


@pytest.fixture(scope="module")
def old_path(pipeline):
    """The pipeline run's test predictions and audit as the audit made them
    before it read eval's predictions: a feature pass, the encoder, then
    ``audit_report``."""
    run, data = pipeline["run"], pipeline["data"]
    run_config = json.loads((run / "config.json").read_text())
    config = encoder.ModelConfig.from_dict(run_config["model"])
    comments = datasets.read_canonical(data / "test.csv")
    prepared = trainer.prepare_examples(
        comments, textprep.Vocab.load(run / "vocab.txt"),
        subjectivity.load_lexicon_tsv(data / "lexicon.tsv"), identity.default_terms(),
        config.max_len, AugmentMode.SS,
    )
    params = encoder.load_params(run / "checkpoint.bin")
    preds, probs = trainer.predict_batch(
        params, config, encoder.assemble([ex.aug for ex in prepared], config))
    features = [ex.features for ex in prepared]
    report = audit.audit_report(comments, preds, [c.label for c in comments], features)
    return {"comments": comments, "preds": preds, "probs": probs, "features": features,
            "report": report}


@pytest.fixture(scope="module")
def other_run(pipeline):
    """A second trained run of the same data and flags (seed 2), never evaluated."""
    data = pipeline["data"]
    run = pipeline["root"] / "run-other"
    assert cli.dispatch([
        "train", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
        "--mode", "ss", "--seed", "2", "--outdir", str(run),
        "--lexicon", str(data / "lexicon.tsv"), *TRAIN_FLAGS,
    ]) == 0
    return run


class TestPredictionsHandoff:
    """eval writes predictions.csv beside its report; audit reads it from
    beside its own and refuses a missing or stale one."""

    def refused(self, capsys, path):
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err
        assert str(path) in err and "subsense eval" in err
        return err

    def test_predictions_read_back_exactly(self, pipeline, old_path):
        run, data = pipeline["run"], pipeline["data"]
        lines = (run / "predictions.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == (
            f"# subsense predictions checkpoint={sha(run / 'checkpoint.bin')} "
            f"test={sha(data / 'test.csv')} "
            f"config={json.loads((run / 'manifest.json').read_text())['config_digest']}"
        )
        rows = list(csv.reader(lines[1:]))
        assert rows[0] == ["id", "pred", "p_toxic", "subjectivity", "terms"]
        assert len(rows) - 1 == len(old_path["comments"])
        for row, comment, pred, prob, feats in zip(
            rows[1:], old_path["comments"], old_path["preds"], old_path["probs"],
            old_path["features"],
        ):
            cid, label, p_toxic, subj, terms = row
            assert (cid, datasets.Label.parse(label)) == (comment.id, pred)
            assert float(p_toxic) == prob and float(subj) == feats.subjectivity
            assert tuple(terms.split()) == feats.terms

    def test_round_trip_of_awkward_values(self, tmp_path):
        comments = [datasets.Comment(f"c,{i}", "text", datasets.Label.TOXIC) for i in range(4)]
        preds = [datasets.Label.TOXIC, datasets.Label.NONTOXIC] * 2
        features = [
            audit.CommentFeatures(0.1 + 0.2, ("women", "muslim", "gay")),
            audit.CommentFeatures(5e-324, ()),
            audit.CommentFeatures(1.0 - 2 ** -53, ("o'neil", "a,b")),
            audit.CommentFeatures(0.0, ("jews",)),
        ]
        path = tmp_path / "predictions.csv"
        cli._write_predictions(path, "# tag", comments, preds, [1 / 3, 2 / 3, 1e-17, 1.0],
                               features)
        assert cli._read_predictions(path, "# tag", comments) == (preds, features)

    def test_reports_equal_the_old_path(self, pipeline, old_path, tmp_path, capsys):
        run, data = pipeline["run"], pipeline["data"]
        cells = tmp_path / "cells.csv"
        assert cli.dispatch(["audit", "--manifest", str(run / "manifest.json"),
                             "--test", str(data / "test.csv"),
                             "--cells-csv", str(cells)]) == 0
        capsys.readouterr()
        report = old_path["report"]
        assert (run / "audit.json").read_text(encoding="utf-8") == (
            json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        )
        assert (run / "audit.txt").read_text(encoding="utf-8") == report.to_text()
        expected_cells = io.StringIO(newline="")
        csv.writer(expected_cells).writerows(report.cells_csv_rows())
        assert cells.read_bytes() == expected_cells.getvalue().encode("utf-8")

    def test_audit_without_eval(self, other_run, capsys):
        assert cli.dispatch(["audit", "--manifest", str(other_run / "manifest.json"),
                             "--test", str(other_run.parent / "data" / "test.csv")]) == 2
        self.refused(capsys, other_run / "predictions.csv")
        assert not (other_run / "audit.json").exists()

    def test_eval_on_another_test_csv(self, pipeline, tmp_path, capsys):
        manifest, data = pipeline["run"] / "manifest.json", pipeline["data"]
        assert _eval(manifest, data / "val.csv", tmp_path) == 0
        assert _audit(manifest, data / "test.csv", tmp_path) == 2
        self.refused(capsys, tmp_path / "predictions.csv")
        assert not (tmp_path / "audit.json").exists()

    def test_test_csv_edited_after_eval(self, pipeline, tmp_path, capsys):
        manifest = pipeline["run"] / "manifest.json"
        test = tmp_path / "test.csv"
        shutil.copyfile(pipeline["data"] / "test.csv", test)
        assert _eval(manifest, test, tmp_path) == 0
        comments = datasets.read_canonical(test)
        edited = [datasets.Comment(c.id, c.text + " indeed", c.label) for c in comments]
        datasets.write_canonical(edited, test)
        assert _audit(manifest, test, tmp_path) == 2
        self.refused(capsys, tmp_path / "predictions.csv")

    def test_checkpoint_replaced_after_eval(self, pipeline, other_run, tmp_path, capsys):
        run, test = pipeline["run"], pipeline["data"] / "test.csv"
        checkpoint = tmp_path / "checkpoint.bin"
        shutil.copyfile(run / "checkpoint.bin", checkpoint)
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["artifacts"]["checkpoint"] = str(checkpoint)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        assert _eval(path, test, tmp_path) == 0
        assert _audit(path, test, tmp_path) == 0
        shutil.copyfile(other_run / "checkpoint.bin", checkpoint)
        capsys.readouterr()
        assert _audit(path, test, tmp_path) == 2
        self.refused(capsys, tmp_path / "predictions.csv")

    @pytest.mark.parametrize("tamper", [
        "swap ids", "drop a row", "extra row", "bad float", "bad label", "short row",
        "columns swapped",
    ])
    def test_edited_predictions(self, pipeline, tmp_path, capsys, tamper):
        manifest, test = pipeline["run"] / "manifest.json", pipeline["data"] / "test.csv"
        assert _eval(manifest, test, tmp_path) == 0
        path = tmp_path / "predictions.csv"
        tag, *lines = path.read_text(encoding="utf-8").splitlines()
        header, *rows = csv.reader(lines)
        if tamper == "swap ids":
            rows[0][0], rows[1][0] = rows[1][0], rows[0][0]
        elif tamper == "drop a row":
            rows.pop()
        elif tamper == "extra row":
            rows.append(rows[-1])
        elif tamper == "bad float":
            rows[3][3] = "x"
        elif tamper == "bad label":
            rows[3][1] = "maybe"
        elif tamper == "short row":
            rows[3] = rows[3][:3]
        else:
            header[2], header[3] = header[3], header[2]
        body = io.StringIO(newline="")
        csv.writer(body, lineterminator="\n").writerows([header, *rows])
        path.write_text(f"{tag}\n{body.getvalue()}", encoding="utf-8")
        capsys.readouterr()
        assert _audit(manifest, test, tmp_path) == 2
        self.refused(capsys, path)

    def test_reports_into_missing_directories(self, pipeline, tmp_path, capsys):
        manifest, test = pipeline["run"] / "manifest.json", pipeline["data"] / "test.csv"
        reports = tmp_path / "new" / "reports"
        cells = tmp_path / "other" / "cells.csv"
        assert _eval(manifest, test, reports) == 0
        assert _audit(manifest, test, reports, "--cells-csv", str(cells)) == 0
        capsys.readouterr()
        for path in (reports / "eval.json", reports / "predictions.csv",
                     reports / "audit.json", reports / "audit.txt", cells):
            assert path.exists(), path
