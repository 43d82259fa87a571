import hashlib
import json
from pathlib import Path

import pytest

from subsense import cli

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
        first = (run / "eval.json").read_bytes()
        assert cli.dispatch(["eval", "--manifest", str(run / "manifest.json"),
                             "--test", str(data / "test.csv")]) == 0
        capsys.readouterr()
        assert (run / "eval.json").read_bytes() == first

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
