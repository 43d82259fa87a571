import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subsense import audit, cli, datasets, encoder, identity, subjectivity, textprep, trainer
from subsense.augment import AugmentMode

import oracles
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


def copy_run(pipeline, dest):
    """A copy of the pipeline's run directory at ``dest``."""
    return Path(shutil.copytree(pipeline["run"], dest))


def senses(lexicon):
    """Every form of ``lexicon`` with its senses, in their order."""
    return {form: lexicon.senses(form) for form in lexicon.forms}


def rehash(run, name):
    """Record ``name``'s current sha256 in ``run``'s manifest, as if train had
    written it, so that the reader past the digest check sees the file."""
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["files"][name] = sha(run / name)
    (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")


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

    def test_convert_reads_no_canonical_kind(self, tmp_path, capsys):
        """split, train, eval and audit read a canonical CSV themselves, so
        convert has no kind for one."""
        out = tmp_path / "out.csv"
        assert cli.dispatch(["convert", "--kind", "synthetic", "--input",
                             str(DATA_DIR / "ws_10.csv"), "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert "invalid choice: 'synthetic'" in err and err.startswith("argument --kind")
        assert "usage: subsense convert" in err and not out.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--train", "t.csv", "--val", "v.csv", "--mode", "ss", "--seed", "1",
         "--outdir", "{tmp}/run", "--dataset-id", "x"],
        ["audit", "--manifest", "m.json", "--test", "t.csv", "--cells-csv", "{tmp}/cells.csv"],
    ], ids=["train-dataset-id", "audit-cells-csv"])
    def test_removed_flag_is_usage_error(self, tmp_path, capsys, argv):
        """The manifest keeps no dataset label and audit writes no score
        dump, so neither flag exists."""
        assert cli.dispatch([arg.format(tmp=tmp_path) for arg in argv]) == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_data_error_is_two(self, tmp_path, capsys):
        code = cli.dispatch(["convert", "--kind", "ws",
                             "--input", str(tmp_path / "nope.csv"),
                             "--output", str(tmp_path / "out.csv")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_score_without_input_is_usage_error(self, capsys):
        assert cli.dispatch(["score"]) == 1
        capsys.readouterr()

    def test_score_of_text_and_file_is_usage_error(self, tmp_path, capsys):
        """--file is not dropped in favour of --text: both are refused with usage."""
        src = tmp_path / "lines.txt"
        src.write_text("the women spoke\n")
        assert cli.dispatch(["score", "--text", "x", "--file", str(src)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err
        assert "usage: subsense score" in captured.err


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

    def test_environment_names_no_lexicon(self, pipeline, tmp_path, capsys, monkeypatch):
        """--lexicon is the one way to name a lexicon: with SUBSENSE_LEXICON
        naming another file, score prints and train records the packaged one."""
        assert cli.dispatch(["score", "--text", "this is not good"]) == 0
        packaged = capsys.readouterr().out
        custom = tmp_path / "mini.tsv"
        custom.write_text("plain\t0.8\t0.0\t1.0\ngood\t0.1\n")
        monkeypatch.setenv("SUBSENSE_LEXICON", str(custom))
        assert subjectivity.default_lexicon() is subjectivity.default_lexicon()
        assert len(subjectivity.default_lexicon()) == len(
            subjectivity.load_lexicon(subjectivity.DEFAULT_LEXICON_XML))
        assert "plain" not in subjectivity.default_lexicon()
        assert cli.dispatch(["score", "--text", "this is not good"]) == 0
        assert capsys.readouterr().out == packaged
        assert cli.dispatch(["score", "--text", "a plain sentence"]) == 0
        assert "subjectivity 0.0000" in capsys.readouterr().out
        data, run = pipeline["data"], tmp_path / "run"
        assert cli.dispatch([
            "train", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
            "--mode", "ss", "--seed", "1", "--outdir", str(run), *TRAIN_FLAGS,
        ]) == 0
        capsys.readouterr()
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["inputs"]["lexicon.tsv"] == {"packaged": "en_subjectivity.xml"}
        assert senses(subjectivity.load_lexicon(run / "lexicon.tsv")) == senses(
            subjectivity.load_lexicon(subjectivity.DEFAULT_LEXICON_XML))

    def test_byte_order_mark_is_not_part_of_the_first_entry(self, tmp_path, capsys):
        lexicon, terms = tmp_path / "mini.tsv", tmp_path / "terms.txt"
        lexicon.write_bytes("\ufeffsentence\t0.4\n".encode("utf-8"))
        terms.write_bytes("\ufeffwomen\n".encode("utf-8"))
        assert cli.dispatch(["score", "--text", "women, a sentence", "--lexicon", str(lexicon),
                             "--identity-terms", str(terms)]) == 0
        out = capsys.readouterr().out
        assert "subjectivity 0.4000" in out and "matched: women" in out

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

    def test_convert_onto_its_input(self, tmp_path, capsys):
        raw = tmp_path / "raw.csv"
        shutil.copy(DATA_DIR / "ws_10.csv", raw)
        assert cli.dispatch(["convert", "--kind", "ws", "--input", str(raw),
                             "--output", str(raw)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.count(str(raw)) == 2
        assert raw.read_bytes() == (DATA_DIR / "ws_10.csv").read_bytes()

    def test_split_onto_its_input(self, pipeline, tmp_path, capsys):
        """A split of ``d/train.csv`` into ``d`` would replace its input with
        the train part."""
        train = tmp_path / "train.csv"
        shutil.copy(pipeline["data"] / "corpus.csv", train)
        assert cli.dispatch(["split", "--input", str(train), "--outdir", str(tmp_path),
                             "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.count(str(train)) == 2
        assert train.read_bytes() == (pipeline["data"] / "corpus.csv").read_bytes()
        assert [p.name for p in tmp_path.iterdir()] == ["train.csv"]

    def test_synth_writes_only_corpus_and_lexicon(self, tmp_path, capsys):
        out = tmp_path / "synth"
        assert cli.dispatch(["synth", "--n", "100", "--seed", "1", "--outdir", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["corpus.csv", "lexicon.tsv"]


class TestTrainArtifacts:
    def test_artifacts_exist(self, pipeline):
        run = pipeline["run"]
        for name in ("checkpoint.bin", "history.csv", "config.json",
                     "manifest.json", "vocab.txt", "eval.json"):
            assert (run / name).exists(), name

    def test_manifest_contents(self, pipeline):
        """Each run setting is written once, in config.json: the manifest
        holds only what no other file holds, and eval.json copies nothing."""
        run = pipeline["run"]
        manifest, run_config, report = (json.loads((run / name).read_text())
                                        for name in ("manifest.json", "config.json", "eval.json"))
        assert set(manifest) == {"manifest_version", "inputs", "files"}
        assert manifest["manifest_version"] == 6
        assert manifest["inputs"]["train"]["sha256"]
        assert manifest["files"] == {name: sha(run / name) for name in (
            "config.json", "vocab.txt", "checkpoint.bin", "lexicon.tsv", "identity_terms.txt")}
        assert set(run_config) == {"model", "schedule", "mode", "soc_weight", "min_freq"}
        assert (run_config["mode"], run_config["model"]["seed"]) == ("ss", 1)
        assert run_config["soc_weight"] == 0.0
        assert set(report) == {"manifest_sha256", "test", "n", "tp", "fp", "tn", "fn", "f1"}

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
        assert sha(runs[0] / "manifest.json") == sha(runs[1] / "manifest.json")

    def test_verbose_prints_each_validation(self, pipeline, tmp_path, capsys):
        """--verbose prints one line per validation, before the summary, and
        changes no byte that train writes."""
        data, out = pipeline["data"], {}
        for name, extra in (("quiet", []), ("verbose", ["--verbose"])):
            assert cli.dispatch([
                "train", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
                "--mode", "ss", "--seed", "1", "--outdir", str(tmp_path / name),
                "--lexicon", str(data / "lexicon.tsv"), *TRAIN_FLAGS, *extra,
            ]) == 0
            out[name] = capsys.readouterr().out.splitlines()
        with open(tmp_path / "quiet" / "history.csv", newline="", encoding="utf-8") as fh:
            validated = [row["step"] for row in csv.DictReader(fh) if row["val_f1"]]
        progress = out["verbose"][:-2]
        assert validated and [line.split()[:2] for line in progress] == [
            ["step", step] for step in validated]
        assert out["verbose"][-2] == out["quiet"][0] and len(out["quiet"]) == 2
        for name in ("checkpoint.bin", "history.csv", "config.json", "manifest.json"):
            assert (tmp_path / "verbose" / name).read_bytes() == (
                tmp_path / "quiet" / name).read_bytes(), name

    def test_eval_is_idempotent(self, pipeline, capsys):
        run, data = pipeline["run"], pipeline["data"]
        first = [(run / name).read_bytes() for name in ("eval.json", "predictions.csv")]
        assert cli.dispatch(["eval", "--manifest", str(run / "manifest.json"),
                             "--test", str(data / "test.csv")]) == 0
        capsys.readouterr()
        assert [(run / name).read_bytes() for name in ("eval.json", "predictions.csv")] == first

    def test_audit_reports(self, pipeline, old_path, capsys):
        run, data = pipeline["run"], pipeline["data"]
        assert cli.dispatch(["audit", "--manifest", str(run / "manifest.json"),
                             "--test", str(data / "test.csv")]) == 0
        out = capsys.readouterr().out
        payload = json.loads((run / "audit.json").read_text())
        assert "cells" in payload and "named_groups" in payload
        # The text report lives on stdout only.
        assert out.startswith(old_path["report"].to_text())
        assert not (run / "audit.txt").exists()

    def test_compare_renders_tables(self, pipeline, capsys):
        run = pipeline["run"]
        code = cli.dispatch(["compare", str(run / "manifest.json")])
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

    @pytest.mark.parametrize("again", ["{run}/manifest.json", "{run}/../{name}/manifest.json",
                                       "{copy}/manifest.json"],
                             ids=["same-path", "path-through-the-parent", "copied-directory"])
    def test_compare_counts_each_run_once(self, pipeline, tmp_path, capsys, again):
        """A run given twice, by its path or as a copy of its directory (the
        same manifest bytes), exits 2 with one line naming both paths."""
        run = pipeline["run"]
        first = str(run / "manifest.json")
        copy = copy_run(pipeline, tmp_path / "copy")
        again = again.format(run=run, name=run.name, copy=copy)
        out = tmp_path / "compare.json"
        assert cli.dispatch(["compare", first, again, "--output", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: manifest {again} is the run of {first} "
                                           "(the same sha256); give each run once\n")
        assert not out.exists()

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

    def test_compare_refuses_an_earlier_runs_eval(self, pipeline, tmp_path, capsys):
        """An eval.json that an ss run left in a directory the baseline was
        then trained into is refused, until eval runs again."""
        data, run = pipeline["data"], tmp_path / "rerun"
        for mode, seed in (("ss", "1"), ("baseline", "2")):
            assert cli.dispatch([
                "train", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
                "--mode", mode, "--seed", seed, "--outdir", str(run),
                "--lexicon", str(data / "lexicon.tsv"), *TRAIN_FLAGS,
            ]) == 0
            if mode == "ss":
                assert cli.dispatch(["eval", "--manifest", str(run / "manifest.json"),
                                     "--test", str(data / "test.csv")]) == 0
        capsys.readouterr()
        assert cli.dispatch(["compare", str(run / "manifest.json")]) == 2
        err = capsys.readouterr().err.strip()
        assert str(run / "eval.json") in err and "\n" not in err
        assert cli.dispatch(["eval", "--manifest", str(run / "manifest.json"),
                             "--test", str(data / "test.csv")]) == 0
        capsys.readouterr()
        assert cli.dispatch(["compare", str(run / "manifest.json")]) == 0
        assert "baseline" in capsys.readouterr().out

    def test_compare_refuses_the_eval_of_an_earlier_checkpoint(self, pipeline, tmp_path, capsys):
        """A run retrained on other data with the same flags writes the same
        config.json, yet another manifest, so its predecessor's eval.json is
        refused."""
        data, run = pipeline["data"], tmp_path / "rerun"
        flags = [*TRAIN_FLAGS[:-1], "30"]
        assert flags[-2] == "--vocab-size"
        digests = []
        for train_csv in ("train.csv", "test.csv"):
            assert cli.dispatch([
                "train", "--train", str(data / train_csv), "--val", str(data / "val.csv"),
                "--mode", "ss", "--seed", "1", "--outdir", str(run),
                "--lexicon", str(data / "lexicon.tsv"), *flags,
            ]) == 0
            digests.append(json.loads((run / "manifest.json").read_text())["files"])
            if train_csv == "train.csv":
                assert cli.dispatch(["eval", "--manifest", str(run / "manifest.json"),
                                     "--test", str(data / "test.csv")]) == 0
                assert cli.dispatch(["compare", str(run / "manifest.json")]) == 0
        assert digests[0]["config.json"] == digests[1]["config.json"]
        assert digests[0]["checkpoint.bin"] != digests[1]["checkpoint.bin"]
        capsys.readouterr()
        assert cli.dispatch(["compare", str(run / "manifest.json")]) == 2
        err = capsys.readouterr().err.strip()
        assert str(run / "eval.json") in err and "manifest" in err and "\n" not in err
        assert cli.dispatch(["eval", "--manifest", str(run / "manifest.json"),
                             "--test", str(data / "test.csv")]) == 0
        report = json.loads((run / "eval.json").read_text())
        assert report["manifest_sha256"] == sha(run / "manifest.json")
        assert not {"config_digest", "checkpoint_sha256"} & set(report)
        assert cli.dispatch(["compare", str(run / "manifest.json")]) == 0

    def test_compare_refuses_runs_on_different_test_csvs(self, pipeline, other_run, tmp_path,
                                                          capsys):
        """Runs evaluated on different test CSVs exit 2 with one line naming
        both eval.json paths and write no --output; a copy of the test CSV
        at another path holds the same rows and is accepted."""
        data, run = pipeline["data"], pipeline["run"]
        other = Path(shutil.copytree(other_run, tmp_path / "other"))
        manifests = [str(run / "manifest.json"), str(other / "manifest.json")]
        out = tmp_path / "compare.json"
        assert cli.dispatch(["eval", "--manifest", manifests[1],
                             "--test", str(data / "val.csv")]) == 0
        capsys.readouterr()
        assert cli.dispatch(["compare", *manifests, "--output", str(out)]) == 2
        assert capsys.readouterr().err == (f"error: {run / 'eval.json'} and "
                                           f"{other / 'eval.json'} name different test "
                                           "CSVs; evaluate every run on one\n")
        assert not out.exists()
        test_copy = Path(shutil.copy(data / "test.csv", tmp_path / "test-copy.csv"))
        assert cli.dispatch(["eval", "--manifest", manifests[1], "--test", str(test_copy)]) == 0
        assert cli.dispatch(["compare", *manifests, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["ss"]["runs"] == 2


class TestBadInputExitsTwo:
    """Malformed inputs end with exit 2 and a one-line message."""

    def one_line_error(self, capsys):
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err
        return err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag,name", [("--lr", "lr0"), ("--soc-weight", "soc_weight")])
    def test_non_finite_rate(self, pipeline, tmp_path, capsys, flag, name, value):
        data = pipeline["data"]
        assert cli.dispatch([
            "train", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
            "--mode", "ss", "--seed", "1", "--outdir", str(tmp_path / "run"),
            *TRAIN_FLAGS, f"{flag}={value}",
        ]) == 2
        assert name in self.one_line_error(capsys)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--max-len", "2", "max_len must be at least 3"),
        ("--d-model", "0", "model dimensions must be positive"),
        ("--n-heads", "0", "model dimensions must be positive"),
        ("--d-ff", "0", "model dimensions must be positive"),
        ("--n-layers", "-1", "n_layers must be non-negative"),
        ("--min-freq", "0", "min_freq must be at least 1"),
    ])
    def test_out_of_range_model_value(self, pipeline, tmp_path, capsys, flag, value, message):
        data = pipeline["data"]
        assert cli.dispatch([
            "train", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
            "--mode", "ss", "--seed", "1", "--outdir", str(tmp_path / "run"),
            *TRAIN_FLAGS, flag, value,
        ]) == 2
        assert self.one_line_error(capsys) == f"error: {message}"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("model", [
        {"d_model": "x"}, {"n_layers": 1.0}, {"unknown": 1}, [1], None, "drop max_len",
        {"seed": "1"}, {"seed": 1.5}, {"seed": True},
    ])
    def test_run_config_broken_model(self, pipeline, tmp_path, capsys, model):
        run = copy_run(pipeline, tmp_path / "run")
        run_config = json.loads((run / "config.json").read_text())
        if model == "drop max_len":
            del run_config["model"]["max_len"]
        elif isinstance(model, dict):
            run_config["model"].update(model)
        else:
            run_config["model"] = model
        (run / "config.json").write_text(json.dumps(run_config), encoding="utf-8")
        rehash(run, "config.json")
        code = cli.dispatch(["eval", "--manifest", str(run / "manifest.json"),
                             "--test", str(pipeline["data"] / "test.csv"),
                             "--output", str(tmp_path / "eval.json")])
        assert code == 2
        assert "config.json" in self.one_line_error(capsys)
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("key,value,named", [
        ("mode", 3, "config.mode must be str"),
        ("mode", "sss", "unknown augment mode 'sss'"),
        ("mode", "drop", "config lacks mode"),
        ("soc_weight", "0.1", "config.soc_weight must be float"),
        ("soc_weight", None, "config.soc_weight must be float"),
        ("soc_weight", "drop", "config lacks soc_weight"),
        ("seed", 1, "unknown config keys seed"),
    ], ids=["mode-3", "mode-sss", "mode-drop", "soc_weight-0.1", "soc_weight-None",
            "soc_weight-drop", "stray-seed"])
    def test_run_config_setting(self, pipeline, tmp_path, key, value, named):
        """config.json is the one home of mode and soc_weight. A value no
        reader can use, or a key train does not write, re-hashed into files
        so that the digest check passes, ends eval and compare with one line
        naming config.json and the key; audit, whose predictions name the old
        manifest, exits 2."""
        run = copy_run(pipeline, tmp_path / "run")
        path, out = run / "config.json", tmp_path / "out"
        run_config = json.loads(path.read_text(encoding="utf-8"))
        if value == "drop":
            del run_config[key]
        else:
            run_config[key] = value
        path.write_text(json.dumps(run_config), encoding="utf-8")
        rehash(run, "config.json")
        manifest, test = run / "manifest.json", pipeline["data"] / "test.csv"
        for argv in (["eval", "--manifest", manifest, "--test", test, "--output", out / "e.json"],
                     ["compare", manifest, "--output", out / "compare.json"]):
            code, err = _dispatch(*argv)
            assert code == 2 and _one_line(err), (argv[0], err)
            assert f"{path}: " in err and named in err, (argv[0], err)
        code, err = _dispatch("audit", "--manifest", manifest, "--test", test,
                              "--output", out / "audit.json")
        assert code == 2 and _one_line(err), err
        assert not out.exists()

    @pytest.mark.parametrize("stray,named", [
        ({"model": {"n_classes": 2}}, "unknown ModelConfig keys n_classes"),
        ({"schedule": {"halving_factor": 0.5}}, "unknown TrainSchedule keys halving_factor"),
        ({"model": {"n_classes": 2}, "schedule": {"halving_factor": 0.5}},
         "unknown ModelConfig keys n_classes"),
    ], ids=["model.n_classes", "schedule.halving_factor", "both"])
    def test_run_config_of_older_version(self, pipeline, tmp_path, stray, named):
        """A config.json written while the model held n_classes and the
        schedule halving_factor, both of which could hold one value only:
        eval exits 2 with one line naming the file and the first stray key."""
        run = copy_run(pipeline, tmp_path / "run")
        path = run / "config.json"
        run_config = json.loads(path.read_text(encoding="utf-8"))
        for section, keys in stray.items():
            run_config[section].update(keys)
        path.write_text(json.dumps(run_config), encoding="utf-8")
        rehash(run, "config.json")
        code, err = _dispatch("eval", "--manifest", run / "manifest.json", "--test",
                              pipeline["data"] / "test.csv", "--output", tmp_path / "e.json")
        assert code == 2 and _one_line(err), err
        assert err == f"error: {path}: {named}"
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("drop", ["inputs", "lexicon", "files"])
    def test_manifest_missing_key(self, pipeline, tmp_path, capsys, drop):
        """A manifest lacking a key, or lacking the lexicon copy's entry in
        files, which is where a version-5 manifest records the lexicon."""
        manifest = json.loads((pipeline["run"] / "manifest.json").read_text())
        if drop == "lexicon":
            del manifest["files"]["lexicon.tsv"]
        else:
            del manifest[drop]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        code = cli.dispatch(["eval", "--manifest", str(path),
                             "--test", str(pipeline["data"] / "test.csv"),
                             "--output", str(tmp_path / "eval.json")])
        assert code == 2
        assert drop in self.one_line_error(capsys)

    def test_manifest_missing_artifact(self, pipeline, tmp_path, capsys):
        run = copy_run(pipeline, tmp_path / "run")
        (run / "vocab.txt").unlink()
        assert _eval(run / "manifest.json", pipeline["data"] / "test.csv", tmp_path) == 2
        assert str(run / "vocab.txt") in self.one_line_error(capsys)

    def test_version_1_manifest(self, pipeline, tmp_path, capsys):
        run = copy_run(pipeline, tmp_path / "run")
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["manifest_version"] = 1
        (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert _eval(run / "manifest.json", pipeline["data"] / "test.csv", tmp_path) == 2
        assert "unsupported manifest version" in self.one_line_error(capsys)

    def test_version_3_manifest(self, pipeline, tmp_path, capsys):
        """A version-3 manifest repeated config.json's seed, mode and
        soc_weight and named its lexicon copies beside files."""
        run = copy_run(pipeline, tmp_path / "run")
        manifest = json.loads((run / "manifest.json").read_text())
        manifest.update(manifest_version=3, seed=1, mode="ss", soc_weight=0.0,
                        lexicon="lexicon.tsv", identity_terms="paper-25")
        (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        test = pipeline["data"] / "test.csv"
        for argv in (["eval", "--manifest", run / "manifest.json", "--test", test,
                      "--output", tmp_path / "out" / "eval.json"],
                     ["audit", "--manifest", run / "manifest.json", "--test", test,
                      "--output", tmp_path / "out" / "audit.json"],
                     ["compare", run / "manifest.json"]):
            assert cli.dispatch([str(arg) for arg in argv]) == 2
            assert "unsupported manifest version" in self.one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    def test_version_4_manifest(self, pipeline, tmp_path, capsys):
        """A version-4 manifest also held a dataset label, dataset_id."""
        run = copy_run(pipeline, tmp_path / "run")
        manifest = json.loads((run / "manifest.json").read_text())
        manifest.update(manifest_version=4, dataset_id="train")
        (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        test = pipeline["data"] / "test.csv"
        for argv in (["eval", "--manifest", run / "manifest.json", "--test", test,
                      "--output", tmp_path / "out" / "eval.json"],
                     ["audit", "--manifest", run / "manifest.json", "--test", test,
                      "--output", tmp_path / "out" / "audit.json"],
                     ["compare", run / "manifest.json"]):
            assert cli.dispatch([str(arg) for arg in argv]) == 2
            assert "unsupported manifest version" in self.one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    def test_version_5_manifest(self, pipeline, tmp_path, capsys):
        """A version-5 manifest named a byte copy of the lexicon, as
        lexicon.tsv or lexicon.xml, and identity_terms.txt only for a run
        trained with --identity-terms."""
        run = copy_run(pipeline, tmp_path / "run")
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["manifest_version"] = 5
        del manifest["files"]["identity_terms.txt"]
        (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert _eval(run / "manifest.json", pipeline["data"] / "test.csv", tmp_path) == 2
        assert self.one_line_error(capsys) == (
            f"error: unsupported manifest version in {run / 'manifest.json'}")
        assert not (tmp_path / "eval.json").exists()

    def test_version_2_manifest(self, pipeline, tmp_path, capsys):
        """A version-2 manifest held a config digest and the copies' digests
        under inputs, and no files."""
        run = copy_run(pipeline, tmp_path / "run")
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["manifest_version"] = 2
        manifest["config_digest"] = "0" * 64
        manifest["inputs"]["lexicon.tsv"]["sha256"] = manifest["files"].pop("lexicon.tsv")
        del manifest["files"]
        (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        for command in ("eval", "audit"):
            assert cli.dispatch([command, "--manifest", str(run / "manifest.json"), "--test",
                                 str(pipeline["data"] / "test.csv"), "--output",
                                 str(tmp_path / "out" / f"{command}.json")]) == 2
            assert "unsupported manifest version" in self.one_line_error(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key,value", [
        ("files", None), ("inputs", ["lexicon.tsv"]), ("inputs", None),
    ], ids=["files-None", "inputs-value10", "inputs-None"])
    def test_manifest_wrong_type(self, pipeline, tmp_path, capsys, key, value):
        run = copy_run(pipeline, tmp_path / "run")
        manifest = json.loads((run / "manifest.json").read_text())
        manifest[key] = value
        (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert _eval(run / "manifest.json", pipeline["data"] / "test.csv", tmp_path) == 2
        assert f"manifest.{key}" in self.one_line_error(capsys)
        assert cli.dispatch(["compare", str(run / "manifest.json")]) == 2
        assert f"manifest.{key}" in self.one_line_error(capsys)

    @pytest.mark.parametrize("name,names", [
        ("lexicon.tsv", ["../data/lexicon.tsv"]), ("lexicon.tsv", ["packaged"]),
        ("identity_terms.txt", ["terms.txt"]), ("lexicon.tsv", ["lexicon.tsv", "lexicon.xml"]),
    ], ids=["lexicon-../data/lexicon.tsv", "lexicon-packaged", "identity_terms-terms.txt",
            "lexicon-two-copies"])
    def test_manifest_names_no_copy(self, pipeline, tmp_path, capsys, name, names):
        """files names the run file ``name`` under ``names``: another name, a
        path outside the run, or a second copy beside it. Each named file
        holds that run file's bytes and hashes as recorded, so only the names
        are refused: files names exactly the fixed run files."""
        run = copy_run(pipeline, tmp_path / "run")
        manifest = json.loads((run / "manifest.json").read_text())
        content = (run / name).read_bytes()
        del manifest["files"][name]
        for other in names:
            (run / other).parent.mkdir(parents=True, exist_ok=True)
            (run / other).write_bytes(content)
            manifest["files"][other] = sha(run / other)
        (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert _eval(run / "manifest.json", pipeline["data"] / "test.csv", tmp_path) == 2
        assert self.one_line_error(capsys) == (
            f"error: {run / 'manifest.json'}: files must name exactly config.json, vocab.txt, "
            "checkpoint.bin, lexicon.tsv, identity_terms.txt")
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("entry", [None, "0" * 64, 7, "drop", "extra"],
                             ids=["null", "other-sha256", "int", "missing", "extra-name"])
    def test_manifest_files_entry(self, pipeline, tmp_path, capsys, entry):
        run = copy_run(pipeline, tmp_path / "run")
        manifest = json.loads((run / "manifest.json").read_text())
        if entry == "drop":
            del manifest["files"]["lexicon.tsv"]
        elif entry == "extra":
            manifest["files"]["history.csv"] = sha(run / "history.csv")
        else:
            manifest["files"]["lexicon.tsv"] = entry
        (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        assert _eval(run / "manifest.json", pipeline["data"] / "test.csv", tmp_path) == 2
        err = self.one_line_error(capsys)
        assert str(run / "manifest.json") in err and "lexicon.tsv" in err
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("source", ["lexicon.tsv", "lexicon.xml"])
    def test_edited_lexicon_copy(self, pipeline, packaged_run, tmp_path, capsys, source):
        """The lexicon.tsv of a run trained from a TSV lexicon or from the
        packaged XML, with its subjectivity values edited after train."""
        trained = pipeline["run"] if source == "lexicon.tsv" else packaged_run
        run = Path(shutil.copytree(trained, tmp_path / "run"))
        lexicon = run / "lexicon.tsv"
        rows = [line.split("\t") for line in lexicon.read_text(encoding="utf-8").splitlines()]
        lexicon.write_text("".join(
            "\t".join(row if row[0].startswith("#") else [row[0], "0.9", *row[2:]]) + "\n"
            for row in rows), encoding="utf-8")
        assert _eval(run / "manifest.json", pipeline["data"] / "test.csv", tmp_path) == 2
        assert str(lexicon) in self.one_line_error(capsys)
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("report", [
        {}, [], {"f1": "0.5", "fp": 1, "fn": 2}, {"f1": 0.5, "fp": None, "fn": 2},
        {"f1": 0.5, "fp": 1}, {"f1": 0.5, "fp": 1, "fn": True},
    ])
    def test_compare_eval_report_without_numbers(self, pipeline, tmp_path, capsys, report):
        run = copy_run(pipeline, tmp_path / "run")
        (run / "eval.json").write_text(json.dumps(report), encoding="utf-8")
        assert cli.dispatch(["compare", str(run / "manifest.json")]) == 2
        assert str(run / "eval.json") in self.one_line_error(capsys)

    @pytest.mark.parametrize("test", [{}, {"path": "t.csv"}, {"path": "t.csv", "sha256": 1}])
    def test_compare_eval_report_without_test_digest(self, pipeline, tmp_path, capsys, test):
        run = copy_run(pipeline, tmp_path / "run")
        report = json.loads((run / "eval.json").read_text())
        (run / "eval.json").write_text(json.dumps({**report, "test": test}), encoding="utf-8")
        assert cli.dispatch(["compare", str(run / "manifest.json")]) == 2
        assert str(run / "eval.json") in self.one_line_error(capsys)

    def test_manifest_not_json(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text("not json", encoding="utf-8")
        assert cli.dispatch(["compare", str(path)]) == 2
        self.one_line_error(capsys)

    def test_read_error(self, tmp_path, capsys):
        assert cli.dispatch(["score", "--file", str(tmp_path)]) == 2
        self.one_line_error(capsys)

    def test_identity_term_with_punctuation_at_an_end(self, tmp_path, capsys):
        terms = tmp_path / "terms.txt"
        terms.write_text("women\nc++\n", encoding="utf-8")
        assert cli.dispatch(["score", "--text", "i love c++", "--identity-terms", str(terms)]) == 2
        assert "'c++'" in self.one_line_error(capsys)

    def test_identity_term_file_without_terms(self, tmp_path, capsys):
        """A gate built from no term never opens."""
        terms = tmp_path / "terms.txt"
        terms.write_text("# no terms yet\n\n#women\n", encoding="utf-8")
        assert cli.dispatch(["score", "--text", "women", "--identity-terms", str(terms)]) == 2
        assert self.one_line_error(capsys) == (
            f"error: identity term file {terms} contains no terms")

    def test_nul_byte_in_an_argument(self, capsys):
        """No command line holds a NUL byte, but a Python caller of dispatch
        can pass one."""
        assert cli.dispatch(["convert", "--kind", "ws", "--input", str(DATA_DIR / "ws_10.csv"),
                             "--output", "\0"]) == 2
        assert self.one_line_error(capsys) == "error: an argument holds a NUL byte"

    def test_csv_field_past_the_size_limit(self, tmp_path, capsys):
        long = tmp_path / "long.csv"
        long.write_text("id,text,label\na," + "x" * 200_000 + ",toxic\n", encoding="utf-8")
        argv = ["split", "--input", str(long), "--outdir", str(tmp_path / "out"), "--seed", "1"]
        assert cli.dispatch(argv) == 2
        assert str(long) in self.one_line_error(capsys)

    @pytest.mark.parametrize("name,argv", [
        ("bad.tsv", ["score", "--text", "good", "--lexicon", "{bad}"]),
        ("bad.xml", ["score", "--text", "good", "--lexicon", "{bad}"]),
        ("bad.txt", ["score", "--text", "good", "--identity-terms", "{bad}"]),
        ("bad.txt", ["score", "--file", "{bad}"]),
        ("bad.csv", ["split", "--input", "{bad}", "--outdir", "{tmp}/out", "--seed", "1"]),
        ("bad.csv", ["convert", "--kind", "ws", "--input", "{bad}", "--output", "{tmp}/o.csv"]),
        ("vocab.txt", ["eval", "--manifest", "{manifest}", "--test", "{test}",
                       "--output", "{tmp}/eval.json"]),
    ], ids=["lexicon-tsv", "lexicon-xml", "identity-terms", "score-file", "split", "convert",
            "vocab"])
    def test_input_not_utf8(self, pipeline, tmp_path, capsys, name, argv):
        run = copy_run(pipeline, tmp_path / "run")
        bad = (run if name == "vocab.txt" else tmp_path) / name
        bad.write_bytes(b"good\t0.6\n\xff\n")
        if name == "vocab.txt":
            rehash(run, name)
        fill = {"bad": bad, "tmp": tmp_path, "manifest": run / "manifest.json",
                "test": pipeline["data"] / "test.csv"}
        assert cli.dispatch([arg.format(**fill) for arg in argv]) == 2
        assert str(bad) in self.one_line_error(capsys)

    @pytest.mark.parametrize("value", ["inf", "7.5", "-1", "nan"])
    @pytest.mark.parametrize("column", [2, 3], ids=["p_toxic", "subjectivity"])
    def test_predictions_value_outside_unit_interval(self, pipeline, tmp_path, capsys,
                                                     column, value):
        manifest, test = pipeline["run"] / "manifest.json", pipeline["data"] / "test.csv"
        assert _eval(manifest, test, tmp_path) == 0
        path = tmp_path / "predictions.csv"
        tag, *lines = path.read_text(encoding="utf-8").splitlines()
        header, *rows = csv.reader(lines)
        rows[2][column] = value
        body = io.StringIO(newline="")
        csv.writer(body, lineterminator="\n").writerows([header, *rows])
        path.write_text(f"{tag}\n{body.getvalue()}", encoding="utf-8")
        capsys.readouterr()
        assert _audit(manifest, test, tmp_path) == 2
        err = self.one_line_error(capsys)
        assert str(path) in err and "outside [0, 1]" in err and "subsense eval" in err
        assert not (tmp_path / "audit.json").exists()

    @pytest.mark.parametrize("command", ["eval", "audit", "train"])
    def test_csv_without_comments(self, pipeline, tmp_path, capsys, command):
        empty = tmp_path / "empty.csv"
        datasets.write_canonical([], empty)
        assert datasets.read_canonical(empty) == []
        manifest, data = pipeline["run"] / "manifest.json", pipeline["data"]
        if command == "eval":
            code = _eval(manifest, empty, tmp_path)
        elif command == "audit":
            code = _audit(manifest, empty, tmp_path)
        else:
            code = cli.dispatch(["train", "--train", str(data / "train.csv"), "--val",
                                 str(empty), "--mode", "ss", "--seed", "1", "--outdir",
                                 str(tmp_path / "run"), *TRAIN_FLAGS])
        assert code == 2
        assert self.one_line_error(capsys) == f"error: no comments in {empty}"

    def test_vocab_of_another_size(self, pipeline, tmp_path, capsys):
        run = copy_run(pipeline, tmp_path / "run")
        vocab = run / "vocab.txt"
        vocab.write_text(vocab.read_text(encoding="utf-8") + "extra\n", encoding="utf-8")
        rehash(run, "vocab.txt")
        assert _eval(run / "manifest.json", pipeline["data"] / "test.csv", tmp_path) == 2
        assert str(vocab) in self.one_line_error(capsys)
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("corrupt", [
        lambda blob: blob[:10],
        lambda blob: blob[:8] + (10**9).to_bytes(8, "little") + blob[16:],
        lambda blob: blob.replace(b'"name"', b'"nome"'),
        lambda blob: blob.replace(b'"<f8"', b'"<f4"', 1),
    ], ids=["cut-to-10-bytes", "manifest-length-past-end", "entry-without-name", "dtype-f4"])
    def test_corrupt_checkpoint(self, pipeline, tmp_path, capsys, corrupt):
        run = copy_run(pipeline, tmp_path / "run")
        checkpoint = run / "checkpoint.bin"
        checkpoint.write_bytes(corrupt(checkpoint.read_bytes()))
        rehash(run, "checkpoint.bin")
        assert _eval(run / "manifest.json", pipeline["data"] / "test.csv", tmp_path) == 2
        err = self.one_line_error(capsys)
        assert str(checkpoint) in err and "Traceback" not in err
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("argv, clash", [
        (["audit", "--output", "{tmp}/predictions.csv"], "predictions.csv"),
        (["eval", "--output", "{tmp}/predictions.csv"], "predictions.csv"),
    ], ids=["audit-json-on-predictions", "eval-json-on-predictions"])
    def test_outputs_that_are_one_file(self, pipeline, tmp_path, capsys, argv, clash):
        manifest, test = pipeline["run"] / "manifest.json", pipeline["data"] / "test.csv"
        assert _eval(manifest, test, tmp_path) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        capsys.readouterr()
        command, *flags = argv
        assert cli.dispatch([command, "--manifest", str(manifest), "--test", str(test),
                             *(flag.format(tmp=tmp_path) for flag in flags)]) == 2
        assert self.one_line_error(capsys).count(str(tmp_path / clash)) == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("argv, message", [
        (["split", "--input", "{tmp}/tiny_class.csv", "--outdir", "{tmp}/out", "--seed", "1"],
         "class nontoxic has only 2 examples; need at least 3 to stratify"),
        (["train", "--train", "{tmp}/one_class.csv", "--val", "{val}", "--mode", "ss",
          "--seed", "1", "--outdir", "{tmp}/out", *TRAIN_FLAGS],
         "training labels must include both classes"),
        (["score", "--text", "good", "--lexicon", "{tmp}/empty.xml"],
         "lexicon file {tmp}/empty.xml contains no usable entries"),
    ], ids=["split-of-a-two-comment-class", "train-on-one-class", "score-with-an-empty-lexicon"])
    def test_empty_or_single_class_data(self, pipeline, tmp_path, capsys, argv, message):
        comments = [datasets.Comment(f"c{i}", f"comment number {i}", datasets.Label(i < 10))
                    for i in range(12)]
        datasets.write_canonical(comments, tmp_path / "tiny_class.csv")
        datasets.write_canonical(comments[:10], tmp_path / "one_class.csv")
        (tmp_path / "empty.xml").write_text("<lexicon></lexicon>", encoding="utf-8")
        fill = {"tmp": tmp_path, "val": pipeline["data"] / "val.csv"}
        assert cli.dispatch([arg.format(**fill) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {message.format(**fill)}\n"
        assert not (tmp_path / "out").exists()

    def test_write_error(self, pipeline, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        assert cli.dispatch(["split", "--input", str(pipeline["data"] / "corpus.csv"),
                             "--outdir", str(blocker), "--seed", "1"]) == 2
        self.one_line_error(capsys)

    @pytest.mark.parametrize("argv, flag, taken", [
        (["eval", "--manifest", "{manifest}", "--test", "{test}", "--output", "{taken}"],
         "--output", "taken"),
        (["audit", "--manifest", "{manifest}", "--test", "{test}", "--output", "{taken}"],
         "--output", "taken"),
        (["compare", "{manifest}", "--output", "{taken}"], "--output", "taken"),
        (["convert", "--kind", "ws", "--input", "{raw}", "--output", "{taken}"], "--output",
         "taken"),
        (["train", "--train", "{data}/train.csv", "--val", "{data}/val.csv", "--mode", "ss",
          "--seed", "1", "--outdir", "{out}", *TRAIN_FLAGS], "run file", "checkpoint.bin"),
        (["synth", "--n", "40", "--seed", "1", "--outdir", "{out}"], "output", "corpus.csv"),
    ], ids=["eval-output", "audit-output", "compare-output", "convert-output",
            "train-checkpoint", "synth-corpus"])
    def test_file_output_that_is_a_directory(self, pipeline, tmp_path, capsys, monkeypatch,
                                             argv, flag, taken):
        """Refused before any work: eval wrote its predictions beside such an
        --output before failing on it; train trained
        the whole model and synth made its corpus, then failed to write into
        the directory, naming their temporary file."""
        def no_work(*args, **kwargs):
            raise AssertionError("the command computed before checking its outputs")

        monkeypatch.setattr(trainer, "train", no_work)
        monkeypatch.setattr(datasets, "synth_generate", no_work)
        out = tmp_path / "out"
        fill = {"manifest": pipeline["run"] / "manifest.json",
                "test": pipeline["data"] / "test.csv", "raw": DATA_DIR / "ws_10.csv",
                "data": pipeline["data"], "out": out, "taken": out / taken}
        assert _eval(fill["manifest"], fill["test"], out) == 0  # audit reads its predictions
        (out / taken).mkdir()
        before = {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")}
        capsys.readouterr()
        assert cli.dispatch([arg.format(**fill) for arg in argv]) == 2
        assert self.one_line_error(capsys) == (
            f"error: {flag} {out / taken} is a directory; give a file path")
        assert {p: p.read_bytes() if p.is_file() else None for p in out.rglob("*")} == before

    @pytest.mark.parametrize("argv", [
        ["train", "--train", "{data}/train.csv", "--val", "{data}/val.csv", "--mode", "ss",
         "--seed", "1", "--outdir", "{taken}", *TRAIN_FLAGS],
        ["split", "--input", "{data}/corpus.csv", "--outdir", "{taken}", "--seed", "1"],
        ["synth", "--n", "40", "--seed", "1", "--outdir", "{taken}"],
    ], ids=["train", "split", "synth"])
    def test_outdir_that_is_a_file(self, pipeline, tmp_path, capsys, monkeypatch, argv):
        """Refused before any work: train trained the whole model, then
        failed to make the directory."""
        def no_work(*args, **kwargs):
            raise AssertionError("the command read or computed before checking its outdir")

        for module, name in ((trainer, "train"), (datasets, "split"),
                             (datasets, "synth_generate")):
            monkeypatch.setattr(module, name, no_work)
        taken = tmp_path / "taken"
        taken.write_text("kept\n", encoding="utf-8")
        fill = {"data": pipeline["data"], "taken": taken}
        assert cli.dispatch([arg.format(**fill) for arg in argv]) == 2
        assert self.one_line_error(capsys) == (
            f"error: --outdir {taken} exists and is not a directory")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert taken.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("argv, flag, below", [
        (["eval", "--manifest", "{manifest}", "--test", "{test}", "--output", "{out}"],
         "--output", "eval.json"),
        (["train", "--train", "{data}/train.csv", "--val", "{data}/val.csv", "--mode", "ss",
          "--seed", "1", "--outdir", "{out}", *TRAIN_FLAGS], "--outdir", "run"),
    ], ids=["eval-output", "train-outdir"])
    def test_output_below_a_file(self, pipeline, tmp_path, capsys, monkeypatch, argv, flag,
                                 below):
        """Refused before any work: eval ran the model and train trained it,
        then failed to make the directory."""
        def no_work(*args, **kwargs):
            raise AssertionError("the command computed before checking its output")

        monkeypatch.setattr(trainer, "train", no_work)
        monkeypatch.setattr(trainer, "predict_batch", no_work)
        taken = tmp_path / "taken"
        taken.write_text("kept\n", encoding="utf-8")
        out = taken / "sub" / below
        fill = {"manifest": pipeline["run"] / "manifest.json",
                "test": pipeline["data"] / "test.csv", "data": pipeline["data"], "out": out}
        assert cli.dispatch([arg.format(**fill) for arg in argv]) == 2
        assert self.one_line_error(capsys) == (
            f"error: {flag} {out} lies below {taken}, which is not a directory")
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]
        assert taken.read_text(encoding="utf-8") == "kept\n"

    @pytest.mark.parametrize("flag, name", [
        ("--train", "history.csv"), ("--val", "manifest.json"), ("--lexicon", "lexicon.tsv"),
        ("--identity-terms", "identity_terms.txt"),
    ], ids=["train-csv-as-history", "val-csv-as-manifest", "lexicon-as-its-rewrite",
            "terms-as-their-rewrite"])
    def test_train_input_that_is_a_run_file(self, pipeline, tmp_path, capsys, monkeypatch,
                                            flag, name):
        """Refused before any work: train read the input, trained, then wrote
        its run file over it (and for a CSV recorded that file's sha256 as
        the input's)."""
        def no_work(*args, **kwargs):
            raise AssertionError("train trained before checking its inputs")

        monkeypatch.setattr(trainer, "train", no_work)
        run = tmp_path / "run"
        run.mkdir()
        terms = tmp_path / "terms.txt"
        terms.write_text("Women\n", encoding="utf-8")
        data = pipeline["data"]
        inputs = {"--train": data / "train.csv", "--val": data / "val.csv",
                  "--lexicon": data / "lexicon.tsv", "--identity-terms": terms}
        inputs[flag] = Path(shutil.copyfile(inputs[flag], run / name))
        before = inputs[flag].read_bytes()
        assert cli.dispatch(["train", *(str(arg) for pair in inputs.items() for arg in pair),
                             "--mode", "ss", "--seed", "1", "--outdir", str(run),
                             *TRAIN_FLAGS]) == 2
        assert self.one_line_error(capsys) == (
            f"error: run file {run / name} and {flag} {run / name} are the same file; "
            "give each its own path")
        assert [p.name for p in run.iterdir()] == [name]
        assert inputs[flag].read_bytes() == before

    def test_train_with_no_layers(self, pipeline, tmp_path, capsys, monkeypatch):
        """Refused before any CSV is read: with no block CLS attends to
        nothing, so every comment gets one logit row."""
        def no_work(*args, **kwargs):
            raise AssertionError("train read its data before checking --n-layers")

        monkeypatch.setattr(datasets, "read_canonical", no_work)
        data, run = pipeline["data"], tmp_path / "run"
        assert cli.dispatch(["train", "--train", str(data / "train.csv"),
                             "--val", str(data / "val.csv"), "--mode", "ss", "--seed", "1",
                             "--outdir", str(run), *TRAIN_FLAGS, "--n-layers", "0"]) == 2
        assert "--n-layers 0" in self.one_line_error(capsys)
        assert not run.exists()

    def test_train_and_val_that_are_one_file(self, pipeline, tmp_path, capsys):
        """Two reads of one file are no clash; only a write may not share one."""
        train = pipeline["data"] / "train.csv"
        assert cli.dispatch(["train", "--train", str(train), "--val", str(train),
                             "--mode", "ss", "--seed", "1", "--outdir", str(tmp_path / "run"),
                             "--lexicon", str(pipeline["data"] / "lexicon.tsv"),
                             *TRAIN_FLAGS]) == 0
        assert capsys.readouterr().err == ""
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["inputs"]["train"] == manifest["inputs"]["val"]


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
        subjectivity.load_lexicon(data / "lexicon.tsv"), identity.default_terms(),
        config.max_len, AugmentMode.SS,
    )
    params = encoder.load_params(run / "checkpoint.bin", config)
    preds, probs = trainer.predict_batch(params, config, prepared.data)
    features = oracles.prepared_features(prepared)
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
        assert lines[0] == (f"# subsense predictions manifest={sha(run / 'manifest.json')} "
                            f"test={sha(data / 'test.csv')}")
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

    def test_reports_equal_the_old_path(self, pipeline, old_path, capsys):
        run, data = pipeline["run"], pipeline["data"]
        assert cli.dispatch(["audit", "--manifest", str(run / "manifest.json"),
                             "--test", str(data / "test.csv")]) == 0
        capsys.readouterr()
        report = old_path["report"]
        assert (run / "audit.json").read_text(encoding="utf-8") == (
            json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        )

    def test_audit_json_copies_no_per_comment_record(self, pipeline, capsys):
        run, data = pipeline["run"], pipeline["data"]
        assert cli.dispatch(["audit", "--manifest", str(run / "manifest.json"),
                             "--test", str(data / "test.csv")]) == 0
        out = capsys.readouterr().out
        payload = json.loads((run / "audit.json").read_text(encoding="utf-8"))
        assert set(payload) == {"counts", "f1", "cells", "named_groups"}
        lines = (run / "predictions.csv").read_text(encoding="utf-8").splitlines()
        rows = {row["id"]: row for row in csv.DictReader(lines[1:])}
        golds = {c.id: c.label for c in datasets.read_canonical(data / "test.csv")}
        wrong = [cid for cid, row in rows.items()
                 if datasets.Label.parse(row["pred"]) != golds[cid]]
        assert wrong
        # Each error line of stdout names one wrong row of predictions.csv.
        listed = [line.rpartition(" id=")[2] for line in out.splitlines()
                  if line.startswith(("  FP ", "  FN "))]
        assert sorted(listed) == sorted(wrong)

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
        """audit never loads the checkpoint, yet refuses a replaced one
        through the manifest's files."""
        run, test = copy_run(pipeline, tmp_path / "run"), pipeline["data"] / "test.csv"
        path = run / "manifest.json"
        assert _eval(path, test, tmp_path) == 0
        assert _audit(path, test, tmp_path) == 0
        shutil.copyfile(other_run / "checkpoint.bin", run / "checkpoint.bin")
        capsys.readouterr()
        assert _audit(path, test, tmp_path) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error:") and "\n" not in err
        assert str(run / "checkpoint.bin") in err

    @pytest.mark.parametrize("tamper, reason", [
        ("no file", "no predictions"),
        ("another tag", "predictions of another run or test CSV"),
        ("wrong header", "predictions do not cover the test CSV"),
        ("wrong id", "id 'x' where the test CSV has {cid!r}"),
        ("short file", "predictions do not cover the test CSV"),
        ("pred not a label", "malformed predictions (unknown canonical label 'maybe')"),
        ("pred not as eval writes it", "malformed predictions (unknown canonical label 'Toxic')"),
        ("short row", "malformed predictions (not enough values to unpack (expected 5, got 3))"),
        ("p_toxic not a number",
         "malformed predictions (could not convert string to float: 'x')"),
        ("p_toxic out of range",
         "malformed predictions (p_toxic or subjectivity of {cid!r} outside [0, 1])"),
    ], ids=["no-file", "another-tag", "wrong-header", "wrong-id", "short-file",
            "pred-not-a-label", "pred-not-canonical", "short-row", "p_toxic-not-a-number",
            "p_toxic-out-of-range"])
    def test_stale_predictions_message(self, pipeline, tmp_path, capsys, tamper, reason):
        """Each refusal of predictions.csv is wrapped once: the reason, then
        the advice to run eval."""
        manifest, test = pipeline["run"] / "manifest.json", pipeline["data"] / "test.csv"
        assert _eval(manifest, test, tmp_path) == 0
        path = tmp_path / "predictions.csv"
        tag, *lines = path.read_text(encoding="utf-8").splitlines()
        header, *rows = csv.reader(lines)
        cid = rows[0][0]
        if tamper == "another tag":
            tag = "# subsense predictions manifest=0 test=0"
        elif tamper == "wrong header":
            header.reverse()
        elif tamper == "wrong id":
            rows[0][0] = "x"
        elif tamper == "short file":
            rows.pop()
        elif tamper == "pred not a label":
            rows[0][1] = "maybe"
        elif tamper == "pred not as eval writes it":
            rows[0][1] = "Toxic"
        elif tamper == "short row":
            rows[0] = rows[0][:3]
        elif tamper != "no file":
            rows[0][2] = "x" if tamper == "p_toxic not a number" else "7.5"
        body = io.StringIO(newline="")
        csv.writer(body, lineterminator="\n").writerows([header, *rows])
        path.write_text(f"{tag}\n{body.getvalue()}", encoding="utf-8")
        if tamper == "no file":
            path.unlink()
        capsys.readouterr()
        assert _audit(manifest, test, tmp_path) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {reason.format(cid=cid)}; run `subsense eval` with the same "
            "report directory first\n")
        assert not (tmp_path / "audit.json").exists()

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

    @settings(max_examples=30, deadline=None)
    @given(how=st.sampled_from(["drop", "duplicate", "cut"]), at=st.integers(0, 2**16))
    @example(how="cut", at=1)  # only the tag line
    @example(how="cut", at=2)  # only the tag and the header
    def test_streamed_predictions_refused(self, pipeline, how, at):
        """predictions.csv with one line dropped or repeated, or cut after
        any line: audit, which reads it in step with the test CSV, exits 2
        with one line naming the file and ``subsense eval``, and writes no
        report."""
        manifest, test = pipeline["run"] / "manifest.json", pipeline["data"] / "test.csv"
        lines = (pipeline["run"] / "predictions.csv").read_bytes().splitlines(keepends=True)
        i = at % len(lines)
        lines = {"drop": lines[:i] + lines[i + 1:], "duplicate": lines[:i + 1] + lines[i:],
                 "cut": lines[:i]}[how]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "predictions.csv"
            path.write_bytes(b"".join(lines))
            code, err = _dispatch("audit", "--manifest", manifest, "--test", test,
                                  "--output", Path(tmp) / "audit.json")
            assert code == 2 and _one_line(err), err
            assert str(path) in err and "subsense eval" in err
            assert not (Path(tmp) / "audit.json").exists()

    def test_reports_into_missing_directories(self, pipeline, tmp_path, capsys):
        manifest, test = pipeline["run"] / "manifest.json", pipeline["data"] / "test.csv"
        reports = tmp_path / "new" / "reports"
        assert _eval(manifest, test, reports) == 0
        assert _audit(manifest, test, reports) == 0
        capsys.readouterr()
        for path in (reports / "eval.json", reports / "predictions.csv", reports / "audit.json"):
            assert path.exists(), path

    def test_report_directory_holds_three_files(self, pipeline, tmp_path, capsys):
        """eval and audit write one file each per fact: the text report goes
        to stdout only."""
        manifest, test = pipeline["run"] / "manifest.json", pipeline["data"] / "test.csv"
        assert _eval(manifest, test, tmp_path) == 0
        assert _audit(manifest, test, tmp_path) == 0
        capsys.readouterr()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "audit.json", "eval.json", "predictions.csv"]


@pytest.fixture(scope="module")
def packaged_run(pipeline):
    """A run of the pipeline's data trained on the packaged lexicon."""
    data = pipeline["data"]
    run = pipeline["root"] / "run-packaged"
    assert cli.dispatch([
        "train", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
        "--mode", "ss", "--seed", "1", "--outdir", str(run), *TRAIN_FLAGS,
    ]) == 0
    return run


class TestRunDirectory:
    """eval, audit and compare read a run's files from the directory of the
    manifest they are given, whatever the working directory."""

    REPORTS = ("eval.json", "predictions.csv", "audit.json")

    @pytest.mark.parametrize("argv, written", [
        (["synth", "--n", "120", "--seed", "1", "--outdir", "."], "corpus.csv"),
        (["split", "--input", "{data}/corpus.csv", "--outdir", ".", "--seed", "1"], "test.csv"),
        (["train", "--train", "{data}/train.csv", "--val", "{data}/val.csv", "--mode", "ss",
          "--seed", "1", "--outdir", ".", "--lexicon", "{data}/lexicon.tsv", *TRAIN_FLAGS],
         "manifest.json"),
    ], ids=["synth", "split", "train"])
    def test_outdir_is_the_working_directory(self, pipeline, tmp_path, monkeypatch, capsys,
                                             argv, written):
        """"." has no parent path to check, and is a directory."""
        monkeypatch.chdir(tmp_path)
        assert cli.dispatch([arg.format(data=pipeline["data"]) for arg in argv]) == 0
        capsys.readouterr()
        assert (tmp_path / written).is_file()

    def test_outdir_is_the_root(self):
        """"/" has no parent path either; the check passes it to the writes."""
        assert cli._check_paths((), outdir="/") is None

    def test_copied_run_from_another_directory(self, pipeline, tmp_path, monkeypatch, capsys):
        run, test = pipeline["run"], str(pipeline["data"] / "test.csv")
        for command in ("eval", "audit"):
            assert cli.dispatch([command, "--manifest", str(run / "manifest.json"),
                                 "--test", test]) == 0
        copy = copy_run(pipeline, tmp_path / "copy")
        for name in self.REPORTS:
            (copy / name).unlink()
        before = {p.name: (sha(p), p.stat().st_mtime_ns) for p in run.iterdir()}
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        for command in ("eval", "audit"):
            assert cli.dispatch([command, "--manifest", "../copy/manifest.json",
                                 "--test", test]) == 0
        capsys.readouterr()
        assert {p.name: (sha(p), p.stat().st_mtime_ns) for p in run.iterdir()} == before
        for name in self.REPORTS:
            assert (copy / name).read_bytes() == (run / name).read_bytes(), name
        assert cli.dispatch(["compare", "../copy/manifest.json"]) == 0
        assert "ss" in capsys.readouterr().out

    def test_train_copies_its_lexicons(self, pipeline, tmp_path, capsys):
        """train writes the lexicon and the terms it loaded, not the bytes it
        read: the TSV rewrite holds the same senses, and the term file one
        term per line, without comments, case or repeats."""
        data, run = pipeline["data"], tmp_path / "run"
        terms = tmp_path / "terms.txt"
        terms.write_text("# my terms\nWomen\nmuslim\nwomen\n", encoding="utf-8")
        assert cli.dispatch([
            "train", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
            "--mode", "ss", "--seed", "1", "--outdir", str(run),
            "--lexicon", str(data / "lexicon.tsv"), "--identity-terms", str(terms), *TRAIN_FLAGS,
        ]) == 0
        capsys.readouterr()
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["manifest_version"] == 6 and "artifacts" not in manifest
        assert senses(subjectivity.load_lexicon(run / "lexicon.tsv")) == senses(
            subjectivity.load_lexicon(data / "lexicon.tsv"))
        assert (run / "identity_terms.txt").read_text(encoding="utf-8") == "women\nmuslim\n"
        assert manifest["inputs"]["lexicon.tsv"] == {"path": str(data / "lexicon.tsv")}
        assert manifest["inputs"]["identity_terms.txt"] == {"path": str(terms)}
        assert manifest["files"] == {name: sha(run / name) for name in cli.RUN_FILES}
        # eval refuses a term file edited after train.
        with open(run / "identity_terms.txt", "a", encoding="utf-8") as fh:
            fh.write("jews\n")
        assert cli.dispatch(["eval", "--manifest", str(run / "manifest.json"),
                             "--test", str(data / "test.csv")]) == 2
        assert str(run / "identity_terms.txt") in capsys.readouterr().err

    def test_packaged_lexicon_is_copied(self, packaged_run):
        """A run trained with neither --lexicon nor --identity-terms keeps
        the same fixed files: the packaged lexicon rewritten as lexicon.tsv
        and the stock terms as identity_terms.txt."""
        manifest = json.loads((packaged_run / "manifest.json").read_text())
        assert sorted(manifest["files"]) == [
            "checkpoint.bin", "config.json", "identity_terms.txt", "lexicon.tsv", "vocab.txt"]
        assert senses(subjectivity.load_lexicon(packaged_run / "lexicon.tsv")) == senses(
            subjectivity.default_lexicon())
        assert (packaged_run / "identity_terms.txt").read_text(encoding="utf-8").splitlines() == (
            list(identity.STOCK_TERMS))
        assert manifest["inputs"]["identity_terms.txt"] == {"packaged": "identity.STOCK_TERMS"}
        assert not (packaged_run / "lexicon.xml").exists()

    def test_eval_reads_the_runs_stock_terms(self, pipeline, packaged_run, tmp_path,
                                             monkeypatch, capsys):
        """A stock-terms run keeps the list it was trained with: a later
        change to the stock list in code changes no eval of it."""
        manifest, test = packaged_run / "manifest.json", pipeline["data"] / "test.csv"
        assert _eval(manifest, test, tmp_path / "before") == 0
        other = identity.IdentityLexicon(("people", "you"))
        monkeypatch.setattr(identity, "STOCK_TERMS", other.terms)
        monkeypatch.setattr(identity, "default_terms", lambda: other)
        assert _eval(manifest, test, tmp_path / "after") == 0
        capsys.readouterr()
        assert (tmp_path / "after" / "predictions.csv").read_bytes() == (
            tmp_path / "before" / "predictions.csv").read_bytes()

    def test_packaged_lexicon_recorded_by_name(self, pipeline, packaged_run, tmp_path,
                                               monkeypatch, capsys):
        """The packaged lexicon enters the manifest by its file name, not its
        location: trained from an identical copy elsewhere (another checkout),
        the run writes the same manifest.json, and eval the same eval.json."""
        data = pipeline["data"]
        moved = tmp_path / "elsewhere" / "en_subjectivity.xml"
        moved.parent.mkdir()
        moved.write_bytes(subjectivity.DEFAULT_LEXICON_XML.read_bytes())
        monkeypatch.setattr(subjectivity, "DEFAULT_LEXICON_XML", moved)
        run = tmp_path / "run"
        assert cli.dispatch([
            "train", "--train", str(data / "train.csv"), "--val", str(data / "val.csv"),
            "--mode", "ss", "--seed", "1", "--outdir", str(run), *TRAIN_FLAGS,
        ]) == 0
        manifest = json.loads((run / "manifest.json").read_text())
        assert manifest["inputs"]["lexicon.tsv"] == {"packaged": "en_subjectivity.xml"}
        assert (run / "manifest.json").read_bytes() == (
            packaged_run / "manifest.json").read_bytes()
        for name, directory in (("a", run), ("b", packaged_run)):
            assert _eval(directory / "manifest.json", data / "test.csv", tmp_path / name) == 0
        capsys.readouterr()
        for name in ("eval.json", "predictions.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_eval_ignores_subsense_lexicon(self, pipeline, packaged_run, tmp_path, monkeypatch,
                                           capsys):
        manifest, test = packaged_run / "manifest.json", pipeline["data"] / "test.csv"
        monkeypatch.delenv("SUBSENSE_LEXICON", raising=False)
        assert _eval(manifest, test, tmp_path / "plain") == 0
        words = {w for c in datasets.read_canonical(test) for w in textprep.word_split(c.text)
                 if w[0].isalnum()}
        every_word = tmp_path / "every-word.tsv"
        every_word.write_text("".join(f"{w}\t0.125\n" for w in sorted(words)), encoding="utf-8")
        monkeypatch.setenv("SUBSENSE_LEXICON", str(every_word))
        assert _eval(manifest, test, tmp_path / "env") == 0
        capsys.readouterr()
        assert (tmp_path / "env" / "predictions.csv").read_bytes() == (
            tmp_path / "plain" / "predictions.csv").read_bytes()

    def test_relative_lexicon_after_chdir(self, pipeline, tmp_path, monkeypatch, capsys):
        """A run trained from relative paths records other inputs, so its
        manifest and tag differ; its predictions do not."""
        data, run = pipeline["data"], tmp_path / "run"
        monkeypatch.chdir(data)
        assert cli.dispatch([
            "train", "--train", "train.csv", "--val", "val.csv", "--mode", "ss", "--seed", "1",
            "--outdir", str(run), "--lexicon", "lexicon.tsv", *TRAIN_FLAGS,
        ]) == 0
        monkeypatch.chdir(tmp_path)
        assert cli.dispatch(["eval", "--manifest", "run/manifest.json",
                             "--test", str(data / "test.csv")]) == 0
        capsys.readouterr()
        rows = [(path / "predictions.csv").read_text(encoding="utf-8").split("\n", 1)[1]
                for path in (run, pipeline["run"])]
        assert rows[0] == rows[1]


def _dispatch(*argv):
    """The exit code and the stripped stderr of one command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.dispatch([str(arg) for arg in argv])
    return code, err.getvalue().strip()


def _one_line(err):
    return err.startswith("error:") and "\n" not in err and "Traceback" not in err


class TestRunFilesChecked:
    """eval, audit and compare check every file of a run against the sha256
    its manifest's ``files`` records, and no report replaces a run file."""

    def refused_everywhere(self, run, test, out, named):
        """audit, compare and eval of ``run`` each exit 2 with one line
        naming ``named`` and write nothing."""
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        manifest = run / "manifest.json"
        for argv in (["audit", "--manifest", manifest, "--test", test,
                      "--output", out / "audit.json"],
                     ["compare", manifest, "--output", out / "compare.json"],
                     ["eval", "--manifest", manifest, "--test", test,
                      "--output", out / "eval.json"]):
            code, err = _dispatch(*argv)
            assert code == 2 and _one_line(err), (argv[0], err)
            assert str(named) in err, (argv[0], err)
        assert not out.exists()
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before

    @pytest.mark.parametrize("name,edit", [
        ("vocab.txt", "reverse"), ("config.json", "n_heads"), ("config.json", "mode"),
        ("checkpoint.bin", "replace"), ("lexicon.tsv", "values"),
    ], ids=["reversed-vocab", "n-heads-2-to-4", "mode-ss-to-so", "replaced-checkpoint",
            "edited-lexicon"])
    def test_edited_run_file(self, pipeline, other_run, tmp_path, name, edit):
        """Each edit leaves a run the readers would accept: the vocab keeps
        its size, the config its shapes (or its model, with another augment
        mode that would change the predictions), the checkpoint its config."""
        run = copy_run(pipeline, tmp_path / "run")
        path = run / name
        if edit == "reverse":
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(reversed(lines)), encoding="utf-8")
        elif edit == "mode":
            text = path.read_text(encoding="utf-8")
            assert '"mode": "ss"' in text
            path.write_text(text.replace('"mode": "ss"', '"mode": "so"'), encoding="utf-8")
        elif edit == "n_heads":
            run_config = json.loads(path.read_text(encoding="utf-8"))
            assert run_config["model"]["n_heads"] == 2
            run_config["model"]["n_heads"] = 4
            path.write_text(json.dumps(run_config, sort_keys=True, indent=2) + "\n",
                            encoding="utf-8")
        elif edit == "replace":
            shutil.copyfile(other_run / name, path)
        else:
            path.write_text(re.sub(r"^([^#\t]+)\t[^\t]+", r"\1\t0.9",
                                   path.read_text(encoding="utf-8"), flags=re.M),
                            encoding="utf-8")
        assert path.read_bytes() != (pipeline["run"] / name).read_bytes()
        self.refused_everywhere(run, pipeline["data"] / "test.csv", tmp_path / "out", path)

    def test_manifest_holds_no_setting(self, pipeline, tmp_path):
        """A mode written into the manifest, where manifests before version 4
        held it, is a key no version-5 manifest holds: eval exits 2 with one
        line naming the manifest and the key, and writes nothing."""
        run = copy_run(pipeline, tmp_path / "run")
        manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
        manifest["mode"] = "so"
        (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        code, err = _dispatch("eval", "--manifest", run / "manifest.json", "--test",
                              pipeline["data"] / "test.csv", "--output", tmp_path / "eval.json")
        assert code == 2 and _one_line(err), err
        assert f"{run / 'manifest.json'}: unknown manifest keys mode" in err
        assert not (tmp_path / "eval.json").exists()

    @pytest.mark.parametrize("argv,target", [
        (["audit", "--manifest", "{run}/manifest.json", "--test", "{test}",
          "--output", "{run}/eval.json"], "{run}/eval.json"),
        (["audit", "--manifest", "{run}/manifest.json", "--test", "{test}",
          "--output", "{run}/checkpoint.bin"], "{run}/checkpoint.bin"),
        (["eval", "--manifest", "{run}/manifest.json", "--test", "{test}",
          "--output", "{run}/manifest.json"], "{run}/manifest.json"),
        (["eval", "--manifest", "{run}/manifest.json", "--test", "{test}",
          "--output", "{run}/vocab.txt"], "{run}/vocab.txt"),
        (["compare", "{run}/manifest.json", "--output", "{run}/eval.json"], "{run}/eval.json"),
        (["eval", "--manifest", "{run}/manifest.json", "--test", "{test}",
          "--output", "{test}"], "--test {test}"),
        (["audit", "--manifest", "{run}/manifest.json", "--test", "{test}",
          "--output", "{test}"], "--test {test}"),
    ], ids=["audit-on-eval-json", "audit-on-checkpoint", "eval-on-manifest",
            "eval-on-vocab", "compare-on-eval-json", "eval-on-test-csv", "audit-on-test-csv"])
    def test_report_on_a_run_file(self, pipeline, tmp_path, argv, target):
        """No report replaces a file train wrote or the test CSV it reads."""
        run = copy_run(pipeline, tmp_path / "run")
        test = Path(shutil.copyfile(pipeline["data"] / "test.csv", tmp_path / "test.csv"))
        before = {p: p.read_bytes() for p in (test, *run.iterdir())}
        fill = {"run": run, "test": test}
        code, err = _dispatch(*(arg.format(**fill) for arg in argv))
        assert code == 2 and _one_line(err), err
        assert target.format(**fill) in err
        assert {p: p.read_bytes() for p in (test, *run.iterdir())} == before

    @settings(max_examples=100, deadline=None)
    @given(name=st.sampled_from(["manifest.json", "config.json", "vocab.txt", "checkpoint.bin",
                                 "lexicon.tsv"]),
           how=st.sampled_from(["flip", "truncate", "delete"]),
           at=st.integers(0, 2**31), xor=st.integers(1, 255))
    def test_corrupted_run_directory(self, pipeline, name, how, at, xor):
        """One byte flipped, the file cut short or deleted. A manifest
        cannot vouch for itself: an edit that leaves it valid (whitespace,
        another inputs.train.path) is refused by audit and compare, which pin
        its sha256, while eval reports the edited manifest's sha256."""
        with tempfile.TemporaryDirectory() as tmp:
            run = copy_run(pipeline, Path(tmp) / "run")
            path, out, test = run / name, Path(tmp) / "out", pipeline["data"] / "test.csv"
            blob = path.read_bytes()
            if how == "flip":
                i = at % len(blob)
                path.write_bytes(blob[:i] + bytes([blob[i] ^ xor]) + blob[i + 1:])
            elif how == "truncate":
                path.write_bytes(blob[:at % len(blob)])
            else:
                path.unlink()
            if name != "manifest.json" or how == "delete":
                self.refused_everywhere(run, test, out, path)
                return
            before = {p.name: p.read_bytes() for p in run.iterdir()}
            for argv in (["audit", "--manifest", path, "--test", test],
                         ["compare", path, "--output", out / "compare.json"]):
                code, err = _dispatch(*argv)
                assert code == 2 and _one_line(err), (argv[0], err)
            assert not out.exists()
            assert {p.name: p.read_bytes() for p in run.iterdir()} == before
            code, err = _dispatch("eval", "--manifest", path, "--test", test,
                                  "--output", out / "eval.json")
            if code == 0:
                report = json.loads((out / "eval.json").read_text(encoding="utf-8"))
                assert report["manifest_sha256"] == sha(path)
            else:
                assert code == 2 and _one_line(err), err
                assert not out.exists()


def _corrupted(blob: bytes, edits) -> bytes:
    """``blob`` after each edit in turn: cut at a position, a NUL byte, bytes
    that are not UTF-8 or a stray quote put in at one, or the header's
    ``label`` renamed."""
    for how, at in edits:
        i = at % (len(blob) + 1)
        if how == "truncate":
            blob = blob[:i]
        elif how == "no-label":
            blob = blob.replace(b"label", b"lable", 1)
        else:
            blob = blob[:i] + {"nul": b"\0", "not-utf8": b"\xff\xfe", "quote": b'"'}[how] + blob[i:]
    return blob


@settings(max_examples=40, deadline=None)
@given(edits=st.lists(st.tuples(st.sampled_from(["truncate", "nul", "not-utf8", "quote",
                                                 "no-label"]),
                                st.integers(0, 2**16)), min_size=1, max_size=3))
def test_corrupted_test_csv(pipeline, edits):
    """eval, then audit, of a corrupted test CSV: each exits 0 with nothing
    on stderr or 2 with one line, and audit succeeds exactly when eval did."""
    with tempfile.TemporaryDirectory() as tmp:
        test = Path(tmp) / "test.csv"
        test.write_bytes(_corrupted((pipeline["data"] / "test.csv").read_bytes(), edits))
        codes = []
        for command in ("eval", "audit"):
            code, err = _dispatch(command, "--manifest", pipeline["run"] / "manifest.json",
                                  "--test", test, "--output", Path(tmp) / f"{command}.json")
            assert (code, err) == (0, "") or (code == 2 and _one_line(err)), (command, code, err)
            codes.append(code)
        assert codes[0] == codes[1]


# A valid call of each command that writes, as (flag, value) pairs; the fuzz
# below drops, repeats or replaces them. Training stays small whatever it
# draws: the size and length flags are never dropped, and no drawn value
# exceeds the ones given here. A NUL byte is drawn too: no command line can
# hold one, but a Python caller of ``dispatch`` can pass one.
FUZZ_CALLS = {
    "synth": [("--n", "100"), ("--theta", "0.5"), ("--noise", "0.1"), ("--seed", "1"),
              ("--outdir", "{out}")],
    "split": [("--input", "{train}"), ("--outdir", "{out}"), ("--seed", "1")],
    "convert": [("--kind", "ws"), ("--input", "{ws}"), ("--output", "{out}/c.csv")],
    "train": [("--train", "{train}"), ("--val", "{val}"), ("--mode", "ss"), ("--seed", "1"),
              ("--outdir", "{out}"), ("--soc-weight", "0.1"), ("--lexicon", "{lexicon}"),
              ("--epoch-cap", "1"), ("--max-len", "8"), ("--d-model", "4"), ("--n-heads", "2"),
              ("--n-layers", "1"), ("--d-ff", "4"), ("--batch-size", "16"),
              ("--vocab-size", "40"), ("--val-every", "2"), ("--dropout", "0.1"),
              ("--lr", "0.01"), ("--min-freq", "1"), ("--max-halvings", "1")],
}
FUZZ_KEPT = {"--epoch-cap", "--max-len", "--d-model", "--n-layers", "--d-ff", "--batch-size"}
FUZZ_VALUES = ("-1", "0", "1", "2", "0.5", "-0.0", "nan", "inf", "1e999", "x", "", "--",
               "{train}", "{val}", "{out}", "{tmp}", "{tmp}/missing.csv", "ws", "wiki", "so",
               "baseline", "{train}/x", ".", "\0")


@st.composite
def fuzz_argv(draw):
    """One of ``FUZZ_CALLS`` with up to three of its flags dropped, given
    twice or given a drawn value, and maybe a stray argument at the end."""
    command = draw(st.sampled_from(sorted(FUZZ_CALLS)))
    pairs = list(FUZZ_CALLS[command])
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(pairs) - 1))
        flag, value = pairs[i]
        edit = draw(st.sampled_from(["drop", "twice", "value", "value", "value"]))
        if edit == "value":
            pairs[i] = (flag, draw(st.sampled_from(FUZZ_VALUES)))
        elif edit == "twice":
            pairs.append((flag, value))
        elif flag not in FUZZ_KEPT:
            del pairs[i]
    argv = [command, *(arg for pair in pairs for arg in pair)]
    return argv + draw(st.sampled_from([[]] * 6 + [["--bogus"], ["extra"]]))


def _fuzz_example(command, **values):
    return [command, *(arg for flag, value in FUZZ_CALLS[command]
                       for arg in (flag, values.get(flag.lstrip("-"), value)))]


@settings(max_examples=60, deadline=None)
@given(argv=fuzz_argv(),
       edits=st.lists(st.tuples(st.sampled_from(["train", "val", "ws"]),
                                st.sampled_from(["truncate", "nul", "not-utf8", "quote",
                                                 "no-label"]),
                                st.integers(0, 2**16)), max_size=2))
@example(argv=_fuzz_example("train", seed="-1"), edits=[])  # numpy refuses a negative seed
@example(argv=_fuzz_example("convert", output=""), edits=[])  # a path with no file name
@example(argv=_fuzz_example("convert", output="\0"), edits=[])  # no path holds a NUL byte
@example(argv=_fuzz_example("train"), edits=[("val", "truncate", 30)])
def test_writing_commands_on_any_argv_and_corrupted_csvs(pipeline, argv, edits):
    """synth, split, convert and train on drawn argv and on the train and
    val CSVs and convert's ws CSV, corrupted as above: every call exits 0, 1
    (a usage error) or 2 and prints no traceback; a ``SystemExit`` from
    argparse counts by its code. The calls run in a temporary directory,
    where a drawn relative path lands."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        fill = {"tmp": tmp, "out": f"{tmp}/out", "lexicon": pipeline["data"] / "lexicon.tsv"}
        sources = {"train": pipeline["data"] / "train.csv", "val": pipeline["data"] / "val.csv",
                   "ws": DATA_DIR / "ws_10.csv"}
        for name, source in sources.items():
            fill[name] = Path(tmp) / f"{name}.csv"
            blob = source.read_bytes()
            fill[name].write_bytes(_corrupted(blob, [e[1:] for e in edits if e[0] == name]))
        err = io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.dispatch([arg.format(**fill) for arg in argv])
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(cwd)
        assert code in (0, 1, 2) and "Traceback" not in err.getvalue(), (argv, code, err.getvalue())
