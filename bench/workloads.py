"""The benchmark workloads: their inputs, set-up and measured commands.

Every path is relative to the workload's set-up directory, which is the
working directory of both phases. The measured phase writes under ``iter/``,
which is emptied before each iteration, so the reports of every iteration
name the same paths and can be compared byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

README_MODEL = (
    "--min-freq", "2", "--max-len", "16", "--d-model", "32", "--n-heads", "2",
    "--n-layers", "1", "--d-ff", "64",
)
REAL_CORPUS_MODEL = (
    "--max-len", "128", "--d-model", "64", "--n-heads", "4", "--n-layers", "2",
    "--d-ff", "128",
)
BATCH_SIZE = 32  # the schedule default, which no workload overrides

ENCODER_LAYERS = ("encoder.forward", "encoder.load_params", "trainer.predict_batch")
FEATURE_LAYERS = (
    "trainer.prepare_examples", "subjectivity.score", "identity.detect",
    "textprep.word_split", "textprep.encode", "augment.augment",
    "datasets.read_canonical",
)
TRAIN_LAYERS = (
    "trainer.train", "encoder.backward", "trainer.validation_f1",
    "encoder.save_params", "textprep.build_vocab",
)
AUDIT_LAYERS = ("audit.audit_report", "audit.bias_groups", "audit.error_listing")


def _train(data: str, outdir: str, mode: str, model, *extra) -> list[str]:
    return ["train", "--train", f"{data}/train.csv", "--val", f"{data}/val.csv",
            "--mode", mode, "--seed", "1", "--outdir", outdir, *model, *extra]


def _eval_audit(manifest_dir: str, test: str, outdir: str) -> list[list[str]]:
    manifest = f"{manifest_dir}/manifest.json"
    return [
        ["eval", "--manifest", manifest, "--test", test, "--output", f"{outdir}/eval.json"],
        ["audit", "--manifest", manifest, "--test", test, "--output", f"{outdir}/audit.json"],
    ]


def _synth(n: int, seed: int, outdir: str) -> list[list[str]]:
    return [
        ["synth", "--n", str(n), "--theta", "0.5", "--noise", "0.0", "--seed", str(seed),
         "--outdir", outdir],
        ["split", "--input", f"{outdir}/corpus.csv", "--outdir", outdir, "--seed", "7"],
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    # Splits the benchmark generates into data/<part>.csv: (part, comments).
    generated: tuple[tuple[str, int], ...]
    setup_commands: Callable[[int], list[list[str]]]
    commands: Callable[[int], list[list[str]]]
    ss_run: str  # run directory of the ss model: manifest and checkpoint.bin
    ss_report: str  # directory the ss eval.json and audit.json are written to
    baseline_run: str | None
    test_csv: str
    input_csvs: tuple[str, ...]  # CSVs the measured phase reads
    expected_layers: tuple[str, ...]
    # Shares of the measured phase spent in numpy (encoder) and in Python
    # (feature prep, audit, CLI), from the traced profile when the benchmark
    # was written; they weight the reference computation that gauges the
    # machine's speed, and stay fixed so that versions compare.
    mix: dict[str, float]


def _quickstart_commands(seed: int) -> list[list[str]]:
    shared = ("--lexicon", "iter/data/lexicon.tsv", "--val-every", "100", "--epoch-cap", "12")
    runs = ("iter/run-ss", "iter/run-base", "iter/run-soc")
    return [
        *_synth(2000, seed, "iter/data"),
        _train("iter/data", runs[0], "ss", README_MODEL, *shared),
        _train("iter/data", runs[1], "baseline", README_MODEL, *shared),
        _train("iter/data", runs[2], "ss", README_MODEL, *shared, "--soc-weight", "0.1"),
        *(cmd for run in runs for cmd in _eval_audit(run, "iter/data/test.csv", run)),
        ["compare", *(f"{run}/manifest.json" for run in runs), "--output", "iter/compare.json"],
    ]


def _eval_only_commands(seed: int) -> list[list[str]]:
    return _eval_audit("run", "data/test.csv", "iter")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="quickstart",
            generated=(),
            setup_commands=lambda seed: [],
            commands=_quickstart_commands,
            ss_run="iter/run-ss",
            ss_report="iter/run-ss",
            baseline_run="iter/run-base",
            test_csv="iter/data/test.csv",
            input_csvs=("iter/data/corpus.csv",),
            expected_layers=(
                *ENCODER_LAYERS, *FEATURE_LAYERS, *TRAIN_LAYERS, *AUDIT_LAYERS,
                "datasets.synth_generate", "datasets.split", "trainer._soc_loss_and_grads",
            ),
            mix={"numpy": 0.9, "python": 0.1},
        ),
        Workload(
            name="longseq_eval",
            generated=(("train", 96), ("val", 32), ("test", 500)),
            setup_commands=lambda seed: [
                _train("data", "run", "ss", REAL_CORPUS_MODEL, "--epoch-cap", "1"),
            ],
            commands=_eval_only_commands,
            ss_run="run",
            ss_report="iter",
            baseline_run=None,
            test_csv="data/test.csv",
            input_csvs=("data/test.csv",),
            expected_layers=(*ENCODER_LAYERS, *FEATURE_LAYERS, *AUDIT_LAYERS),
            mix={"numpy": 0.95, "python": 0.05},
        ),
        Workload(
            name="bulk_audit",
            generated=(("train", 2000), ("val", 200), ("test", 20000)),
            setup_commands=lambda seed: [
                _train("data", "run", "ss", README_MODEL, "--epoch-cap", "2",
                       "--val-every", "50"),
            ],
            commands=_eval_only_commands,
            ss_run="run",
            ss_report="iter",
            baseline_run=None,
            test_csv="data/test.csv",
            input_csvs=("data/test.csv",),
            expected_layers=(*ENCODER_LAYERS, *FEATURE_LAYERS, *AUDIT_LAYERS),
            mix={"numpy": 0.3, "python": 0.7},
        ),
    )
}
