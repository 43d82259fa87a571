"""Class-reweighted training with a halve-on-plateau learning-rate schedule
and an occlusion-difference regularizer.

The schedule validates every ``val_every`` steps; whenever validation F1
falls below the best value seen so far the learning rate is halved, and
training stops at the configured number of halvings (an epoch cap guards
runs whose F1 never decreases). A non-finite loss or gradient stops
training before that step's update, with stop reason ``non_finite``. The
parameters returned are the snapshot with the best validation F1, or the
current ones when no validation has run.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import audit
from .atomic import replacing
from .augment import AugmentedExample, AugmentMode, augment
from .datasets import Label
from .encoder import EncoderParams, ModelConfig, backward, flat_params, forward, init
from .errors import ConfigError, ContractError, DegenerateLabelsError, check_fields
from .identity import IdentityLexicon, detect, holds_term
from .subjectivity import SubjectivityLexicon, score
from .textprep import EncodedExample, Vocab, encode, word_split

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainSchedule:
    batch_size: int = 32
    lr0: float = 1e-3
    val_every: int = 200
    max_halvings: int = 5
    halving_factor: float = 0.5
    epoch_cap: int = 50

    def __post_init__(self):
        check_fields(TrainSchedule, vars(self), "TrainSchedule")
        if min(self.batch_size, self.val_every, self.epoch_cap) <= 0 or self.lr0 <= 0:
            raise ConfigError("schedule values must be positive")
        if self.max_halvings < 1:
            raise ConfigError("max_halvings must be at least 1")
        if not 0.0 < self.halving_factor < 1.0:
            raise ConfigError("halving_factor must be in (0,1)")


@dataclass(frozen=True)
class ClassWeights:
    w_toxic: float
    w_nontoxic: float

    def __post_init__(self):
        if self.w_toxic <= 0 or self.w_nontoxic <= 0:
            raise ConfigError("class weights must be positive")

    def of(self, label: int) -> float:
        return self.w_toxic if label == Label.TOXIC else self.w_nontoxic


def class_weights(labels) -> ClassWeights:
    """Inverse-frequency weights w_c = N / (2 * N_c); balanced data gives (1, 1)."""
    labels = list(labels)
    n_toxic = sum(1 for y in labels if y == Label.TOXIC)
    n_nontoxic = len(labels) - n_toxic
    if n_toxic == 0 or n_nontoxic == 0:
        raise DegenerateLabelsError("training labels must include both classes")
    n = len(labels)
    return ClassWeights(n / (2.0 * n_toxic), n / (2.0 * n_nontoxic))


def weighted_loss(logits, label, weights: ClassWeights) -> float:
    """Class-weighted cross-entropy of softmax(logits) against the label."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != (2,):
        raise ContractError("weighted_loss expects a length-2 logit vector")
    shifted = logits - logits.max()
    logp = shifted - math.log(np.exp(shifted).sum())
    return -weights.of(int(label)) * float(logp[int(label)])


def _batch_loss_grad(logits, labels, weights: ClassWeights):
    """Mean weighted cross-entropy over the batch and its logit gradient."""
    b = logits.shape[0]
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logz
    w = np.where(np.asarray(labels) == Label.TOXIC, weights.w_toxic, weights.w_nontoxic)
    rows = np.arange(b)
    loss = float(-(w * logp[rows, labels]).mean())
    dlogits = np.exp(logp)
    dlogits[rows, labels] -= 1.0
    dlogits *= (w / b)[:, None]
    return loss, dlogits


@dataclass(frozen=True)
class PreparedExample:
    """One comment ready for the encoder, with occlusion metadata and the
    identity terms detected in it."""

    aug: AugmentedExample
    label: Label
    identity_positions: tuple[int, ...] = ()
    identity_terms: tuple[str, ...] = ()

    @property
    def features(self) -> audit.CommentFeatures:
        """What the audit reads of this comment. The slot fill is the
        subjectivity score verbatim in every mode."""
        return audit.CommentFeatures(self.aug.slot_fill, self.identity_terms)


def identity_token_positions(tokens, terms, max_len: int) -> tuple[int, ...]:
    """Encoded positions (offset by the CLS slot) of the tokens that survived
    truncation and hold one of ``terms`` as a whole word (``holds_term``), so
    the occlusion regularizer hides what opened the gate."""
    positions = []
    for i, tok in enumerate(tokens):
        if i >= max_len - 2:
            break
        if holds_term(tok, terms):
            positions.append(i + 1)
    return tuple(positions)


def prepare_examples(
    comments,
    vocab: Vocab,
    subj_lexicon: SubjectivityLexicon,
    id_lexicon: IdentityLexicon,
    max_len: int,
    mode: AugmentMode,
) -> list[PreparedExample]:
    """Score, detect, encode and augment a list of comments: one feature
    pass per comment, whose results the audit reuses."""
    out = []
    for c in comments:
        tokens = word_split(c.text)
        terms = detect(c.text, id_lexicon).terms
        s = score(c.text, subj_lexicon, tokens)
        aug = augment(encode(tokens, vocab, max_len), s, bool(terms), mode)
        positions = identity_token_positions(tokens, terms, max_len) if terms else ()
        out.append(PreparedExample(aug, c.label, positions, terms))
    return out


def _occlude(ex: AugmentedExample, position: int) -> AugmentedExample:
    mask = list(ex.base.mask)
    mask[position] = 0
    return replace(ex, base=EncodedExample(ex.base.ids, tuple(mask)))


@dataclass
class HalvingController:
    """Best-so-far plateau rule: halve the lr whenever validation F1 drops
    below the best value seen, stop after max_halvings halvings."""

    lr: float
    max_halvings: int
    factor: float = 0.5
    best_f1: float = -math.inf
    halvings: int = 0

    def observe(self, f1: float) -> str:
        if f1 > self.best_f1:
            self.best_f1 = f1
            return "improved"
        if f1 < self.best_f1:
            self.lr *= self.factor
            self.halvings += 1
            return "halved"
        return "stalled"

    @property
    def exhausted(self) -> bool:
        return self.halvings >= self.max_halvings


@dataclass(frozen=True)
class HistoryEntry:
    step: int
    loss: float
    val_f1: float | None
    lr: float
    halvings: int


@dataclass
class TrainHistory:
    entries: list[HistoryEntry] = field(default_factory=list)
    stop_reason: str = "epoch_cap"

    def best_val_f1(self) -> float | None:
        scores = [e.val_f1 for e in self.entries if e.val_f1 is not None]
        return max(scores) if scores else None

    def to_csv(self, path) -> None:
        with replacing(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "loss", "val_f1", "lr", "halvings"])
            for e in self.entries:
                writer.writerow([
                    e.step,
                    repr(e.loss),
                    "" if e.val_f1 is None else repr(e.val_f1),
                    repr(e.lr),
                    e.halvings,
                ])


def _decide(logit_pair):
    shifted = logit_pair - logit_pair.max()
    probs = np.exp(shifted) / np.exp(shifted).sum()
    label = Label.TOXIC if logit_pair[Label.TOXIC] > logit_pair[Label.NONTOXIC] else Label.NONTOXIC
    return label, float(probs[Label.TOXIC])


def predict_batch(params, config, examples, batch_size: int = 64):
    """Labels and toxic probabilities, in input order.

    Examples run in stable order of their extent, so each batch holds rows of
    similar length and trimming it to its longest row leaves little padding.
    """
    order = np.argsort([ex.base.extent for ex in examples], kind="stable")
    preds: list[Label] = [Label.NONTOXIC] * len(examples)
    probs = [0.0] * len(examples)
    for start in range(0, len(order), batch_size):
        rows = order[start : start + batch_size]
        logits, _ = forward([examples[i] for i in rows], params, config)
        for i, logit_pair in zip(rows, logits):
            preds[i], probs[i] = _decide(logit_pair)
    return preds, probs


def validation_f1(params, config, examples, labels) -> float:
    preds, _ = predict_batch(params, config, examples)
    return audit.f1(audit.confusion(preds, labels))


def _soc_loss_and_grads(batch, params, config, soc_weight):
    """Occlusion regularizer over one batch: value and parameter gradients.

    Builds a single combined forward over originals and their occluded
    variants, then backpropagates the squared-difference objective.
    """
    targets = [ex for ex in batch if ex.identity_positions]
    if not targets:
        return 0.0, None
    combined: list[AugmentedExample] = []
    orig_rows: list[int] = []
    for ex in targets:
        orig_rows.append(len(combined))
        combined.append(ex.aug)
        combined.extend(_occlude(ex.aug, pos) for pos in ex.identity_positions)
    logits, cache = forward(combined, params, config, train_mode=True, dropout_rng=None)
    toxic = logits[:, Label.TOXIC]
    counts = np.array([len(ex.identity_positions) for ex in targets])
    # Each occluded row, in order, with the index of its target.
    occ_rows = np.delete(np.arange(len(combined)), orig_rows)
    target = np.repeat(np.arange(len(targets)), counts)
    diffs = toxic[orig_rows][target] - toxic[occ_rows]
    # bincount adds each target's terms in row order, as a sum of fewer than
    # 8 terms does; cumsum adds the targets' penalties in order.
    penalties = np.bincount(target, weights=diffs * diffs) / counts
    coeff = 2.0 * (soc_weight / len(batch)) / counts
    dlogits = np.zeros_like(logits)
    dlogits[orig_rows, Label.TOXIC] += coeff * np.bincount(target, weights=diffs)
    dlogits[occ_rows, Label.TOXIC] -= coeff[target] * diffs
    grads, _ = backward(cache, params, config, dlogits)
    return float(np.cumsum(penalties)[-1]) / len(batch), grads


def _flat_grads(grads, names) -> np.ndarray:
    """The gradients as one vector laid out like ``flat_params``'s."""
    return np.concatenate([grads[name] for name in names], axis=None)


def _adam_update(flat, g, m, v, step: int, lr: float) -> None:
    """One Adam step on the flat parameter vector, moments ``m`` and ``v``
    in place. Every operation is elementwise, in the order an update per
    tensor would run it, so the result is the same bits."""
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    mhat = m / (1.0 - ADAM_BETA1**step)
    vhat = v / (1.0 - ADAM_BETA2**step)
    flat -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


def train(
    train_set,
    val_set,
    config: ModelConfig,
    schedule: TrainSchedule,
    mode: AugmentMode,
    soc_weight: float = 0.0,
    seed: int = 0,
    progress=None,
):
    """Run the training loop; returns (best parameters, history)."""
    if not train_set or not val_set:
        raise ContractError("train and validation sets must be non-empty")
    if soc_weight < 0:
        raise ContractError("soc_weight must be non-negative")
    for ex in (*train_set, *val_set):
        if ex.aug.mode is not mode:
            raise ContractError(f"example mode {ex.aug.mode} does not match {mode}")
    labels = np.array([int(ex.label) for ex in train_set])
    weights = class_weights(labels)
    val_augs = [ex.aug for ex in val_set]
    val_labels = [ex.label for ex in val_set]

    # Every tensor is a view into ``flat``, so Adam updates them all at once.
    flat, params = flat_params(init(config))
    names = params.names()
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    ctrl = HalvingController(schedule.lr0, schedule.max_halvings, schedule.halving_factor)
    history = TrainHistory()
    best_params: EncoderParams | None = None
    rng = np.random.default_rng(seed)
    step = 0
    n = len(train_set)

    def finish(reason: str):
        history.stop_reason = reason
        return (best_params if best_params is not None else params), history

    for _epoch in range(schedule.epoch_cap):
        order = rng.permutation(n)
        for start in range(0, n, schedule.batch_size):
            chunk = order[start : start + schedule.batch_size]
            batch = [train_set[j] for j in chunk]
            step += 1

            logits, cache = forward(
                [ex.aug for ex in batch], params, config,
                train_mode=True, dropout_rng=rng,
            )
            loss, dlogits = _batch_loss_grad(logits, labels[chunk], weights)
            g = _flat_grads(backward(cache, params, config, dlogits)[0], names)
            if soc_weight > 0.0:
                penalty, soc_grads = _soc_loss_and_grads(batch, params, config, soc_weight)
                loss += soc_weight * penalty
                if soc_grads is not None:
                    g += _flat_grads(soc_grads, names)
            if not (np.isfinite(loss) and np.isfinite(g).all()):
                history.entries.append(HistoryEntry(step, loss, None, ctrl.lr, ctrl.halvings))
                return finish("non_finite")
            _adam_update(flat, g, m, v, step, ctrl.lr)

            val_f1 = None
            if step % schedule.val_every == 0:
                val_f1 = validation_f1(params, config, val_augs, val_labels)
                outcome = ctrl.observe(val_f1)
                if outcome == "improved":
                    best_params = params.copy()
                if progress is not None:
                    progress(
                        f"step {step} loss {loss:.4f} val_f1 {val_f1:.4f} "
                        f"lr {ctrl.lr:.2e} halvings {ctrl.halvings}"
                    )
            history.entries.append(HistoryEntry(step, loss, val_f1, ctrl.lr, ctrl.halvings))
            if ctrl.exhausted:
                return finish("max_halvings")
    return finish("epoch_cap")
