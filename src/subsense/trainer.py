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
from .encoder import (Batch, EncoderParams, ModelConfig, assemble, backward, flat_params,
                      forward, init)
from .errors import ConfigError, ContractError, DegenerateLabelsError, check_fields
from .identity import IdentityLexicon, detect, holds_term
from .subjectivity import SubjectivityLexicon, score
from .textprep import Vocab, encode, word_split

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


def class_weights(labels) -> ClassWeights:
    """Inverse-frequency weights w_c = N / (2 * N_c); balanced data gives (1, 1)."""
    labels = list(labels)
    n_toxic = sum(1 for y in labels if y == Label.TOXIC)
    n_nontoxic = len(labels) - n_toxic
    if n_toxic == 0 or n_nontoxic == 0:
        raise DegenerateLabelsError("training labels must include both classes")
    n = len(labels)
    return ClassWeights(n / (2.0 * n_toxic), n / (2.0 * n_nontoxic))


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


def _identity_csr(examples) -> tuple[np.ndarray, np.ndarray]:
    """The identity positions of ``examples`` as CSR arrays ``(offsets,
    positions)``: those of row ``i`` are ``positions[offsets[i]:offsets[i + 1]]``."""
    offsets = np.zeros(len(examples) + 1, dtype=np.intp)
    np.cumsum([len(ex.identity_positions) for ex in examples], out=offsets[1:])
    positions = np.array([p for ex in examples for p in ex.identity_positions], dtype=np.intp)
    return offsets, positions


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


def _decisions(logits):
    """Labels and toxic probabilities of rows of logit pairs; a tie is
    non-toxic."""
    exp = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = exp[:, Label.TOXIC] / exp.sum(axis=1)
    toxic = logits[:, Label.TOXIC] > logits[:, Label.NONTOXIC]
    return [Label.TOXIC if t else Label.NONTOXIC for t in toxic.tolist()], probs.tolist()


def predict_batch(params, config, data: Batch, batch_size: int = 64):
    """Labels and toxic probabilities of the rows of ``data``, in its order.

    Rows run in stable order of their extent, so each batch holds rows of
    similar length and trimming it to its longest row leaves little padding.
    """
    order = np.argsort(data.extent, kind="stable")
    logits = np.empty((len(data), config.n_classes))
    for start in range(0, len(order), batch_size):
        rows = order[start : start + batch_size]
        logits[rows] = forward(data.take(rows), params, config)[0]
    return _decisions(logits)


def validation_f1(params, config, data: Batch, labels) -> float:
    preds, _ = predict_batch(params, config, data)
    return audit.f1(audit.confusion(preds, labels))


def _soc_variants(data: Batch, rows, occlusions):
    """The occlusion pass's batch for rows ``rows`` of ``data`` and where its
    variants sit. The targets are the rows with identity positions
    (``occlusions``, from ``_identity_csr``); each runs as one unchanged
    variant followed by one per identity position, with that key masked off.
    Returns ``(batch, orig_rows, occ_rows)``: each target's unchanged variant
    and the occluded variants, in order, whose targets ``batch.src`` gives.
    None when no row is a target."""
    offsets, positions = occlusions
    counts = offsets[rows + 1] - offsets[rows]
    targets, counts = rows[counts > 0], counts[counts > 0]
    if not len(targets):
        return None
    batch = data.take(targets)
    src = np.repeat(np.arange(len(targets)), counts + 1)
    kmask = batch.kmask[src]
    before = np.cumsum(counts) - counts  # identity positions of the earlier targets
    orig_rows = before + np.arange(len(targets))
    occ_rows = np.delete(np.arange(len(src)), orig_rows)
    # The targets' positions in CSR order, one per occluded variant.
    occluded = positions[np.repeat(offsets[targets] - before, counts) + np.arange(len(occ_rows))]
    kmask[occ_rows, occluded] = False
    return replace(batch, kmask=kmask, src=src), orig_rows, occ_rows


def _soc_loss_and_grads(data: Batch, rows, occlusions, params, config, soc_weight):
    """Occlusion regularizer over the training batch ``rows`` of ``data``:
    value and parameter gradients.

    Runs one forward over the targets and their occluded variants
    (``_soc_variants``), then backpropagates the squared-difference objective.
    """
    variants = _soc_variants(data, rows, occlusions)
    if variants is None:
        return 0.0, None
    batch, orig_rows, occ_rows = variants
    logits, cache = forward(batch, params, config, train_mode=True, dropout_rng=None)
    toxic = logits[:, Label.TOXIC]
    target = batch.src[occ_rows]  # the target of each occluded variant
    counts = np.bincount(target)
    diffs = toxic[orig_rows][target] - toxic[occ_rows]
    # bincount adds each target's terms in row order, as a sum of fewer than
    # 8 terms does; cumsum adds the targets' penalties in order.
    penalties = np.bincount(target, weights=diffs * diffs) / counts
    coeff = 2.0 * (soc_weight / len(rows)) / counts
    dlogits = np.zeros_like(logits)
    dlogits[orig_rows, Label.TOXIC] += coeff * np.bincount(target, weights=diffs)
    dlogits[occ_rows, Label.TOXIC] -= coeff[target] * diffs
    grads, _ = backward(cache, params, config, dlogits)
    return float(np.cumsum(penalties)[-1]) / len(rows), grads


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
    train_data = assemble([ex.aug for ex in train_set], config)
    occlusions = _identity_csr(train_set)
    val_data = assemble([ex.aug for ex in val_set], config)
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
            step += 1

            logits, cache = forward(
                train_data.take(chunk), params, config, train_mode=True, dropout_rng=rng,
            )
            loss, dlogits = _batch_loss_grad(logits, labels[chunk], weights)
            g = _flat_grads(backward(cache, params, config, dlogits)[0], names)
            if soc_weight > 0.0:
                penalty, soc_grads = _soc_loss_and_grads(
                    train_data, chunk, occlusions, params, config, soc_weight)
                loss += soc_weight * penalty
                if soc_grads is not None:
                    g += _flat_grads(soc_grads, names)
            if not (np.isfinite(loss) and np.isfinite(g).all()):
                history.entries.append(HistoryEntry(step, loss, None, ctrl.lr, ctrl.halvings))
                return finish("non_finite")
            _adam_update(flat, g, m, v, step, ctrl.lr)

            val_f1 = None
            if step % schedule.val_every == 0:
                val_f1 = validation_f1(params, config, val_data, val_labels)
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
