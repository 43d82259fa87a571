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
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from . import audit
from .atomic import replacing
from .augment import AugmentMode, augment
from .datasets import Label
from .encoder import N_CLASSES, Batch, ModelConfig, backward, flat_params, forward, init
from .errors import ContractError, check_fields
from .identity import IdentityLexicon, detect
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
    epoch_cap: int = 50

    def __post_init__(self):
        check_fields(TrainSchedule, vars(self), "TrainSchedule")
        if min(self.batch_size, self.val_every, self.epoch_cap) <= 0:
            raise ContractError("schedule values must be positive")
        if not 0.0 < self.lr0 < math.inf:
            raise ContractError(f"lr0 must be positive and finite, not {self.lr0}")
        if self.max_halvings < 1:
            raise ContractError("max_halvings must be at least 1")


@dataclass(frozen=True)
class ClassWeights:
    w_toxic: float
    w_nontoxic: float

    def __post_init__(self):
        if self.w_toxic <= 0 or self.w_nontoxic <= 0:
            raise ContractError("class weights must be positive")


def class_weights(labels) -> ClassWeights:
    """Inverse-frequency weights w_c = N / (2 * N_c); balanced data gives (1, 1)."""
    labels = list(labels)
    n_toxic = sum(1 for y in labels if y == Label.TOXIC)
    n_nontoxic = len(labels) - n_toxic
    if n_toxic == 0 or n_nontoxic == 0:
        raise ContractError("training labels must include both classes")
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
class PreparedSet:
    """Comments ready for the encoder, as columns with one row per comment.

    ``data`` is the encoder input (``Batch``): the ids trimmed to the set's
    longest extent, the slot fill (the subjectivity score verbatim in every
    mode), the key masks with the slot gate last, and the extents. ``labels``
    holds the labels as ints and ``terms`` the identity terms detected in each
    comment, which the audit reads. ``offsets`` and ``positions`` (CSR: row
    ``i``'s are ``positions[offsets[i]:offsets[i + 1]]``) are the encoded
    positions of that ``detect`` call's ``holders`` that survive truncation.
    ``max_len`` and ``vocab_size`` are what the ids were encoded for.
    """

    data: Batch
    labels: np.ndarray
    mode: AugmentMode
    terms: list[tuple[str, ...]]
    offsets: np.ndarray
    positions: np.ndarray
    max_len: int
    vocab_size: int

    def __post_init__(self):
        """Every row's contract, checked once for the whole set."""
        data, n = self.data, len(self.labels)
        if not n:
            raise ContractError("an example set must be non-empty")
        width = data.ids.shape[1]
        if (data.ids.shape[0], len(data.fill), len(data.extent), len(self.terms),
                len(self.offsets)) != (n, n, n, n, n + 1) or data.kmask.shape != (n, width + 1):
            raise ContractError("the columns of an example set must have one row per comment")
        if width > self.max_len:
            raise ContractError(f"rows of {width} ids exceed max_len {self.max_len}")
        in_range = (data.fill >= 0.0) & (data.fill <= 1.0)  # False for NaN
        if not in_range.all():
            raise ContractError(f"slot_fill out of [0,1]: {data.fill[~in_range][0]}")
        gate = data.kmask[:, -1]
        if self.mode is AugmentMode.BASELINE and gate.any():
            raise ContractError("baseline mode requires every slot masked")
        if self.mode is AugmentMode.SO and not gate.all():
            raise ContractError("slot-always mode requires every slot attended")
        if data.ids.min() < 0 or data.ids.max() >= self.vocab_size:
            raise ContractError(f"token id outside a vocabulary of {self.vocab_size}")

    def __len__(self) -> int:
        return len(self.labels)


def prepare_examples(
    comments,
    vocab: Vocab,
    subj_lexicon: SubjectivityLexicon,
    id_lexicon: IdentityLexicon,
    max_len: int,
    mode: AugmentMode,
) -> PreparedSet:
    """Score, detect, encode and gate a list of comments: one feature pass
    per comment, written straight into the set's columns, whose slot fills
    and terms eval writes for the audit."""
    flat_ids = array("i")  # every row's ids in order, 4 bytes each, read in place below
    extent, fill, gate, labels, terms, counts, positions = ([] for _ in range(7))
    for c in comments:
        tokens = word_split(c.text)
        match = detect(c.text, id_lexicon, tokens)
        ids = encode(tokens, vocab, max_len)
        flat_ids.extend(ids)
        extent.append(len(ids))
        fill.append(score(c.text, subj_lexicon, tokens).value)
        gate.append(augment(match.present, mode))
        labels.append(c.label)
        terms.append(match.terms)
        occluded = [i + 1 for i in match.holders if i < max_len - 2]
        positions += occluded
        counts.append(len(occluded))
    extent = np.array(extent, dtype=np.int32)
    width = int(extent.max(initial=1))
    # Row i attends its first extent[i] positions, the ids flat_ids holds in
    # order; the mask is written into kmask's token columns, not beside them.
    kmask = np.empty((len(extent), width + 1), dtype=bool)
    real = np.less(np.arange(width), extent[:, None], out=kmask[:, :width])
    kmask[:, width] = gate
    ids = np.zeros(real.shape, dtype=np.int32)
    ids[real] = np.frombuffer(flat_ids, dtype=np.intc)
    offsets = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    return PreparedSet(
        Batch(ids, np.array(fill, dtype=np.float64), kmask, extent),
        np.array(labels, dtype=np.int64), mode, terms, offsets,
        np.array(positions, dtype=np.intp), max_len, len(vocab),
    )


@dataclass
class HalvingController:
    """Best-so-far plateau rule: halve the lr whenever validation F1 drops
    below the best value seen, stop after max_halvings halvings."""

    lr: float
    max_halvings: int
    best_f1: float = -math.inf
    halvings: int = 0

    def observe(self, f1: float) -> str:
        if f1 > self.best_f1:
            self.best_f1 = f1
            return "improved"
        if f1 < self.best_f1:
            self.lr *= 0.5
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

    Rows are cut into batches in stable order of their extent, so each batch
    holds rows of similar length and trimming it to its longest row leaves
    little padding. The batches run through one workspace in descending
    order of ``rows * (width + 1)``, the slot every workspace buffer but
    the scores block is sized by, so the first call sizes them and no later
    call grows them. Each batch holds the rows it would in ascending order,
    so its logits are the same bits.
    """
    order = np.argsort(data.extent, kind="stable")
    batches = [order[start : start + batch_size] for start in range(0, len(order), batch_size)]
    batches.sort(key=lambda rows: len(rows) * (max(1, int(data.extent[rows].max())) + 1),
                 reverse=True)
    logits = np.empty((len(data), N_CLASSES))
    workspace: dict = {}
    for rows in batches:
        logits[rows] = forward(data.take(rows), params, config, workspace=workspace)[0]
    return _decisions(logits)


def validation_f1(params, config, data: Batch, labels) -> float:
    preds, _ = predict_batch(params, config, data)
    return audit.f1(audit.confusion(preds, labels))


def _soc_variants(data: Batch, rows, occlusions):
    """Key-mask variants of rows ``rows`` of the plain batch ``data``, by
    ``occlusions``, a CSR list ``(offsets, positions)`` of key columns per row
    of ``data``: each an attended token column of its row, or -1, the slot.
    A row that lists columns runs as itself, then once per column, in CSR
    order, with that key masked off; a row that lists none is dropped. SOC
    lists a ``PreparedSet``'s identity positions.
    Returns ``(batch, orig_rows, occ_rows)``: the ``Batch`` of variants and
    where each kept row's unchanged variant and the others sit, in order.
    None when no row lists a column."""
    offsets, positions = occlusions
    counts = offsets[rows + 1] - offsets[rows]
    targets, counts = rows[counts > 0], counts[counts > 0]
    if not len(targets):
        return None
    batch = data.take(targets)
    kmask = np.repeat(batch.kmask, counts + 1, axis=0)
    before = np.cumsum(counts) - counts  # listed columns of the earlier targets
    orig_rows = before + np.arange(len(targets))
    occ_rows = np.delete(np.arange(len(kmask)), orig_rows)
    # The targets' columns in CSR order, one per occluded variant.
    occluded = positions[np.repeat(offsets[targets] - before, counts) + np.arange(len(occ_rows))]
    kmask[occ_rows, occluded] = False
    return replace(batch, kmask=kmask, variants=counts + 1), orig_rows, occ_rows


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
    counts = batch.variants - 1  # each target's occluded variants
    target = np.repeat(np.arange(len(counts)), counts)  # the target of each of them
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


def _adam_update(flat, g, m, v, work, step: int, lr: float) -> None:
    """One Adam step on the flat parameter vector, moments ``m`` and ``v``
    in place. Every operation is elementwise, in the order an update per
    tensor would run it, so the result is the same bits. Intermediates are
    written into ``work`` and, once the moments are updated, into ``g``:
    both are overwritten."""
    m *= ADAM_BETA1
    m += np.multiply(1.0 - ADAM_BETA1, g, out=work)
    v *= ADAM_BETA2
    np.multiply(1.0 - ADAM_BETA2, g, out=work)
    v += np.multiply(work, g, out=work)
    # flat -= lr * mhat / (sqrt(vhat) + eps), with mhat in g and vhat in work.
    np.divide(v, 1.0 - ADAM_BETA2**step, out=work)
    np.sqrt(work, out=work)
    work += ADAM_EPS
    np.divide(m, 1.0 - ADAM_BETA1**step, out=g)
    g *= lr
    g /= work
    flat -= g


def train(
    train_set: PreparedSet,
    val_set: PreparedSet,
    config: ModelConfig,
    schedule: TrainSchedule,
    mode: AugmentMode,
    soc_weight: float = 0.0,
    seed: int = 0,
    progress=None,
):
    """Run the training loop; returns (best parameters, history)."""
    if not 0.0 <= soc_weight < math.inf:
        raise ContractError(f"soc_weight must be finite and non-negative, not {soc_weight}")
    for prepared in (train_set, val_set):
        if prepared.mode is not mode:
            raise ContractError(f"example mode {prepared.mode} does not match {mode}")
        if prepared.max_len != config.max_len or prepared.vocab_size > config.vocab_size:
            raise ContractError(
                f"examples encoded for max_len {prepared.max_len} and {prepared.vocab_size} ids "
                f"do not fit max_len {config.max_len} and {config.vocab_size} ids")
    labels = train_set.labels
    weights = class_weights(labels)
    train_data = train_set.data
    occlusions = (train_set.offsets, train_set.positions)

    # Every tensor is a view into ``flat``, so Adam updates them all at once.
    flat, params = flat_params(init(config))
    names = tuple(params)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    work = np.empty_like(flat)
    ctrl = HalvingController(schedule.lr0, schedule.max_halvings)
    history = TrainHistory()
    best_params: dict[str, np.ndarray] | None = None
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
            _adam_update(flat, g, m, v, work, step, ctrl.lr)

            val_f1 = None
            if step % schedule.val_every == 0:
                val_f1 = validation_f1(params, config, val_set.data, val_set.labels)
                outcome = ctrl.observe(val_f1)
                if outcome == "improved":
                    best_params = {k: t.copy() for k, t in params.items()}
                if progress is not None:
                    progress(
                        f"step {step} loss {loss:.4f} val_f1 {val_f1:.4f} "
                        f"lr {ctrl.lr:.2e} halvings {ctrl.halvings}"
                    )
            history.entries.append(HistoryEntry(step, loss, val_f1, ctrl.lr, ctrl.halvings))
            if ctrl.exhausted:
                return finish("max_halvings")
    return finish("epoch_cap")
