"""Oracles for the batched and single-pass paths.

``predict`` decides one example with ``decide``, the per-row decision
``trainer.predict_batch`` made before it decided whole batches at once.
``predict_batch`` is ``trainer.predict_batch``'s loop as it ran before its
batches went largest first through one workspace: given batches of rows
(``trainer._batches`` decides them), each through a ``forward`` of fresh
arrays.
``occlusion_penalty`` runs one forward per occluded identity token;
``trainer._soc_loss_and_grads`` is checked against it, bit for bit against
``soc_loss_and_grads_per_target``, its per-target loop over the same variant
batch, and to 1e-12 against ``soc_loss_and_grads_combined``, the pass that
ran every occluded copy as a full row of its own. ``train_per_tensor`` is
the training loop with one Adam update per tensor, which ``trainer.train``'s
single update over the flat parameter vector must equal bit for bit.
``weighted_loss`` is the per-example loss the batched loss is checked
against. The next part is the per-row pipeline from before
``trainer.prepare_examples`` wrote a columnar ``PreparedSet``; tests that
build batches from single examples go through it; its occlusion positions
come from frozen ``term_holders`` and ``identity_token_positions``, the
second scan of each identity comment's tokens from before ``detect``
returned the tokens that hold its terms. The last part holds
frozen copies of identity detection, the feature pass and the audit from
before the audit reused the trainer's per-comment features, with the result
types they returned. ``read_canonical`` is the canonical CSV reader as it was
before it streamed its rows: a list of ``csv.DictReader`` dicts, then the
per-row rule of ``convert``, with the row number on a bad label and one
line for a row ``csv`` cannot read. ``feature_audit_report`` is the audit of
given features as it was before each outcome became a table lookup.
``rms_backward``, ``gelu_grad``, ``dropout_mask`` and ``variant_sums`` are
the training step's helpers as they were before the backward pass read
GELU's tanh from the forward cache: the RMS-norm backward through whole-array
temporaries, the derivative that recomputed the tanh, the mask built from a
boolean array and the variant sums as one bincount.
"""

import csv
import dataclasses
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from subsense import audit as _audit
from subsense import encoder as _enc
from subsense import trainer as _tr
from subsense.augment import AugmentMode
from subsense.datasets import Comment, Label
from subsense.errors import ContractError
from subsense.identity import detect as _detect
from subsense.subjectivity import SubjectivityScore, score as _score
from subsense.textprep import CLS, PAD, SEP, UNK, word_split as _word_split

# ---------------------------------------------------------------------------
# The per-row pipeline: one frozen, self-checking example per comment,
# copied into an ``encoder.Batch`` by ``assemble`` and into CSR identity
# positions by ``identity_csr``. ``prepare_examples`` must equal it bit for
# bit; ``rows`` reads a ``PreparedSet`` back as its examples.


@dataclass(frozen=True)
class EncodedExample:
    """Fixed-length id sequence with its base attention mask.

    ``n_real`` is derived as the number of 1 bits in the mask; ``encode``
    guarantees mask bit 1 exactly on non-PAD positions, while mask surgery
    (occlusion) may deliberately zero a real position afterwards.
    ``extent`` is one past the last 1 bit: the token layout
    ``[CLS] t1 .. tk [SEP]`` of an encoded example, whatever interior bits
    were zeroed later. No position past it is attended.
    """

    ids: tuple[int, ...]
    mask: tuple[int, ...]
    n_real: int = field(init=False)
    extent: int = field(init=False)

    def __post_init__(self):
        if len(self.ids) != len(self.mask):
            raise ContractError("ids and mask must have equal length")
        if any(b not in (0, 1) for b in self.mask):
            raise ContractError("mask bits must be 0 or 1")
        object.__setattr__(self, "n_real", sum(self.mask))
        extent = len(self.mask) - self.mask[::-1].index(1) if self.n_real else 0
        object.__setattr__(self, "extent", extent)

    def __len__(self) -> int:
        return len(self.ids)


def encode(tokens, vocab, max_len: int) -> EncodedExample:
    """Encode tokens as ``[CLS] t1..tk [SEP] [PAD]...`` of length ``max_len``."""
    if max_len < 3:
        raise ContractError("max_len must be at least 3")
    kept = list(tokens)[: max_len - 2]
    lookup = vocab.token_to_id.get
    ids = [CLS] + [lookup(t, UNK) for t in kept] + [SEP]
    mask = (1,) * len(ids) + (0,) * (max_len - len(ids))
    ids.extend([PAD] * (max_len - len(ids)))
    return EncodedExample(tuple(ids), mask)


@dataclass(frozen=True)
class AugmentedExample:
    base: EncodedExample
    slot_fill: float
    slot_mask: int
    mode: AugmentMode

    def __post_init__(self):
        if not 0.0 <= self.slot_fill <= 1.0:
            raise ContractError(f"slot_fill out of [0,1]: {self.slot_fill}")
        if self.slot_mask not in (0, 1):
            raise ContractError("slot_mask must be 0 or 1")
        if self.mode is AugmentMode.BASELINE and self.slot_mask != 0:
            raise ContractError("baseline mode requires slot_mask 0")
        if self.mode is AugmentMode.SO and self.slot_mask != 1:
            raise ContractError("slot-always mode requires slot_mask 1")


def augment(encoded: EncodedExample, score, present: bool, mode) -> AugmentedExample:
    """Attach the subjectivity slot to an encoded example; the fill is the
    score verbatim."""
    fill = score.value if isinstance(score, SubjectivityScore) else float(score)
    if mode is AugmentMode.BASELINE:
        slot_mask = 0
    elif mode is AugmentMode.SO:
        slot_mask = 1
    else:
        slot_mask = 1 if present else 0
    return AugmentedExample(encoded, fill, slot_mask, mode)


@dataclass(frozen=True)
class PreparedExample:
    """One comment ready for the encoder, with occlusion metadata and the
    identity terms detected in it."""

    aug: AugmentedExample
    label: Label
    identity_positions: tuple[int, ...] = ()
    identity_terms: tuple[str, ...] = ()

    @property
    def features(self) -> _audit.CommentFeatures:
        return _audit.CommentFeatures(self.aug.slot_fill, self.identity_terms)


def prepare_rows(comments, vocab, subj_lexicon, id_lexicon, max_len, mode):
    """``trainer.prepare_examples`` as a list of ``PreparedExample``."""
    out = []
    for c in comments:
        tokens = _word_split(c.text)
        terms = _detect(c.text, id_lexicon).terms
        s = _score(c.text, subj_lexicon, tokens)
        aug = augment(encode(tokens, vocab, max_len), s, bool(terms), mode)
        positions = identity_token_positions(tokens, terms, max_len) if terms else ()
        out.append(PreparedExample(aug, c.label, positions, terms))
    return out


def _first_whole_word(text_lower: str, term: str) -> int:
    """Start of the first whole-word occurrence of ``term`` in ``text_lower``, or -1."""
    i = text_lower.find(term)
    while i >= 0:
        j = i + len(term)
        if ((i == 0 or not text_lower[i - 1].isalnum())
                and (j == len(text_lower) or not text_lower[j].isalnum())):
            return i
        i = text_lower.find(term, i + 1)
    return -1


def _holdings(tokens, terms, term_set):
    """(token index, start, term) for each of ``terms`` that a lowercase token
    holds as a whole word, token by token; ``term_set`` holds the same terms.
    A token of letters and digits alone holds a term only by being one (a set
    lookup), and only a token with inner punctuation ("muslim's") is searched."""
    for i, tok in enumerate(tokens):
        if tok.isalnum():
            if tok in term_set:
                yield i, 0, tok
        elif len(tok) > 1:  # one character of punctuation holds no term
            for term in terms:
                if term in tok:
                    start = _first_whole_word(tok, term)
                    if start >= 0:
                        yield i, start, term


def term_holders(tokens, terms: tuple[str, ...]) -> list[int]:
    """Indices of the lowercase tokens, such as ``word_split``'s, that hold
    one of ``terms`` as a whole word by ``detect``'s rule: "muslim's" and
    "islam,jews" do, "muslimness" does not."""
    return list(dict.fromkeys(i for i, _, _ in _holdings(tokens, terms, terms)))


def identity_token_positions(tokens, terms, max_len: int) -> tuple[int, ...]:
    """Encoded positions (offset by the CLS slot) of the tokens that survived
    truncation and hold one of ``terms`` as a whole word (``term_holders``),
    so the occlusion regularizer hides what opened the gate."""
    return tuple(i + 1 for i in term_holders(tokens[: max_len - 2], terms))


def assemble(examples, config) -> _enc.Batch:
    """The plain batch of a list of augmented examples."""
    if not examples:
        raise ContractError("an encoder batch must be non-empty")
    for ex in examples:
        if len(ex.base.ids) != config.max_len:
            raise ContractError(
                f"example length {len(ex.base.ids)} does not match max_len {config.max_len}"
            )
    extent = np.array([ex.base.extent for ex in examples], dtype=np.int32)
    width = max(1, int(extent.max()))
    ids = np.array([ex.base.ids[:width] for ex in examples], dtype=np.int32)
    if ids.max() >= config.vocab_size or ids.min() < 0:
        raise ContractError("token id outside the configured vocabulary")
    kmask = np.empty((len(examples), width + 1), dtype=bool)
    kmask[:, :width] = [ex.base.mask[:width] for ex in examples]
    kmask[:, width] = [ex.slot_mask for ex in examples]
    fill = np.array([ex.slot_fill for ex in examples], dtype=np.float64)
    return _enc.Batch(ids, fill, kmask, extent)


def identity_csr(examples) -> tuple[np.ndarray, np.ndarray]:
    """The identity positions of prepared examples as CSR ``(offsets, positions)``."""
    offsets = np.zeros(len(examples) + 1, dtype=np.intp)
    np.cumsum([len(ex.identity_positions) for ex in examples], out=offsets[1:])
    positions = np.array([p for ex in examples for p in ex.identity_positions], dtype=np.intp)
    return offsets, positions


def rows(prepared) -> list[PreparedExample]:
    """The examples of a ``PreparedSet``, each padded back to ``max_len``."""
    data, pad = prepared.data, prepared.max_len - prepared.data.ids.shape[1]
    out = []
    for i, (ids, kmask, fill, label, terms) in enumerate(zip(
            data.ids.tolist(), data.kmask.tolist(), data.fill.tolist(),
            prepared.labels.tolist(), prepared.terms)):
        base = EncodedExample(tuple(ids) + (PAD,) * pad, tuple(map(int, kmask[:-1])) + (0,) * pad)
        positions = prepared.positions[prepared.offsets[i]:prepared.offsets[i + 1]]
        out.append(PreparedExample(AugmentedExample(base, fill, int(kmask[-1]), prepared.mode),
                                   Label(label), tuple(positions.tolist()), terms))
    return out


def forward(examples, params, config, **kwargs):
    """``encoder.forward`` over a list of augmented examples."""
    return _enc.forward(assemble(examples, config), params, config, **kwargs)


def decide(logit_pair):
    """(label, toxic probability) of one logit pair; ties resolve to non-toxic."""
    shifted = logit_pair - logit_pair.max()
    probs = np.exp(shifted) / np.exp(shifted).sum()
    label = Label.TOXIC if logit_pair[Label.TOXIC] > logit_pair[Label.NONTOXIC] else Label.NONTOXIC
    return label, float(probs[Label.TOXIC])


def predict(params, config, example: AugmentedExample):
    """(label, toxic probability); ties resolve to non-toxic."""
    logits, _ = forward([example], params, config)
    return decide(logits[0])


def predict_batch(params, config, data, batches):
    """Labels and toxic probabilities of the rows of ``data``, in its order:
    ``batches``, arrays of row indices that partition its rows, run in
    ascending order of their widest row, each without a workspace."""
    logits = np.empty((len(data), _enc.N_CLASSES))
    for rows in sorted(batches, key=lambda rows: int(data.extent[rows].max())):
        logits[rows] = _enc.forward(data.take(rows), params, config)[0]
    return _tr._decisions(logits)


def weighted_loss(logits, label, weights) -> float:
    """Class-weighted cross-entropy of softmax(logits) against the label."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.shape != (2,):
        raise ContractError("weighted_loss expects a length-2 logit vector")
    shifted = logits - logits.max()
    logp = shifted - math.log(np.exp(shifted).sum())
    weight = weights.w_toxic if int(label) == Label.TOXIC else weights.w_nontoxic
    return -weight * float(logp[int(label)])


def _occlude(ex: AugmentedExample, position: int) -> AugmentedExample:
    """A full copy of ``ex`` with the key at ``position`` masked off."""
    mask = list(ex.base.mask)
    mask[position] = 0
    return dataclasses.replace(ex, base=EncodedExample(ex.base.ids, tuple(mask)))


def soc_args(batch, config):
    """``trainer._soc_loss_and_grads``'s data, rows and occlusions for a
    list of prepared examples that is one training batch."""
    data = assemble([ex.aug for ex in batch], config)
    return data, np.arange(len(batch)), identity_csr(batch)


def occlusion_penalty(example: PreparedExample, params, config) -> float:
    """Mean squared toxic-logit shift when each identity token is hidden.

    Defined as 0 for comments without identity tokens. Deterministic: no
    dropout is applied in either pass.
    """
    positions = example.identity_positions
    if not positions:
        return 0.0
    logits, _ = forward([example.aug], params, config)
    base_toxic = logits[0, Label.TOXIC]
    total = 0.0
    for pos in positions:
        occ_logits, _ = forward([_occlude(example.aug, pos)], params, config)
        total += float((base_toxic - occ_logits[0, Label.TOXIC]) ** 2)
    return total / len(positions)


def soc_loss_and_grads_combined(batch, params, config, soc_weight):
    """``trainer._soc_loss_and_grads`` as it was before occluded variants
    shared their comment's rows: every occluded copy is a full example
    (``_occlude``), run as a row of its own in one combined forward."""
    targets = [ex for ex in batch if ex.identity_positions]
    if not targets:
        return 0.0, None
    combined = []
    orig_rows = []
    for ex in targets:
        orig_rows.append(len(combined))
        combined.append(ex.aug)
        combined.extend(_occlude(ex.aug, pos) for pos in ex.identity_positions)
    logits, cache = forward(combined, params, config, train_mode=True, dropout_rng=None)
    toxic = logits[:, Label.TOXIC]
    counts = np.array([len(ex.identity_positions) for ex in targets])
    occ_rows = np.delete(np.arange(len(combined)), orig_rows)
    target = np.repeat(np.arange(len(targets)), counts)
    diffs = toxic[orig_rows][target] - toxic[occ_rows]
    penalties = np.bincount(target, weights=diffs * diffs) / counts
    coeff = 2.0 * (soc_weight / len(batch)) / counts
    dlogits = np.zeros_like(logits)
    dlogits[orig_rows, Label.TOXIC] += coeff * np.bincount(target, weights=diffs)
    dlogits[occ_rows, Label.TOXIC] -= coeff[target] * diffs
    grads, _ = _enc.backward(cache, params, config, dlogits)
    return float(np.cumsum(penalties)[-1]) / len(batch), grads


def soc_loss_and_grads_per_target(data, rows, occlusions, params, config, soc_weight):
    """``trainer._soc_loss_and_grads`` as it was before its bookkeeping was
    vectorised: over the same variant batch (``trainer._soc_variants``), one
    penalty and one set of logit gradients per target comment."""
    variants = _tr._soc_variants(data, rows, occlusions)
    if variants is None:
        return 0.0, None
    batch, orig_rows, _ = variants
    # Each target's unchanged variant runs just before its occluded ones.
    ends = np.append(orig_rows[1:], len(batch.kmask)).tolist()
    logits, cache = _enc.forward(batch, params, config, train_mode=True, dropout_rng=None)
    toxic = logits[:, Label.TOXIC]
    dlogits = np.zeros_like(logits)
    penalty_sum = 0.0
    scale = soc_weight / len(rows)
    for orig_row, end in zip(orig_rows.tolist(), ends):
        first, count = orig_row + 1, end - orig_row - 1
        diffs = toxic[orig_row] - toxic[first:end]
        penalty_sum += float((diffs**2).mean())
        coeff = 2.0 * scale / count
        dlogits[orig_row, Label.TOXIC] += coeff * diffs.sum()
        dlogits[first:end, Label.TOXIC] -= coeff * diffs
    grads, _ = _enc.backward(cache, params, config, dlogits)
    return penalty_sum / len(rows), grads


def train_per_tensor(train_set, val_set, config, schedule, mode, soc_weight=0.0, seed=0):
    """``trainer.train`` as it was before the flat Adam update: parameters
    are separate tensors, the occlusion gradients are added tensor by tensor
    and Adam runs once per tensor. No non-finite check."""
    labels = train_set.labels
    weights = _tr.class_weights(labels)
    train_data = train_set.data
    occlusions = (train_set.offsets, train_set.positions)
    params = _enc.init(config)
    moments = {name: (np.zeros_like(t), np.zeros_like(t)) for name, t in params.items()}
    ctrl = _tr.HalvingController(schedule.lr0, schedule.max_halvings)
    history = _tr.TrainHistory()
    best_params = None
    rng = np.random.default_rng(seed)
    step = 0
    n = len(train_set)
    for _epoch in range(schedule.epoch_cap):
        order = rng.permutation(n)
        for start in range(0, n, schedule.batch_size):
            chunk = order[start : start + schedule.batch_size]
            step += 1
            logits, cache = _enc.forward(
                train_data.take(chunk), params, config, train_mode=True, dropout_rng=rng,
            )
            loss, dlogits = _tr._batch_loss_grad(logits, labels[chunk], weights)
            grads, _ = _enc.backward(cache, params, config, dlogits)
            if soc_weight > 0.0:
                penalty, soc_grads = _tr._soc_loss_and_grads(
                    train_data, chunk, occlusions, params, config, soc_weight)
                loss += soc_weight * penalty
                if soc_grads is not None:
                    for name in grads:
                        grads[name] += soc_grads[name]
            for name, tensor in params.items():
                m, v = moments[name]
                g = grads[name]
                m *= _tr.ADAM_BETA1
                m += (1.0 - _tr.ADAM_BETA1) * g
                v *= _tr.ADAM_BETA2
                v += (1.0 - _tr.ADAM_BETA2) * g * g
                mhat = m / (1.0 - _tr.ADAM_BETA1**step)
                vhat = v / (1.0 - _tr.ADAM_BETA2**step)
                tensor -= ctrl.lr * mhat / (np.sqrt(vhat) + _tr.ADAM_EPS)
            val_f1 = None
            if step % schedule.val_every == 0:
                val_f1 = _tr.validation_f1(params, config, val_set.data, val_set.labels)
                if ctrl.observe(val_f1) == "improved":
                    best_params = {k: t.copy() for k, t in params.items()}
            history.entries.append(_tr.HistoryEntry(step, loss, val_f1, ctrl.lr, ctrl.halvings))
            if ctrl.exhausted:
                history.stop_reason = "max_halvings"
                return (best_params if best_params is not None else params), history
    history.stop_reason = "epoch_cap"
    return (best_params if best_params is not None else params), history


# ---------------------------------------------------------------------------
# Frozen copies of the feature pass and the audit as they were before the
# audit reused the trainer's per-comment features: every scoring call splits
# its own text and recomputes each form's sense means, and the audit scores
# and detects each comment again. ``detect`` scans the text for every term,
# as it did before it skipped the terms the text does not contain. The new
# code must equal them exactly. ``IdentityMatch`` and ``Assessment`` are the
# result types those copies returned: every whole-word span of every term,
# and one record per lexicon hit.


@dataclass(frozen=True)
class IdentityMatch:
    """Detection result; present is true exactly when matches is non-empty."""

    present: bool
    matches: tuple[tuple[str, tuple[int, int]], ...]

    def __post_init__(self):
        if self.present != bool(self.matches):
            raise ContractError("present must mirror non-empty matches")

    @property
    def terms(self) -> tuple[str, ...]:
        seen: list[str] = []
        for term, _ in self.matches:
            if term not in seen:
                seen.append(term)
        return tuple(seen)


@dataclass(frozen=True)
class Assessment:
    """One lexicon hit: token span [start, end) and its contribution."""

    start: int
    end: int
    words: tuple[str, ...]
    subjectivity: float


def _whole_word_spans(text_lower, term):
    spans = []
    start = 0
    while True:
        i = text_lower.find(term, start)
        if i < 0:
            break
        j = i + len(term)
        left_ok = i == 0 or not text_lower[i - 1].isalnum()
        right_ok = j == len(text_lower) or not text_lower[j].isalnum()
        if left_ok and right_ok:
            spans.append((i, j))
        start = i + 1
    return spans


def detect(text, lexicon) -> IdentityMatch:
    lowered = text.lower()
    found = []
    for term in lexicon.terms:
        for span in _whole_word_spans(lowered, term):
            found.append((term, span))
    found.sort(key=lambda m: (m[1][0], m[1][1], m[0]))
    return IdentityMatch(bool(found), tuple(found))


def word_split(text: str) -> list[str]:
    tokens: list[str] = []
    for chunk in text.lower().split():
        lead: list[str] = []
        while chunk and not chunk[0].isalnum():
            lead.append(chunk[0])
            chunk = chunk[1:]
        trail: list[str] = []
        while chunk and not chunk[-1].isalnum():
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


def _mean(lexicon, form, attr):
    return lexicon.means[form][("subjectivity", "intensity").index(attr)]


def _match_at(tokens, i, lexicon):
    limit = min(lexicon.max_form_words, len(tokens) - i)
    for width in range(limit, 0, -1):
        form = " ".join(tokens[i : i + width])
        if form in lexicon.means:
            return form, width
    return None


def assess(tokens, lexicon) -> list[Assessment]:
    tokens = list(tokens)
    out: list[Assessment] = []
    pending = None
    i = 0
    while i < len(tokens):
        m = _match_at(tokens, i, lexicon)
        if m is None:
            pending = None
            i += 1
            continue
        form, width = m
        if (
            width == 1
            and _mean(lexicon, form, "intensity") != 1.0
            and _match_at(tokens, i + 1, lexicon) is not None
        ):
            pending = _mean(lexicon, form, "intensity")
            i += 1
            continue
        subj = _mean(lexicon, form, "subjectivity")
        if pending is not None:
            subj = min(1.0, max(0.0, subj * pending))
        out.append(Assessment(i, i + width, tuple(tokens[i : i + width]), subj))
        pending = None
        i += width
    return out


def hits(tokens, lexicon) -> list[tuple[int, int, float]]:
    """``assess`` as the (start, width, contribution) triples that
    ``subjectivity._hits`` yields."""
    return [(a.start, a.end - a.start, a.subjectivity) for a in assess(tokens, lexicon)]


def word_hits(tokens, lexicon) -> list[tuple[int, int, float]]:
    """``hits`` of the word tokens of ``tokens`` (the ones ``score`` once kept
    before matching: those whose first character is a letter or digit), each
    start mapped back to its index in ``tokens``: what ``subjectivity._hits``
    yields on a stream that holds punctuation tokens."""
    at = [k for k, tok in enumerate(tokens) if tok[0].isalnum()]
    return [(at[start], width, subj)
            for start, width, subj in hits([tokens[k] for k in at], lexicon)]


def score(text, lexicon) -> SubjectivityScore:
    tokens = [t for t in word_split(text) if any(ch.isalnum() for ch in t)]
    assessments = assess(tokens, lexicon)
    if not assessments:
        return SubjectivityScore(0.0)
    value = sum(a.subjectivity for a in assessments) / len(assessments)
    return SubjectivityScore(min(1.0, max(0.0, value)))


def exact_token_positions(tokens, id_lexicon, max_len):
    positions = []
    for i, tok in enumerate(tokens):
        if i >= max_len - 2:
            break
        if tok in id_lexicon.terms:
            positions.append(i + 1)
    return tuple(positions)


def prepare_examples(comments, vocab, subj_lexicon, id_lexicon, max_len, mode):
    """(augmented example, identity positions) per comment, split twice."""
    out = []
    for c in comments:
        tokens = word_split(c.text)
        s = score(c.text, subj_lexicon)
        aug = augment(encode(tokens, vocab, max_len), s, detect(c.text, id_lexicon).present, mode)
        out.append((aug, exact_token_positions(tokens, id_lexicon, max_len)))
    return out


def prepared_features(prepared):
    """The audit features of each row of a ``PreparedSet``: its slot fill and
    terms, as ``eval`` writes them to predictions.csv (the former
    ``PreparedSet.features``)."""
    return [_audit.CommentFeatures(fill, terms)
            for fill, terms in zip(prepared.data.fill.tolist(), prepared.terms)]


def features(comments, id_lexicon, subj_lexicon):
    """Each comment's audit features, scored and detected from its text."""
    return [
        _audit.CommentFeatures(score(c.text, subj_lexicon).value,
                               detect(c.text, id_lexicon).terms)
        for c in comments
    ]


def bias_groups(comments, preds, golds, id_lexicon, subj_lexicon):
    comments, preds, golds = list(comments), list(preds), list(golds)
    buckets = {(o, w): [] for o in _audit.OUTCOMES for w in (True, False)}
    for comment, pred, gold in zip(comments, preds, golds):
        key = (outcome(pred, gold), detect(comment.text, id_lexicon).present)
        buckets[key].append(score(comment.text, subj_lexicon).value)
    return {
        key: _audit.BiasCell(tuple(vals), _audit.quartiles(vals) if vals else None)
        for key, vals in buckets.items()
    }


def error_listing(comments, preds, golds, id_lexicon, subj_lexicon):
    rows = []
    for comment, pred, gold in zip(comments, preds, golds):
        error = outcome(pred, gold)
        if error not in ("FP", "FN"):
            continue
        rows.append(_audit.ErrorRow(
            comment.id, error, detect(comment.text, id_lexicon).terms,
            score(comment.text, subj_lexicon).value,
        ))
    rows.sort(key=lambda r: (r.error, -r.subjectivity, r.comment_id))
    return rows


def audit_report(comments, preds, golds, id_lexicon, subj_lexicon):
    counts = _audit.confusion(preds, golds)
    return _audit.AuditReport(
        counts,
        _audit.f1(counts),
        bias_groups(comments, preds, golds, id_lexicon, subj_lexicon),
        tuple(error_listing(comments, preds, golds, id_lexicon, subj_lexicon)),
    )


# ---------------------------------------------------------------------------
# The audit of given features before each outcome was a table lookup: the
# outcome branches on the labels, and the confusion counts, the bias cells
# and the error listing each derive it in a pass of their own.


def outcome(pred, gold) -> str:
    if pred == Label.TOXIC:
        return "TP" if gold == Label.TOXIC else "FP"
    return "FN" if gold == Label.TOXIC else "TN"


def feature_audit_report(comments, preds, golds, features):
    preds, golds, features = list(preds), list(golds), list(features)
    n = Counter(map(outcome, preds, golds))
    counts = _audit.ConfusionCounts(n["TP"], n["FP"], n["TN"], n["FN"])
    buckets = {(o, w): [] for o in _audit.OUTCOMES for w in (True, False)}
    for pred, gold, (subjectivity, terms) in zip(preds, golds, features):
        buckets[(outcome(pred, gold), bool(terms))].append(subjectivity)
    cells = {key: _audit.BiasCell(tuple(vals), _audit.quartiles(vals) if vals else None)
             for key, vals in buckets.items()}
    rows = []
    for comment, pred, gold, (subjectivity, terms) in zip(comments, preds, golds, features):
        error = outcome(pred, gold)
        if error in ("FP", "FN"):
            rows.append(_audit.ErrorRow(comment.id, error, terms, subjectivity))
    rows.sort(key=lambda r: (r.error, -r.subjectivity, r.comment_id))
    return _audit.AuditReport(counts, _audit.f1(counts), cells, tuple(rows))


# ---------------------------------------------------------------------------
# The canonical CSV reader before it streamed: every row is read into a
# ``csv.DictReader`` dict first, then converted.


def read_canonical(path) -> list[Comment]:
    p = Path(path)
    if not p.exists():
        raise ContractError(f"dataset file not found: {p}")
    with open(p, newline="", encoding="utf-8-sig") as fh:
        try:
            rows = list(csv.DictReader(fh))
        except UnicodeDecodeError as exc:
            raise ContractError(f"dataset file {p} is not UTF-8 text: {exc}") from None
        except csv.Error as exc:
            raise ContractError(f"dataset file {p} is not a readable CSV: {exc}") from None

    def field_of(row, column, rownum):
        if column not in row or row[column] is None:
            raise ContractError(f"row {rownum}: missing column {column!r}")
        return row[column]

    comments = []
    for idx, row in enumerate(rows, start=1):
        raw = field_of(row, "label", idx)
        try:
            label = Label.parse(raw)
        except ContractError as exc:
            raise ContractError(f"row {idx}: {exc}") from None
        text = field_of(row, "text", idx)
        cid = (row.get("id") or "").strip() or f"synthetic-{idx:06d}"
        comments.append(Comment(cid, text, label))
    return comments


# ---------------------------------------------------------------------------
# The training step's helpers before the backward pass read GELU's tanh from
# the forward cache, built its arrays in place and summed variants in order.


def rms_backward(dy, gain, cache):
    xhat, r = cache
    d = xhat.shape[-1]
    dgain = (dy * xhat).reshape(-1, d).sum(axis=0)
    dbias = dy.reshape(-1, d).sum(axis=0)
    dxhat = dy * gain
    inner = np.einsum("...i,...i->...", dxhat, xhat)[..., None]
    dx = r * (dxhat - xhat * inner / d)
    return dx, dgain, dbias


def gelu_grad(u):
    c, a = _enc._GELU_C, _enc._GELU_A
    t = np.tanh(c * (u + a * u * u * u))
    return 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * c * (1.0 + 3.0 * a * u * u)


def dropout_mask(rng, shape, rate):
    keep = 1.0 - rate
    return (rng.random(shape) < keep) / keep


def variant_sums(src, x, n):
    """Each variant's row of ``x`` summed onto row ``src`` of ``n`` rows, by
    one bincount over flat (row, column) bins."""
    flat = x.reshape(len(src), -1)
    width = flat.shape[1]
    bins = (src[:, None].astype(np.intp) * width + np.arange(width)).ravel()
    sums = np.bincount(bins, weights=flat.ravel(), minlength=n * width)
    return sums.reshape((n,) + x.shape[1:])
