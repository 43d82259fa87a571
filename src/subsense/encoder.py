"""Desk-scale transformer encoder classifier with explicit backprop.

Double precision throughout. Attention masking is key-side: a position with
mask bit 0 (padding or a gated-off slot) receives exactly zero attention
weight from every query, so masked content cannot leak into the CLS logits.
Normalization layers are RMS-style (scale by root-mean-square, no mean
subtraction): the slot embedding is a constant fill value replicated across
all model dimensions, and subtracting the per-position mean would erase such
a component exactly, severing the slot from the logits.

Blocks are pre-norm; the classification head reads the CLS position after a
final normalization. Dropout masks are stored in the forward cache so the
backward pass replays them exactly. A norm caches its normalized input
``xhat`` and reciprocal RMS ``r``, not its input: the backward pass reads
only those, as ``dx = r * (dxhat - xhat * (dxhat . xhat) / d)``, built in
place in that order. A block's GELU caches its tanh, not its output: the
backward pass rebuilds the output with the forward pass's operations, so
the same bits, and reads the derivative off the tanh, so no tanh runs
twice.

Only CLS reaches the head, so the last block computes its attention, its
residual, its second norm and its feed-forward for the CLS row alone, and
the final norm sees only CLS. With one query per head the last block needs
no keys or values either; it reads its normed input ``a`` directly. With
``q_h`` head h's query and ``W_k^h``, ``W_v^h`` its columns of the key and
value projections, let ``u_h = W_k^h q_h / sqrt(d_h)``. The score of
position j is ``a_j . u_h`` plus ``q_h . b_k^h / sqrt(d_h)``, a term the
same for every key, which the softmax cancels, so it is left out (and
``b_k`` of the last block gets a zero gradient). With ``p_h`` the softmax
and ``g_h = sum_j p_hj a_j``, the head's output is ``g_h W_v^h + b_v^h``,
since the probabilities sum to 1. So two products against ``a``, each
``heads`` rows wide, replace the key and value projections of every
position, and the backward pass mirrors them: ``dg``, ``dp = dg . a_j``,
the softmax backward ``ds``, ``du = ds a``, and ``da = p dg + ds u`` in one
product. All of this is exact, not an approximation: norms, projections,
the feed-forward and the residual act on each position independently, and
other positions reach CLS only through its attention. Results differ from a
full-sequence pass only by rounding, of differently shaped and ordered
products and of the left-out constant.

An inference pass keeps no caches, and given a workspace it allocates no
activation either: it writes each into a view of a named flat buffer that
the caller keeps across batches, and the buffers hold the pass's live set,
no more. In slots of ``max(rows, variants) * (width + 1) * d_model``
floats, ``h`` (one slot) holds the residual stream and ``norm`` (one slot)
each norm's output and the merged heads. ``act`` holds Q, K and V in
slots 0, 1 and 2; once attention is done, the attention output, the
residual stream's next value, takes slot 0, and the feed-forward hidden
slots 1 on, running past slot 2 when ``d_ff > 2 * d_model``. The last
block's q, u and scores fill ``act`` from its start, then ``g`` is written
over the spent q and u; ``act`` is sized to hold them when they pass three
slots, which takes more heads than ``2 * width + 1``. GELU overwrites the
hidden, and its temporary reuses the scores block, which is sized for the
widest batch ``max_len`` allows. At most ``h``, norm1's output, Q, K and V
are live at once, so five slots are the least that whole-batch products
can run in. ``trainer.predict_batch`` holds each batch to a budget of key
positions, ``rows * (width + 1)``, so a slot is at most that budget times
``d_model`` floats at any max_len. The token embedding is gathered into
``h`` in blocks of rows, so a warm pass makes no temporary of a slot's
size; only layer 0's repeat of the variants (below) copies. Fresh arrays
cost more than their arithmetic at long rows: the allocator maps each
multi-megabyte temporary anew, or returns it to the operating system when
the heap is trimmed, so every batch would fault its pages in again.
Training writes fresh arrays, because its cache keeps them for the backward
pass, where a reused buffer would be overwritten. Every in-place step
computes the products and sums of the expression it replaces in the same
order, at most with the two operands of one product or sum swapped, so a
workspace changes no bit.

In every block but the last, attention runs one block of whole batch rows
at a time, all heads together, as many rows as fit ``_BLOCK_BYTES`` of
scores and at least one; when one row's heads pass it, a block is one row
and as many of its heads as fit, at least one. In every block GELU runs
through a temporary of one block of rows. So a pass holds one block of
scores, at most ``max(_BLOCK_BYTES, (width + 1)**2 * 8)`` bytes, not a
batch's ``(rows, heads, width + 1, width + 1)``. This is exact: rows never
meet inside attention, each head of each row is its own matrix product, and
each softmax reduction runs along one row's keys, so a block gets the bits
the whole batch would. Splitting one row's queries would not be exact, since a
smaller product may round differently, and tiling the keys with an online
softmax (FlashAttention) would reorder the sums; neither is done. Training
caches these blocks' queries, keys and values, not their probabilities:
the backward pass recomputes each block's probabilities with the same
operations, so they are the forward pass's bits, and forms that block's
gradients from them. At max_len 16 a batch is one block. Each block's
``probs @ v`` goes straight into its rows of the merged-heads array, each
head into its own columns, and the backward pass writes ``dq``, ``dk`` and
``dv`` the same way, so no copy merges the heads. The last block's scores,
``(rows, heads, width + 1)``, are a fraction ``heads / d_model`` of a
slot; it computes them whole, and training caches its probabilities.

Each batch is also trimmed to the columns it uses: token positions up to the
longest row's extent (one past its last attended position, ``[SEP]`` for an
encoded comment), then the slot, which keeps its ``pos_emb[max_len]`` row.
This is exact too. Every dropped column is masked in every row, and a masked
key gets weight ``exp(-inf) = 0``, so its value never reaches CLS. Padded
positions reach CLS through nothing else, so their gradients are
identically zero, and the dropped ``tok_emb``/``pos_emb`` contributions are
zeros. Each dropout mask is drawn at the shape of the array it multiplies:
``(b, width + 1, d)`` for the embedding and every block but the last, and
``(b, 1, d)`` for the last block's attention and feed-forward, which run on
CLS alone. So the random stream a pass consumes depends on the trimmed
width, and no mask entry is drawn for a position the pass does not compute.

The encoder reads a ``Batch`` of arrays that ``trainer.prepare_examples``
builds once per example set and ``Batch.take`` slices. A batch may run
several key-mask variants of one row, as the occlusion regularizer does:
``ids`` and ``fill`` hold one row per comment, ``variants`` the number of
variants each row runs as, and ``kmask`` one key mask per variant, each
row's variants together and the rows in order. A key mask does not change
the embedding, ``emb_norm``, layer 0's ``norm1`` or its Q, K and V (or, when
layer 0 is the last block, its q, u and scores), so these run once per row.
Right after them, Q, K and V (or the scores and ``a``) are repeated by the
counts with the residual, and all that follows runs per variant; with no
layer, the repeat comes before the final norm. The backward pass sums the
variants' gradients back onto their rows at the same points: each row's
variants in their order, starting from 0.0, which gives the bits of a
bincount over them, zero signs included. A plain batch has ``variants``
``None``: nothing is repeated or summed, so it runs the same operations it
always did.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .atomic import replacing
from .errors import ContractError, check_fields

CHECKPOINT_MAGIC = b"SSENCPT1"
_NORM_EPS = 1e-9
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715
# Attention scores and GELU's temporary are computed, and the token
# embedding gathered, in blocks of whole batch rows that fit this many bytes
# (attention's in blocks of one row's heads when a row's do not).
_BLOCK_BYTES = 1 << 20
# The classifier is binary: the head has one logit per Label.
N_CLASSES = 2


@dataclass(frozen=True)
class ModelConfig:
    max_len: int
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 2
    d_ff: int = 128
    dropout_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_fields(ModelConfig, vars(self), "ModelConfig")
        if self.max_len < 3:
            raise ContractError("max_len must be at least 3")
        if self.vocab_size < 4:
            raise ContractError("vocab_size must cover the specials")
        if self.d_model <= 0 or self.d_ff <= 0 or self.n_heads <= 0:
            raise ContractError("model dimensions must be positive")
        if self.n_layers < 0:
            raise ContractError("n_layers must be non-negative")
        if self.seed < 0:
            raise ContractError("seed must be non-negative")
        if self.d_model % self.n_heads != 0:
            raise ContractError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ContractError("dropout_rate must be in [0,1)")

    @property
    def seq_len(self) -> int:
        """Positions seen by the encoder: max_len token slots plus the slot."""
        return self.max_len + 1

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        """Inverse of ``dataclasses.asdict``: every field must be present, and no
        other key."""
        check_fields(cls, d, cls.__name__)
        return cls(**d)


def _views(flat: np.ndarray, shapes) -> dict[str, np.ndarray]:
    """Named views into ``flat``, one per entry of ``shapes`` (name to
    shape), laid out one after another in its order."""
    views, offset = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = flat[offset : offset + size].reshape(shape)
        offset += size
    return views


def flat_params(params: dict[str, np.ndarray]) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Copy ``params`` into one contiguous vector, tensors in key order, and
    return it with a dict of named views into it: an in-place update of the
    vector updates every tensor."""
    flat = np.concatenate(list(params.values()), axis=None)
    return flat, _views(flat, {name: tensor.shape for name, tensor in params.items()})


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, config.d_model),
        "pos_emb": (config.seq_len, config.d_model),
        "emb_norm.gain": (config.d_model,),
        "emb_norm.bias": (config.d_model,),
    }
    for i in range(config.n_layers):
        p = f"layer{i}"
        for proj in ("wq", "wk", "wv", "wo"):
            shapes[f"{p}.attn.{proj}"] = (config.d_model, config.d_model)
        for b in ("bq", "bk", "bv", "bo"):
            shapes[f"{p}.attn.{b}"] = (config.d_model,)
        shapes[f"{p}.norm1.gain"] = (config.d_model,)
        shapes[f"{p}.norm1.bias"] = (config.d_model,)
        shapes[f"{p}.ff.w1"] = (config.d_model, config.d_ff)
        shapes[f"{p}.ff.b1"] = (config.d_ff,)
        shapes[f"{p}.ff.w2"] = (config.d_ff, config.d_model)
        shapes[f"{p}.ff.b2"] = (config.d_model,)
        shapes[f"{p}.norm2.gain"] = (config.d_model,)
        shapes[f"{p}.norm2.bias"] = (config.d_model,)
    shapes["final_norm.gain"] = (config.d_model,)
    shapes["final_norm.bias"] = (config.d_model,)
    shapes["head.w"] = (config.d_model, N_CLASSES)
    shapes["head.b"] = (N_CLASSES,)
    return shapes


def init(config: ModelConfig) -> dict[str, np.ndarray]:
    """Seed-deterministic init in ``param_shapes`` order: scaled-uniform
    weights, gains 1, biases 0."""
    rng = np.random.default_rng(config.seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".gain"):
            tensors[name] = np.ones(shape)
        elif len(shape) == 1:
            tensors[name] = np.zeros(shape)
        else:
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            tensors[name] = rng.uniform(-limit, limit, size=shape)
    return tensors


def _rms_forward(x, gain, bias, out=None):
    """RMS norm over the last axis; the cache is ``(xhat, r)``, the normalized
    input and the reciprocal RMS, which is all the backward pass reads. With
    ``out``, which may be ``x``, the output is written there over ``xhat``,
    and the cache is None."""
    d = x.shape[-1]
    r = 1.0 / np.sqrt(np.einsum("...i,...i->...", x, x)[..., None] / d + _NORM_EPS)
    xhat = np.multiply(x, r, out=out)
    y = np.multiply(xhat, gain, out=out)
    y += bias
    return y, (xhat, r) if out is None else None


def _rms_backward(dy, gain, cache):
    """Gradients of the input, gain and bias from the output's ``dy``. With
    xhat = x * r: dx = r * dxhat - r**3 / d * x * (dxhat . x)
                     = r * (dxhat - xhat * (dxhat . xhat) / d),
    built in place in that order. ``dgain`` and ``dbias`` are one ``einsum``
    each over the rows, ``dgain`` without a ``dy * xhat`` array."""
    xhat, r = cache
    d = xhat.shape[-1]
    rows_dy = dy.reshape(-1, d)
    dgain = np.einsum("ni,ni->i", rows_dy, xhat.reshape(-1, d))
    dbias = np.einsum("ni->i", rows_dy)
    dxhat = dy * gain
    inner = np.einsum("...i,...i->...", dxhat, xhat)[..., None]
    dx = np.multiply(xhat, inner)
    dx /= d
    np.subtract(dxhat, dx, out=dx)
    dx *= r
    return dx, dgain, dbias


# Powers are written as products: numpy computes ``u**3`` through ``pow``,
# which is many times slower than ``u * u * u``.
def _gelu(u, out, tanh, work):
    """GELU of ``u`` written into ``out``, which may be ``u``; the tanh is
    written into ``tanh`` and ``tanh + 1`` into ``work``, which may be
    ``tanh``, each of ``u``'s shape. Each step is a product or sum of
    ``0.5 * u * (1 + tanh(C * (u + A * u * u * u)))`` in the order that
    expression evaluates, at most with its two operands swapped, so the
    result is the same bits."""
    t = np.multiply(u, _GELU_A, out=tanh)
    t *= u
    t *= u
    t += u
    t *= _GELU_C
    np.tanh(t, out=t)
    t1 = np.add(t, 1.0, out=work)
    np.multiply(u, 0.5, out=out)
    out *= t1
    return out


def _gelu_back(u, tanh):
    """GELU's output and derivative at ``u``, from the ``tanh`` its forward
    pass wrote. The output repeats ``_gelu``'s operations, and the derivative
    ``0.5 * (1 + t) + 0.5 * u * (1 - t * t) * C * (1 + 3 * A * u * u)`` is
    built in place in the order that expression evaluates, sharing
    ``0.5 * u`` and ``1 + t``: both are the bits computing them afresh
    gives."""
    half_u = np.multiply(u, 0.5)
    t1 = np.add(tanh, 1.0)
    g = np.multiply(half_u, t1)
    grad = np.multiply(tanh, tanh)
    np.subtract(1.0, grad, out=grad)
    grad *= half_u
    grad *= _GELU_C
    poly = np.multiply(u, 3.0 * _GELU_A, out=half_u)
    poly *= u
    poly += 1.0
    grad *= poly
    t1 *= 0.5
    grad += t1
    return g, grad


def _split_heads(x, n_heads):
    """``x``, ``(..., length, d)``, as ``(..., n_heads, length, d // n_heads)``:
    each head's columns, a view."""
    *lead, length, d = x.shape
    return x.reshape(*lead, length, n_heads, d // n_heads).swapaxes(-3, -2)


def _row_blocks(n, row_size):
    """Slices that cut ``n`` batch rows into blocks of whole rows, each of
    ``row_size`` float64 entries, as many rows as fit ``_BLOCK_BYTES`` and at
    least one; returns them with the rows of the largest block."""
    step = max(1, min(n, _BLOCK_BYTES // (8 * row_size)))
    return [slice(start, start + step) for start in range(0, n, step)], step


def _attention_blocks(n, n_heads, head_size):
    """Blocks that cut the attention scores of ``n`` batch rows of
    ``n_heads`` heads, each head's ``head_size`` float64 entries, as
    ``(rows, heads)`` slice pairs: whole rows with all their heads, as many
    rows as fit ``_BLOCK_BYTES`` and at least one, or, when one row's heads
    pass it, one row and as many of its heads as fit, at least one. Returns
    them with the rows and heads of the largest block."""
    heads = max(1, min(n_heads, _BLOCK_BYTES // (8 * head_size)))
    if heads < n_heads:
        return [(slice(i, i + 1), slice(j, j + heads))
                for i in range(n) for j in range(0, n_heads, heads)], (1, heads)
    rows, step = _row_blocks(n, n_heads * head_size)
    return [(r, slice(None)) for r in rows], (step, n_heads)


def _softmax(scores, add_mask):
    """Each query's softmax over its keys, in place in ``scores``, after adding
    ``add_mask`` (0 or ``-inf`` per key); returns ``scores``."""
    scores += add_mask
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores, out=scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _attention_probs(q, k, add_mask, out):
    """Each head's softmax over the keys ``k`` of the queries ``q``, the
    scaled scores plus ``add_mask``, written in place into the first
    rows and heads of ``out``."""
    scores = np.matmul(q, k.transpose(0, 1, 3, 2), out=out[: len(q), : q.shape[1]])
    scores /= np.sqrt(q.shape[-1])
    return _softmax(scores, add_mask)


def _dropout_mask(rng, shape, rate):
    """Inverted dropout mask of ``shape``: ``1 / (1 - rate)`` where a uniform
    draw falls below ``1 - rate``, else 0. Built in the array of draws: each
    entry, 1.0 or 0.0, times the rounded ``1 / (1 - rate)`` is that entry
    divided by ``1 - rate``, in the same bits."""
    keep = 1.0 - rate
    mask = rng.random(shape)
    np.less(mask, keep, out=mask)
    mask *= 1.0 / keep
    return mask


class TokenKeys(NamedTuple):
    n_real: int  # unmasked token keys


class VariantKeys(NamedTuple):
    """The keys one variant of a ``Batch`` attends: its unmasked token keys
    and its slot gate bit."""

    base: TokenKeys
    slot_mask: int


@dataclass(frozen=True)
class Batch:
    """Encoder input as arrays. ``ids`` (int32) and ``fill`` hold one row per
    comment and ``extent`` each row's extent; the token columns stop at the
    longest one. ``kmask`` (bool) holds one key mask per variant, its last
    column the slot, and ``variants`` the number of variants each row runs
    as, at least 1; row 0's variants come first in ``kmask``, then row 1's,
    and so on. ``None`` means one variant per row."""

    ids: np.ndarray
    fill: np.ndarray
    kmask: np.ndarray
    extent: np.ndarray
    variants: np.ndarray | None = None

    def __len__(self) -> int:
        """The number of variants: the rows of logits ``forward`` returns."""
        return len(self.kmask)

    def __iter__(self):
        """Each variant's ``VariantKeys``, so that code that reads a batch as
        a list of examples, such as the benchmark's tracer counting rows and
        masked keys, reads the variants the encoder runs."""
        n_real = self.kmask[:, :-1].sum(axis=1).tolist()
        slot = self.kmask[:, -1].astype(int).tolist()
        return (VariantKeys(TokenKeys(n), m) for n, m in zip(n_real, slot))

    def take(self, rows) -> "Batch":
        """Rows ``rows`` of a plain batch, trimmed to the token columns before
        their longest extent (at least the CLS column, which the head reads)."""
        width = max(1, int(self.extent[rows].max()))
        kmask = self.kmask[rows]
        return Batch(self.ids[rows, :width], self.fill[rows],
                     np.concatenate((kmask[:, :width], kmask[:, -1:]), axis=1),
                     self.extent[rows])


def _scatter_rows(ids, rows, n):
    """Add each ``d``-vector of ``rows`` (shape ``ids.shape + (d,)``) into row
    ``ids[...]`` of an ``(n, d)`` zero array. One bincount over flat
    (id, dim) bins adds in the order ``np.add.at`` does, so the sums are the
    same bits."""
    d = rows.shape[-1]
    bins = (ids[..., None].astype(np.intp) * d + np.arange(d)).ravel()
    return np.bincount(bins, weights=rows.ravel(), minlength=n * d).reshape(n, d)


def _variant_sums(counts):
    """A function that sums the rows of an array, one per variant, onto the
    rows that run ``counts`` variants each, laid out as ``Batch`` holds them.
    Each row's sum runs over its variants in order, from 0.0: the bits of the
    bincount that ``_scatter_rows`` runs, zero signs included."""
    n = len(counts)
    starts = np.cumsum(counts) - counts  # where each row's variants start
    # The k-th variant of every row that has more than k, for k = 1, 2, ...;
    # all the rows as a slice, which adds in place without a gather.
    later = []
    for k in range(1, counts.max()):
        rows = np.flatnonzero(counts > k)
        later.append((rows if len(rows) < n else slice(None), starts[rows] + k))

    def to_rows(x):
        out = x[starts]
        out += 0.0  # bincount's first step, 0.0 + x: a -0.0 becomes 0.0
        for rows, variants in later:
            out[rows] += x[variants]
        return out

    return to_rows


def forward(batch: Batch, params, config, train_mode: bool = False, dropout_rng=None,
            workspace: dict | None = None):
    """Run the classifier; returns (logits, cache), cache None in inference.
    There is one row of logits per variant, in an array of its own.

    Dropout fires only when train_mode is set, the configured rate is
    positive and a generator is supplied; the occlusion regularizer relies
    on deterministic passes with ``dropout_rng=None``.

    ``workspace``, inference only, is a dict the caller keeps across calls,
    empty at first. The pass sizes the flat buffers it holds by name at its
    start, so no view moves mid-pass, and writes its activations into them
    by the slot plan of the module docstring: with ``slot = max(rows,
    variants) * (width + 1) * d_model`` floats, ``h`` and ``norm`` take one
    slot each, ``act`` ``1 + max(2, d_ff / d_model)``, or the last block's
    q, u and scores if more, and ``scores`` ``_BLOCK_BYTES``, or one (row,
    head)'s scores or one row's feed-forward hidden at ``max_len`` if more.
    Nothing is written over an activation that is still to be read. A
    buffer grows only when a call needs more, so calls in descending order
    of ``rows * (width + 1)`` are all sized by the first, save ``act`` when
    the last block's need passes three slots.
    """
    if train_mode and workspace is not None:
        raise ContractError("a train_mode forward keeps its activations in its cache; "
                            "it takes no workspace")
    ids, kmask, fill, variants = batch.ids, batch.kmask, batch.fill, batch.variants
    b, width = ids.shape
    if variants is not None and (variants.shape != (b,) or (variants < 1).any()
                                 or variants.sum() != len(kmask)):
        raise ContractError("a batch's variants must count 1 or more per row, one per key mask")
    lm, d, d_ff = config.max_len, config.d_model, config.d_ff
    use_dropout = train_mode and config.dropout_rate > 0.0 and dropout_rng is not None
    slot_rows = max(b, len(kmask))
    slot = slot_rows * (width + 1) * d
    # The last block's q, u and scores, which can pass three slots only when
    # there are more heads than 2 * width + 1.
    cls_size = slot_rows * (d + config.n_heads * (d + width + 1)) if config.n_layers else 0

    def buf(name, shape, at=0):
        """An array of ``shape`` to write into: the view from entry ``at`` of
        the workspace's buffer ``name``, or a fresh array when there is no
        workspace."""
        if workspace is None:
            return np.empty(shape)
        size = math.prod(shape)
        flat = workspace.get(name)
        if flat is None or len(flat) < at + size:
            flat = workspace[name] = np.empty(at + size)
        return flat[at : at + size].reshape(shape)

    if workspace is not None:  # sized up front: no buffer is replaced while viewed
        # The scores block holds one (row, head)'s scores or one row's
        # feed-forward hidden at max_len when that passes _BLOCK_BYTES.
        block = max(_BLOCK_BYTES // 8, (lm + 1) * max(lm + 1, d_ff))
        for name, size in (("h", slot), ("norm", slot), ("scores", block),
                           ("act", max(slot + max(2 * slot, slot // d * d_ff), cls_size))):
            buf(name, (size,))

    def drop(x):
        """Apply a dropout mask of ``x``'s shape to ``x`` in place, or none
        outside training; returns the mask (None if none)."""
        if not use_dropout:
            return None
        mask = _dropout_mask(dropout_rng, x.shape, config.dropout_rate)
        x *= mask
        return mask

    def norm(x, name, into):
        """RMS norm ``name`` of ``x``: into buffer ``into`` outside training,
        else into fresh arrays, whose cache is kept."""
        out = None if train_mode else buf(into, x.shape)
        return _rms_forward(x, params[f"{name}.gain"], params[f"{name}.bias"], out)

    # Inference follows the slot plan of the module docstring. Training
    # writes into fresh arrays, which its cache keeps, and rebinds ``h`` at
    # every step, so a norm's input does not stay alive beside the ``xhat``
    # its cache holds.
    h = buf("h", (b, width + 1, d))
    # Gathered in blocks of rows, so no (rows, width, d) temporary is made.
    for r in _row_blocks(b, width * d)[0]:
        np.add(params["tok_emb"][ids[r]], params["pos_emb"][None, :width], out=h[r, :width])
    # Slot embedding: fill value on every dimension plus the slot position row.
    h[:, width] = fill[:, None] + params["pos_emb"][lm]

    h, emb_cache = norm(h, "emb_norm", "h")
    emb_drop = drop(h)

    def project(x, p, proj, n):
        """``x @ w + b`` of the attention projection ``proj`` of block ``p``
        into slot ``n`` of "act", split into heads."""
        y = np.matmul(x, params[f"{p}.attn.w{proj}"], out=buf("act", x.shape, n * slot))
        y += params[f"{p}.attn.b{proj}"]
        return _split_heads(y, config.n_heads)

    def self_attention(a, h, p, repeats):
        """Every position's attention in block ``p``: Q, K and V of ``a`` in
        slots 0 to 2 of "act", the merged heads in "norm". Returns those, the
        residual ``h`` and the cache entries, repeated by ``repeats`` if given."""
        q, k, v = project(a, p, "q", 0), project(a, p, "k", 1), project(a, p, "v", 2)
        if repeats is not None:
            q, k, v, h = (np.repeat(x, repeats, axis=0) for x in (q, k, v, h))
        nb, n_heads, n_rows, _ = q.shape
        # Scores and softmax in place, one block of rows, or of one row's heads, at a time.
        blocks, shape = _attention_blocks(nb, n_heads, n_rows * (width + 1))
        scores = buf("scores", (*shape, n_rows, width + 1))
        ocat = buf("norm", (nb, n_rows, d))
        pv = _split_heads(ocat, n_heads)  # each head writes its columns of ocat
        for r, hs in blocks:
            probs = _attention_probs(q[r, hs], k[r, hs], add_mask[r], scores)
            np.matmul(probs, v[r, hs], out=pv[r, hs])
        return ocat, h, {"q": q, "k": k, "v": v}

    def cls_attention(a, h, p, repeats):
        """CLS's attention in block ``p``, read off ``a`` without keys or
        values (module docstring): q, u and the scores from the start of
        "act", then g over the dead q and u, the merged heads in "norm".
        Returns those, CLS's residual and the cache entries; the scores and
        what follows are repeated by ``repeats`` if given."""
        n, n_heads = len(a), config.n_heads
        wk, wv = (_split_heads(params[f"{p}.attn.{w}"], n_heads) for w in ("wk", "wv"))
        q = np.matmul(a[:, 0], params[f"{p}.attn.wq"], out=buf("act", (n, d)))
        q += params[f"{p}.attn.bq"]
        u = buf("act", (n, n_heads, d), n * d)
        np.matmul(_split_heads(q, n_heads), wk.transpose(0, 2, 1), out=u.transpose(1, 0, 2))
        u /= np.sqrt(d // n_heads)
        probs = np.matmul(u, a.transpose(0, 2, 1),
                          out=buf("act", (n, n_heads, width + 1), n * d + u.size))
        res = h[:, :1]
        if repeats is not None:
            probs, a, res = (np.repeat(x, repeats, axis=0) for x in (probs, a, res))
        _softmax(probs[:, :, None], add_mask)
        nb = len(probs)
        g = np.matmul(probs, a, out=buf("act", (nb, n_heads, d)))
        ocat = buf("norm", (nb, 1, d))
        np.matmul(g.transpose(1, 0, 2), wv, out=_split_heads(ocat.reshape(nb, d), n_heads))
        ocat += params[f"{p}.attn.bv"]
        return ocat, res, {"q": q, "kq": u, "probs": probs, "pooled": g, "a_src": a}

    add_mask = np.where(kmask[:, None, None, :], 0.0, -np.inf)
    layer_caches = []
    for i in range(config.n_layers):
        p = f"layer{i}"
        a, ln1_cache = norm(h, f"{p}.norm1", "norm")
        # From layer 0's attention on, each variant runs apart.
        attention = cls_attention if i == config.n_layers - 1 else self_attention
        ocat, res, attn_cache = attention(a, h, p, variants if i == 0 else None)
        nb, n_rows, _ = ocat.shape
        mid = np.matmul(ocat, params[f"{p}.attn.wo"], out=buf("act", (nb, n_rows, d)))
        mid += params[f"{p}.attn.bo"]
        attn_drop = drop(mid)
        mid += res
        h = mid

        f, ln2_cache = norm(h, f"{p}.norm2", "norm")
        u = np.matmul(f, params[f"{p}.ff.w1"], out=buf("act", (nb, n_rows, d_ff), slot))
        u += params[f"{p}.ff.b1"]
        # Inference reads u no more, so GELU overwrites it. GELU acts on each
        # entry alone, so its temporary need only hold one block of rows,
        # which the scores block, dead by now, holds; inference writes the
        # tanh there too. Training keeps the tanh, for the backward pass.
        g = np.empty_like(u) if train_mode else u
        tanh = np.empty_like(u) if train_mode else None
        blocks, step = _row_blocks(nb, n_rows * d_ff)
        work = buf("scores", (step, n_rows, d_ff))
        for r in blocks:
            x = u[r]
            w = work[: len(x)]
            _gelu(x, g[r], w if tanh is None else tanh[r], w)
        z = np.matmul(g, params[f"{p}.ff.w2"], out=buf("h", h.shape))
        del g  # the backward pass rebuilds it from the tanh; training frees it here
        z += params[f"{p}.ff.b2"]
        ff_drop = drop(z)
        z += h
        h = z

        if train_mode:
            layer_caches.append({
                "ln1": ln1_cache, "a": a, **attn_cache, "ocat": ocat,
                "attn_drop": attn_drop, "ln2": ln2_cache, "f": f, "u": u, "tanh": tanh,
                "ff_drop": ff_drop,
            })

    h = h[:, 0]
    if not config.n_layers and variants is not None:
        h = np.repeat(h, variants, axis=0)
    cls, final_cache = norm(h, "final_norm", "norm")
    logits = cls @ params["head.w"] + params["head.b"]

    if not train_mode:
        return logits, None
    cache = {
        "ids": ids, "kmask": kmask, "add_mask": add_mask, "variants": variants,
        "emb": emb_cache, "emb_drop": emb_drop, "layers": layer_caches,
        "final": final_cache, "cls": cls,
    }
    return logits, cache


def backward(cache, params, config, dlogits):
    """Backprop from an upstream logit gradient.

    Returns (gradients keyed like the parameters, per-row gradient of the
    loss with respect to slot_fill). ``dlogits`` has one row per variant.
    """
    if cache is None:
        raise ContractError("backward needs the cache from a train_mode forward")
    dlogits = np.asarray(dlogits, dtype=np.float64)
    b, width = cache["ids"].shape
    variants = cache["variants"]
    if dlogits.shape != (len(cache["kmask"]), N_CLASSES):
        raise ContractError(f"upstream gradient shape {dlogits.shape} mismatch")
    lm, d = config.max_len, config.d_model
    dh = d // config.n_heads
    add_mask = cache["add_mask"]
    grads: dict[str, np.ndarray] = {}

    grads["head.w"] = cache["cls"].T @ dlogits
    grads["head.b"] = dlogits.sum(axis=0)
    dcls = dlogits @ params["head.w"].T

    dcls_in, dgain, dbias = _rms_backward(dcls, params["final_norm.gain"], cache["final"])
    grads["final_norm.gain"] = dgain
    grads["final_norm.bias"] = dbias

    to_rows = None if variants is None else _variant_sums(variants)

    def _linear_back(x, w, dy):
        din = x.shape[-1]
        dout = dy.shape[-1]
        dw = x.reshape(-1, din).T @ dy.reshape(-1, dout)
        db = dy.reshape(-1, dout).sum(axis=0)
        dx = dy @ np.ascontiguousarray(w.T)  # a strided w.T makes the product slower
        return dw, db, dx

    if config.n_layers:
        dcur = dcls_in[:, None, :]
    else:
        if variants is not None:
            dcls_in = to_rows(dcls_in)
        dcur = np.zeros((b, width + 1, d))
        dcur[:, 0] = dcls_in

    def self_attention_back(lc, p, docat, repeats):
        """Gradients of block ``p``'s Q, K and V projections from the merged
        heads' gradient ``docat``; returns the gradient of their input ``a``.
        Each block's probabilities are recomputed from the cached queries and
        keys, with the forward pass's operations."""
        do = _split_heads(docat, config.n_heads)
        q, k, v = lc["q"], lc["k"], lc["v"]
        nb, n_heads, n_rows, _ = q.shape
        dq, dk, dv = (np.empty((nb, n_rows, d)) for _ in range(3))
        # Each head's gradient goes into its columns of dq, dk and dv.
        dq_h, dk_h, dv_h = (_split_heads(x, n_heads) for x in (dq, dk, dv))
        blocks, shape = _attention_blocks(nb, n_heads, n_rows * (width + 1))
        scores, dprobs, work = (np.empty((*shape, n_rows, width + 1)) for _ in range(3))
        for r, hs in blocks:
            q_b, k_b, v_b, do_b = q[r, hs], k[r, hs], v[r, hs], do[r, hs]
            probs = _attention_probs(q_b, k_b, add_mask[r], scores)
            m, nh = probs.shape[:2]
            dp = np.matmul(do_b, v_b.transpose(0, 1, 3, 2), out=dprobs[:m, :nh])
            np.matmul(probs.transpose(0, 1, 3, 2), do_b, out=dv_h[r, hs])
            # Softmax backward, in place in dp; masked columns carry
            # probability 0 so their score gradient vanishes identically.
            dp -= np.multiply(dp, probs, out=work[:m, :nh]).sum(axis=-1, keepdims=True)
            dscores = np.multiply(probs, dp, out=dp)
            np.matmul(dscores, k_b, out=dq_h[r, hs])
            np.matmul(dscores.transpose(0, 1, 3, 2), q_b, out=dk_h[r, hs])
        dq /= np.sqrt(dh)
        dk /= np.sqrt(dh)
        if repeats is not None:
            dq, dk, dv = to_rows(dq), to_rows(dk), to_rows(dv)
        a = lc["a"]
        da = np.zeros_like(a)
        for name, dten in (("wq", dq), ("wk", dk), ("wv", dv)):
            dw, db, dx = _linear_back(a, params[f"{p}.attn.{name}"], dten)
            grads[f"{p}.attn.{name}"] = dw
            grads[f"{p}.attn.b{name[1]}"] = db
            da += dx
        return da

    def cls_attention_back(lc, p, docat, repeats):
        """Gradients of CLS's attention in block ``p`` (module docstring) from
        its merged heads' gradient ``docat``; returns the gradient of ``a``.
        The scores are ``a_j . u``, so the softmax backward gives ``du`` and,
        with the pooling's share, ``da`` in one product."""
        n_heads = config.n_heads
        q, u, probs, g, a_src = lc["q"], lc["kq"], lc["probs"], lc["pooled"], lc["a_src"]
        nb = len(probs)
        do = _split_heads(docat.reshape(nb, d), n_heads)
        wk, wv = (_split_heads(params[f"{p}.attn.{w}"], n_heads) for w in ("wk", "wv"))
        dwv = np.empty((d, d))
        np.matmul(g.transpose(1, 2, 0), do, out=_split_heads(dwv, n_heads))
        grads[f"{p}.attn.wv"] = dwv
        grads[f"{p}.attn.bv"] = docat.reshape(nb, d).sum(axis=0)
        # [probs, dscores] and [dg, u] side by side over the heads, so that
        # one product gives da = probs^T dg + dscores^T u.
        pd = np.empty((nb, 2 * n_heads, width + 1))
        gu = np.empty((nb, 2 * n_heads, d))
        dg = gu[:, :n_heads]
        np.matmul(do, wv.transpose(0, 2, 1), out=dg.transpose(1, 0, 2))
        gu[:, n_heads:] = u if repeats is None else np.repeat(u, repeats, axis=0)
        dp = np.matmul(dg, a_src.transpose(0, 2, 1))
        dp -= (dp * probs).sum(axis=-1, keepdims=True)
        dscores = np.multiply(probs, dp, out=pd[:, n_heads:])
        pd[:, :n_heads] = probs
        da = np.matmul(pd.transpose(0, 2, 1), gu)
        if repeats is not None:
            da, dscores = to_rows(da), to_rows(dscores)
        du = np.matmul(dscores, lc["a"])
        du /= np.sqrt(dh)
        du_h = du.transpose(1, 0, 2)
        dwk, dq = np.empty((d, d)), np.empty((len(du), d))
        np.matmul(du_h.transpose(0, 2, 1), _split_heads(q, n_heads),
                  out=_split_heads(dwk, n_heads))
        np.matmul(du_h, wk, out=_split_heads(dq, n_heads))
        grads[f"{p}.attn.wk"] = dwk
        # A shift of every key's score alike changes no probability.
        grads[f"{p}.attn.bk"] = np.zeros(d)
        dwq, dbq, dx = _linear_back(lc["a"][:, 0], params[f"{p}.attn.wq"], dq)
        grads[f"{p}.attn.wq"] = dwq
        grads[f"{p}.attn.bq"] = dbq
        da[:, 0] += dx
        return da

    def ff_back(lc, p, dcur):
        """Gradients of block ``p``'s feed-forward and second norm from the
        block output's gradient ``dcur``; returns the gradient of the
        residual stream before them. GELU's output and derivative are
        rebuilt from the cached tanh, and every temporary here, the
        feed-forward hidden's size, is freed on return."""
        dz = dcur if lc["ff_drop"] is None else dcur * lc["ff_drop"]
        g, du = _gelu_back(lc["u"], lc["tanh"])
        dw2, db2, dg = _linear_back(g, params[f"{p}.ff.w2"], dz)
        grads[f"{p}.ff.w2"] = dw2
        grads[f"{p}.ff.b2"] = db2
        du *= dg
        dw1, db1, df = _linear_back(lc["f"], params[f"{p}.ff.w1"], du)
        grads[f"{p}.ff.w1"] = dw1
        grads[f"{p}.ff.b1"] = db1
        dmid_ln, dgain2, dbias2 = _rms_backward(df, params[f"{p}.norm2.gain"], lc["ln2"])
        grads[f"{p}.norm2.gain"] = dgain2
        grads[f"{p}.norm2.bias"] = dbias2
        return dcur + dmid_ln

    for i in reversed(range(config.n_layers)):
        p = f"layer{i}"
        lc = cache["layers"][i]
        repeats = variants if i == 0 else None

        dmid = ff_back(lc, p, dcur)
        dattn = dmid if lc["attn_drop"] is None else dmid * lc["attn_drop"]
        dwo, dbo, docat = _linear_back(lc["ocat"], params[f"{p}.attn.wo"], dattn)
        grads[f"{p}.attn.wo"] = dwo
        grads[f"{p}.attn.bo"] = dbo
        attention_back = cls_attention_back if i == config.n_layers - 1 else self_attention_back
        da = attention_back(lc, p, docat, repeats)
        if repeats is not None:
            dmid = to_rows(dmid)
        dcur, dgain1, dbias1 = _rms_backward(da, params[f"{p}.norm1.gain"], lc["ln1"])
        grads[f"{p}.norm1.gain"] = dgain1
        grads[f"{p}.norm1.bias"] = dbias1
        dcur[:, : dmid.shape[1]] += dmid

    if cache["emb_drop"] is not None:
        dcur *= cache["emb_drop"]
    dx, dgain_e, dbias_e = _rms_backward(dcur, params["emb_norm.gain"], cache["emb"])
    grads["emb_norm.gain"] = dgain_e
    grads["emb_norm.bias"] = dbias_e

    # Dropped columns have zero gradient, so their rows stay zero.
    grads["tok_emb"] = _scatter_rows(cache["ids"], dx[:, :width], config.vocab_size)
    dpos = np.zeros_like(params["pos_emb"])
    dpos[:width] = dx[:, :width].sum(axis=0)
    dpos[lm] = dx[:, width].sum(axis=0)
    grads["pos_emb"] = dpos
    slot_fill_grad = dx[:, width, :].sum(axis=-1)
    return grads, slot_fill_grad


def _header(shapes) -> bytes:
    """What a checkpoint holds before its tensors: the magic, the length of
    the JSON manifest and the manifest, which gives each tensor of
    ``shapes`` (name to shape) its name, shape and dtype ``<f8``."""
    manifest = {"tensors": [{"name": name, "shape": list(shape), "dtype": "<f8"}
                            for name, shape in shapes.items()]}
    payload = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return CHECKPOINT_MAGIC + len(payload).to_bytes(8, "little") + payload


def save_params(params: dict[str, np.ndarray], path) -> None:
    """Flat binary checkpoint: ``_header``, then the raw tensors in order."""
    with replacing(path, "wb") as fh:
        fh.write(_header({name: tensor.shape for name, tensor in params.items()}))
        for tensor in params.values():
            fh.write(np.ascontiguousarray(tensor, dtype="<f8").tobytes())


def load_params(path, config: ModelConfig) -> dict[str, np.ndarray]:
    """The tensors of the ``config`` checkpoint at ``path`` in
    ``param_shapes`` order, named views into one vector. The file must be
    exactly what ``save_params`` writes for those tensors, every value
    finite; anything else is a one-line ``ContractError`` naming it."""
    p = Path(path)
    if not p.exists():
        raise ContractError(f"checkpoint not found: {p}")
    shapes = param_shapes(config)
    header = _header(shapes)
    blob = p.read_bytes()
    if not blob.startswith(header):
        raise ContractError(f"{p} is not a checkpoint of the given config (its header differs)")
    size = len(header) + 8 * sum(math.prod(shape) for shape in shapes.values())
    if len(blob) != size:
        raise ContractError(f"checkpoint {p} has {len(blob)} bytes, its config needs {size}")
    flat = np.frombuffer(blob, dtype="<f8", offset=len(header)).copy()
    if not np.isfinite(flat).all():
        raise ContractError(f"checkpoint {p} holds non-finite values")
    return _views(flat, shapes)
