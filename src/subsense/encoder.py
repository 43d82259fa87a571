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
only those, as ``dx = r * (dxhat - xhat * (dxhat . xhat) / d)``.

An inference pass keeps no caches, and given a workspace it allocates no
activation either: it writes each into a view of a named flat buffer that
the caller keeps across batches, and the buffers hold the pass's live set,
no more. In slots of ``max(rows, variants) * (width + 1) * d_model``
floats, ``h`` (one slot) holds the residual stream and ``norm`` (one slot)
each norm's output and the merged heads. ``act`` holds Q, K and V in
slots 0, 1 and 2; once attention is done, the attention output, the
residual stream's next value, takes slot 0, and the feed-forward hidden
slots 1 on, running past slot 2 when ``d_ff > 2 * d_model``. GELU
overwrites the hidden, and its temporary reuses the scores block. At most
``h``, norm1's output, Q, K and V are live at once, so five slots are the
least that whole-batch products can run in. The token embedding is
gathered into ``h`` in blocks of rows, so a warm pass makes no temporary
of a slot's size; only layer 0's gather of the variants (below) copies.
Fresh arrays cost more than their arithmetic at long rows: the allocator
maps each multi-megabyte temporary anew, or returns it to the operating
system when the heap is trimmed, so every batch would fault its pages in
again. Training writes fresh arrays, because its cache keeps them for the
backward pass, where a reused buffer would be overwritten. Every in-place
step computes the products and sums of the expression it replaces in the
same order, at most with the two operands of one product or sum swapped,
so a workspace changes no bit.

Attention runs one block of whole batch rows at a time, all heads together,
as many rows as fit ``_BLOCK_BYTES`` of scores and at least one, and GELU
runs through a temporary of one block of rows too. So a pass holds one
block of scores, not a batch's ``(rows, heads, width + 1, width + 1)``.
This is exact: rows never meet inside attention, each head of each row is
its own matrix product, and each softmax reduction runs along one row's
keys, so a block gets the bits the whole batch would. Splitting one row's
queries would not be exact, since a smaller product may round differently,
and tiling the keys with an online softmax (FlashAttention) would reorder
the sums; neither is done. Training caches each layer's queries, keys and
values, not its probabilities: the backward pass recomputes each block's
probabilities with the same operations, so they are the forward pass's
bits, and forms that block's gradients from them. At max_len 16 a batch
is one block. Each block's ``probs @ v`` goes straight into its rows of
the merged-heads array, each head into its own columns, and the backward
pass writes ``dq``, ``dk`` and ``dv`` the same way, so no copy merges the
heads.

Only CLS reaches the head, so the last block computes keys and values for
every position but its queries, attention output, residual, second norm and
feed-forward for the CLS row alone, and the final norm sees only CLS. This
is exact, not an approximation: norms, projections, the feed-forward and the
residual act on each position independently, and attention lets other
positions reach CLS only through their keys and values, which are still
computed for all of them. Results differ from a full-sequence pass only by
the rounding of differently shaped matrix products.

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
``ids`` and ``fill`` hold one row per comment, ``kmask`` one key mask per
variant and ``src`` the row of each variant. A key mask does not change the embedding, ``emb_norm``,
layer 0's ``norm1`` or its Q, K and V, so these run once per row. Right
after layer 0's Q, K and V, the queries, keys, values and the residual are
gathered by ``src``, and all that follows runs per variant; with no layer,
the gather comes before the final norm. The backward pass sums the
variants' gradients back onto their rows at the same points, with the
bincount that also sums the token-embedding gradient. A plain batch has
``src`` ``None``: nothing is gathered or summed, so it runs the same
operations it always did.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .atomic import replacing
from .errors import ConfigError, ContractError, ResourceError, check_fields

CHECKPOINT_MAGIC = b"SSENCPT1"
_NORM_EPS = 1e-9
_GELU_C = float(np.sqrt(2.0 / np.pi))
_GELU_A = 0.044715
# Attention scores and GELU's temporary are computed, and the token
# embedding gathered, in blocks of whole batch rows that fit this many bytes.
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
            raise ConfigError("max_len must be at least 3")
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must cover the specials")
        if self.d_model <= 0 or self.d_ff <= 0 or self.n_heads <= 0:
            raise ConfigError("model dimensions must be positive")
        if self.n_layers < 0:
            raise ConfigError("n_layers must be non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0,1)")

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
    # With xhat = x * r: dx = r * dxhat - r**3 / d * x * (dxhat . x)
    #                       = r * (dxhat - xhat * (dxhat . xhat) / d).
    xhat, r = cache
    d = xhat.shape[-1]
    dgain = (dy * xhat).reshape(-1, d).sum(axis=0)
    dbias = dy.reshape(-1, d).sum(axis=0)
    dxhat = dy * gain
    inner = np.einsum("...i,...i->...", dxhat, xhat)[..., None]
    dx = r * (dxhat - xhat * inner / d)
    return dx, dgain, dbias


# Powers are written as products: numpy computes ``u**3`` through ``pow``,
# which is many times slower than ``u * u * u``.
def _gelu(u, out, work):
    """GELU of ``u`` written into ``out``, which may be ``u``; ``work``, of
    ``u``'s shape, is overwritten. Each step is a product or sum of
    ``0.5 * u * (1 + tanh(C * (u + A * u * u * u)))`` in the order that
    expression evaluates, at most with its two operands swapped, so the
    result is the same bits."""
    t = np.multiply(u, _GELU_A, out=work)
    t *= u
    t *= u
    t += u
    t *= _GELU_C
    np.tanh(t, out=t)
    t += 1.0
    np.multiply(u, 0.5, out=out)
    out *= t
    return out


def _gelu_grad(u):
    t = np.tanh(_GELU_C * (u + _GELU_A * u * u * u))
    return 0.5 * (1.0 + t) + 0.5 * u * (1.0 - t * t) * _GELU_C * (1.0 + 3.0 * _GELU_A * u * u)


def _split_heads(x, n_heads):
    b, length, d = x.shape
    return x.reshape(b, length, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _row_blocks(n, row_size):
    """Slices that cut ``n`` batch rows into blocks of whole rows, each of
    ``row_size`` float64 entries, as many rows as fit ``_BLOCK_BYTES`` and at
    least one; returns them with the rows of the largest block."""
    step = max(1, min(n, _BLOCK_BYTES // (8 * row_size)))
    return [slice(start, start + step) for start in range(0, n, step)], step


def _attention_probs(q, k, add_mask, out):
    """Each head's softmax over the keys ``k`` of the queries ``q``, the
    scaled scores plus ``add_mask`` (0 or ``-inf`` per key), written in place
    into the first ``len(q)`` rows of ``out``."""
    scores = np.matmul(q, k.transpose(0, 1, 3, 2), out=out[: len(q)])
    scores /= np.sqrt(q.shape[-1])
    scores += add_mask
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores, out=scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def _dropout_mask(rng, shape, rate):
    """Inverted dropout mask of ``shape``: ``1 / (1 - rate)`` where a uniform
    draw falls below ``1 - rate``, else 0."""
    keep = 1.0 - rate
    return (rng.random(shape) < keep) / keep


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
    column the slot, and ``src`` the row of each variant; ``None`` means one
    variant per row, in row order."""

    ids: np.ndarray
    fill: np.ndarray
    kmask: np.ndarray
    extent: np.ndarray
    src: np.ndarray | None = None

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


def _query_rows(layer: int, config: ModelConfig):
    """Positions a block computes queries, residual and FF for: only CLS in
    the last block, since nothing after it reads any other position."""
    return slice(0, 1) if layer == config.n_layers - 1 else slice(None)


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
    slot each, ``act`` ``1 + max(2, d_ff / d_model)`` and ``scores``
    ``_BLOCK_BYTES``, or one row's scores or feed-forward hidden if more.
    Nothing is written over an activation that is still to be read. A
    buffer grows only when a call needs more, so calls in descending order
    of ``rows * (width + 1)`` are all sized by the first, save the scores
    block when a later batch is wider and one row's scores pass
    ``_BLOCK_BYTES``.
    """
    if train_mode and workspace is not None:
        raise ContractError("a train_mode forward keeps its activations in its cache; "
                            "it takes no workspace")
    ids, kmask, fill, src = batch.ids, batch.kmask, batch.fill, batch.src
    b, width = ids.shape
    lm, d, d_ff = config.max_len, config.d_model, config.d_ff
    use_dropout = train_mode and config.dropout_rate > 0.0 and dropout_rng is not None
    slot = max(b, len(kmask)) * (width + 1) * d

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
        for name, size in (("h", slot), ("norm", slot), ("scores", _BLOCK_BYTES // 8),
                           ("act", slot + max(2 * slot, slot // d * d_ff))):
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

    add_mask = np.where(kmask[:, None, None, :], 0.0, -np.inf)
    layer_caches = []
    for i in range(config.n_layers):
        p = f"layer{i}"
        rows = _query_rows(i, config)
        a, ln1_cache = norm(h, f"{p}.norm1", "norm")
        q, k, v = project(a[:, rows], p, "q", 0), project(a, p, "k", 1), project(a, p, "v", 2)
        res = h[:, rows]
        if i == 0 and src is not None:  # from here on, each variant runs apart
            q, k, v, res = q[src], k[src], v[src], res[src]
        nb, n_heads, n_rows, _ = q.shape
        # Scores and softmax in place, one block of whole rows at a time.
        blocks, step = _row_blocks(nb, n_heads * n_rows * (width + 1))
        scores = buf("scores", (step, n_heads, n_rows, width + 1))
        ocat = buf("norm", (nb, n_rows, d))
        pv = _split_heads(ocat, n_heads)  # each head writes its columns of ocat
        for r in blocks:
            probs = _attention_probs(q[r], k[r], add_mask[r], scores)
            np.matmul(probs, v[r], out=pv[r])
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
        # which the scores block, dead by now, holds.
        g = np.empty_like(u) if train_mode else u
        blocks, step = _row_blocks(nb, n_rows * d_ff)
        work = buf("scores", (step, n_rows, d_ff))
        for r in blocks:
            x = u[r]
            _gelu(x, g[r], work[: len(x)])
        z = np.matmul(g, params[f"{p}.ff.w2"], out=buf("h", h.shape))
        z += params[f"{p}.ff.b2"]
        ff_drop = drop(z)
        z += h
        h = z

        if train_mode:
            layer_caches.append({
                "ln1": ln1_cache, "a": a, "q": q, "k": k, "v": v, "ocat": ocat,
                "attn_drop": attn_drop, "ln2": ln2_cache, "f": f, "u": u, "g": g,
                "ff_drop": ff_drop,
            })

    h = h[:, 0]
    if not config.n_layers and src is not None:
        h = h[src]
    cls, final_cache = norm(h, "final_norm", "norm")
    logits = cls @ params["head.w"] + params["head.b"]

    if not train_mode:
        return logits, None
    cache = {
        "ids": ids, "kmask": kmask, "add_mask": add_mask, "fill": fill, "src": src,
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
    src = cache["src"]
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

    def to_rows(x):
        """Each variant's gradient summed onto its row."""
        return _scatter_rows(src, x.reshape(len(src), -1), b).reshape((b,) + x.shape[1:])

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
        if src is not None:
            dcls_in = to_rows(dcls_in)
        dcur = np.zeros((b, width + 1, d))
        dcur[:, 0] = dcls_in

    for i in reversed(range(config.n_layers)):
        p = f"layer{i}"
        lc = cache["layers"][i]
        rows = _query_rows(i, config)

        dz = dcur if lc["ff_drop"] is None else dcur * lc["ff_drop"]
        dw2, db2, dg = _linear_back(lc["g"], params[f"{p}.ff.w2"], dz)
        grads[f"{p}.ff.w2"] = dw2
        grads[f"{p}.ff.b2"] = db2
        du = dg * _gelu_grad(lc["u"])
        dw1, db1, df = _linear_back(lc["f"], params[f"{p}.ff.w1"], du)
        grads[f"{p}.ff.w1"] = dw1
        grads[f"{p}.ff.b1"] = db1
        dmid_ln, dgain2, dbias2 = _rms_backward(df, params[f"{p}.norm2.gain"], lc["ln2"])
        grads[f"{p}.norm2.gain"] = dgain2
        grads[f"{p}.norm2.bias"] = dbias2
        dmid = dcur + dmid_ln

        dattn = dmid if lc["attn_drop"] is None else dmid * lc["attn_drop"]
        dwo, dbo, docat = _linear_back(lc["ocat"], params[f"{p}.attn.wo"], dattn)
        grads[f"{p}.attn.wo"] = dwo
        grads[f"{p}.attn.bo"] = dbo
        do = _split_heads(docat, config.n_heads)
        q, k, v = lc["q"], lc["k"], lc["v"]
        nb, n_heads, n_rows, _ = q.shape
        dq, dk, dv = (np.empty((nb, x.shape[2], d)) for x in (q, k, v))
        # Each head's gradient goes into its columns of dq, dk and dv.
        dq_h, dk_h, dv_h = (_split_heads(x, n_heads) for x in (dq, dk, dv))
        blocks, step = _row_blocks(nb, n_heads * n_rows * (width + 1))
        scores, dprobs, work = (np.empty((step, n_heads, n_rows, width + 1)) for _ in range(3))
        for r in blocks:
            probs = _attention_probs(q[r], k[r], add_mask[r], scores)
            m = len(probs)
            dp = np.matmul(do[r], v[r].transpose(0, 1, 3, 2), out=dprobs[:m])
            np.matmul(probs.transpose(0, 1, 3, 2), do[r], out=dv_h[r])
            # Softmax backward, in place in dp; masked columns carry
            # probability 0 so their score gradient vanishes identically.
            dp -= np.multiply(dp, probs, out=work[:m]).sum(axis=-1, keepdims=True)
            dscores = np.multiply(probs, dp, out=dp)
            np.matmul(dscores, k[r], out=dq_h[r])
            np.matmul(dscores.transpose(0, 1, 3, 2), q[r], out=dk_h[r])
        dq /= np.sqrt(dh)
        dk /= np.sqrt(dh)
        if i == 0 and src is not None:
            dq, dk, dv, dmid = to_rows(dq), to_rows(dk), to_rows(dv), to_rows(dmid)

        a = lc["a"]
        da = np.zeros_like(a)
        for name, dten, in_rows in (("wq", dq, rows), ("wk", dk, slice(None)),
                                    ("wv", dv, slice(None))):
            dw, db, dx = _linear_back(a[:, in_rows], params[f"{p}.attn.{name}"], dten)
            grads[f"{p}.attn.{name}"] = dw
            grads[f"{p}.attn.b{name[1]}"] = db
            da[:, in_rows] += dx
        dcur, dgain1, dbias1 = _rms_backward(da, params[f"{p}.norm1.gain"], lc["ln1"])
        grads[f"{p}.norm1.gain"] = dgain1
        grads[f"{p}.norm1.bias"] = dbias1
        dcur[:, rows] += dmid

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
        raise ResourceError(f"checkpoint not found: {p}")
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
