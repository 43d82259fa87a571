"""Outside-in tracing of the subsense modules.

``Tracer.install`` replaces each traced function with a wrapper at every
place it is bound: the defining module and every other ``subsense`` module
that imported it by name (``trainer`` binds ``forward``, ``score``,
``detect`` and more; ``audit`` binds ``detect`` and ``score``). Each call
records a span (name, start, end, parent span) in memory; ``restore`` puts
the originals back. ``layer_metrics`` turns the spans into per-layer busy
times, call counts and self times.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from array import array
from contextlib import contextmanager

# (module, function) pairs traced; the layer name is "<module>.<function>".
TRACED = (
    ("encoder", "forward"), ("encoder", "backward"),
    ("encoder", "save_params"), ("encoder", "load_params"),
    ("trainer", "train"), ("trainer", "prepare_examples"),
    ("trainer", "predict_batch"), ("trainer", "validation_f1"),
    ("trainer", "_soc_loss_and_grads"),
    ("subjectivity", "score"), ("identity", "detect"),
    ("textprep", "word_split"), ("textprep", "encode"), ("textprep", "build_vocab"),
    ("augment", "augment"),
    ("audit", "audit_report"), ("audit", "bias_groups"), ("audit", "error_listing"),
    ("datasets", "synth_generate"), ("datasets", "split"), ("datasets", "read_canonical"),
)
CLI_COMMANDS = ("synth", "split", "train", "eval", "audit", "compare")


class Tracer:
    """In-memory span recorder. Spans are kept in flat arrays so that the
    hundreds of thousands of feature-prep calls of a large run stay small."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.clock = time.perf_counter  # replaceable by a clock that skips sampling time
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        # Rows and masked positions of each encoder.forward batch, else 0.
        self.rows = array("q")
        self.masked = array("q")
        self.positions = array("q")
        self.padding_measured = True
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.rows.append(0)
        self.masked.append(0)
        self.positions.append(0)
        self._stack.append(sid)
        self.start[sid] = self.clock()
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(self._name_id(name))
        try:
            yield sid
        finally:
            self._close(sid)

    def _count_batch(self, sid: int, args, kwargs) -> None:
        """Rows and masked key positions of a forward batch, from its masks."""
        batch = args[0] if args else kwargs.get("batch")
        config = args[2] if len(args) > 2 else kwargs.get("config")
        try:
            seq_len = config.seq_len
            masked = sum(seq_len - ex.base.n_real - ex.slot_mask for ex in batch)
            self.rows[sid] = len(batch)
        except (AttributeError, TypeError):
            self.padding_measured = False
            return
        self.masked[sid] = masked
        self.positions[sid] = len(batch) * seq_len

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        count_batch = name == "encoder.forward"

        def traced(*args, **kwargs):
            sid = self._open(name_id)
            try:
                if count_batch:
                    self._count_batch(sid, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                self._close(sid)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced function wherever a subsense module binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "subsense" or n.startswith("subsense."))]
        for mod_name, fn_name in TRACED:
            home = sys.modules.get(f"subsense.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        """Spans as gzipped CSV: id, parent, name, start, end, run id."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,parent,name,start,end,run\n")
            for sid in range(len(self.start)):
                fh.write(f"{sid},{self.parent[sid]},{self.names[self.name_of[sid]]},"
                         f"{self.start[sid]!r},{self.end[sid]!r},{self.run_id}\n")


def _percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(tracer: Tracer, n_comments: int) -> dict[str, float]:
    """Per-layer busy time, calls and derived ratios from recorded spans.

    A layer's busy time sums its outermost spans. Self time is a span's
    duration minus the durations of its direct children. ``n_comments`` is
    the number of comments in the workload's input CSVs.
    """
    names = tracer.names
    n = len(tracer.start)
    dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
    name_of = [names[tracer.name_of[i]] for i in range(n)]
    parent = tracer.parent
    child_time = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child_time[parent[i]] += dur[i]

    def ancestors(i):
        p = parent[i]
        while p >= 0:
            yield p
            p = parent[p]

    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in range(n):
        name = name_of[i]
        calls[name] = calls.get(name, 0) + 1
        if not any(name_of[a] == name for a in ancestors(i)):
            busy[name] = busy.get(name, 0.0) + dur[i]

    m: dict[str, float] = {}
    for mod_name, fn_name in TRACED:
        name = f"{mod_name}.{fn_name}"
        if fn_name == "_soc_loss_and_grads":
            m["trainer.soc_s"] = busy.get(name, 0.0)
        else:
            m[f"{name}_s"] = busy.get(name, 0.0)

    fwd = [i for i in range(n) if name_of[i] == "encoder.forward"]
    fwd_ms = [dur[i] * 1e3 for i in fwd]
    m["encoder.forward_calls"] = len(fwd)
    m["encoder.forward_rows"] = sum(tracer.rows[i] for i in fwd)
    m["encoder.forward_ms_p50"] = statistics.median(fwd_ms) if fwd_ms else 0.0
    m["encoder.forward_ms_p99"] = _percentile(fwd_ms, 0.99)
    m["encoder.backward_calls"] = calls.get("encoder.backward", 0)
    positions = sum(tracer.positions[i] for i in fwd)
    m["encoder.padded_share"] = sum(tracer.masked[i] for i in fwd) / positions if positions else 0.0

    train_spans = [i for i in range(n) if name_of[i] == "trainer.train"]
    m["trainer.self_s"] = sum(dur[i] - child_time[i] for i in train_spans)
    steps = sum(1 for i in fwd if parent[i] >= 0 and name_of[parent[i]] == "trainer.train")
    m["trainer.steps"] = steps
    train_rows = soc_rows = 0
    for i in fwd:
        chain = [name_of[a] for a in ancestors(i)]
        if "trainer.train" in chain and "trainer.validation_f1" not in chain:
            train_rows += tracer.rows[i]
        if "trainer._soc_loss_and_grads" in chain:
            soc_rows += tracer.rows[i]
    m["trainer.forward_rows_per_step"] = train_rows / steps if steps else 0.0
    m["trainer.soc_forward_rows"] = soc_rows

    m["subjectivity.score_calls_per_comment"] = calls.get("subjectivity.score", 0) / n_comments
    m["identity.detect_calls_per_comment"] = calls.get("identity.detect", 0) / n_comments

    cli_self = 0.0
    for command in CLI_COMMANDS:
        spans = [i for i in range(n) if name_of[i] == f"cli.{command}"]
        m[f"cli.{command}_s"] = sum(dur[i] for i in spans)
        cli_self += sum(dur[i] - child_time[i] for i in spans)
    m["cli.self_s"] = cli_self
    return m


def call_counts(tracer: Tracer) -> dict[str, int]:
    counts: dict[str, int] = {}
    for i in range(len(tracer.start)):
        name = tracer.names[tracer.name_of[i]]
        counts[name] = counts.get(name, 0) + 1
    return counts
