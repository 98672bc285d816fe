"""Span recording around the library's public calls, from outside the library.

``Tracer.install`` replaces each function or method in ``SURFACE`` with a
wrapper that records a span (name, start, end, parent) and per-op counts,
everywhere the linesift modules reference it; ``uninstall`` puts the
originals back. Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import json
import math
import sys
import time
from functools import wraps

import numpy as np

# the layers; install() looks each one up in sys.modules
import linesift.checkpoint
import linesift.corpus
import linesift.encoding
import linesift.finetune
import linesift.model
import linesift.pooling
import linesift.pretrain
import linesift.tensor
import linesift.transformer

# Layer (module) -> wrapped public names; "Class.method" wraps a method.
# Per-token or per-line helpers (tokenize_line, Vocab.encode_token) are left
# out: their cost is a few microseconds, below what a span can resolve.
SURFACE = {
    "corpus": ("load_corpus", "save_corpus", "split"),
    "encoding": ("build_vocab", "encode", "correspondence_apply",
                 "Vocab.save", "Vocab.load"),
    "checkpoint": ("save_tensors", "load_tensors"),
    "model": ("save_bundle", "load_bundle", "HierarchicalModel.__init__",
              "HierarchicalModel.encode_tokens", "HierarchicalModel.encode_program",
              "HierarchicalModel.encode_batch", "HierarchicalModel.state_arrays",
              "HierarchicalModel.load_state"),
    "transformer": ("TokenEncoder.forward", "StatementEncoder.forward"),
    "pooling": ("AveragePool.apply", "WeightedPool.apply", "AttentionPool.apply"),
    "finetune": ("finetune_run", "finetune_loss", "predict",
                 "DetectionHeads.__init__", "DetectionHeads.coarse_logits_raw",
                 "DetectionHeads.fine_logits_raw", "DetectionHeads.coarse_probabilities",
                 "DetectionHeads.fine_probabilities"),
    "pretrain": ("pretrain_run", "msp_loss", "mlm_loss", "make_mask_plan",
                 "apply_mask_plan", "MspDecoder.__init__", "MspDecoder.sequence_loss",
                 "MlmHead.__init__", "MlmHead.logits"),
    "tensor": ("add", "mul", "scale", "matmul", "transpose", "reshape", "rows",
               "concat_rows", "concat_cols", "gather_rows", "embedding_lookup",
               "softmax_rows", "layer_norm", "gelu", "sigmoid", "tanh", "dropout",
               "span_combine", "cross_entropy", "tensor_sum", "Tensor.backward",
               "adamw_step"),
}
LAYERS = tuple(SURFACE)
TENSOR_OPS = frozenset(f"tensor.{n}" for n in SURFACE["tensor"]
                       if n not in ("Tensor.backward", "adamw_step"))


def _modules():
    return [m for name, m in sys.modules.items()
            if (name == "linesift" or name.startswith("linesift.")) and m is not None]


def replace_everywhere(original, replacement) -> None:
    """Point every linesift module global that is ``original`` at ``replacement``."""
    for mod in _modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


class SpanBuffer:
    """Spans as rows (name id, start ns, end ns, parent row) of one int64 array.

    The array is allocated up front, so recording a span allocates nothing
    on the heap the program takes its tensors from; the program's speed
    depends on that heap's layout (see README.md).
    """

    def __init__(self, capacity: int = 1 << 21):
        self.rows = np.empty((capacity, 4), dtype=np.int64)
        self.used = 0

    def reserve(self) -> int:
        if self.used == self.rows.shape[0]:
            grown = np.empty((2 * self.rows.shape[0], 4), dtype=np.int64)
            grown[:self.used] = self.rows
            self.rows = grown
        self.used += 1
        return self.used - 1

    def view(self) -> np.ndarray:
        return self.rows[:self.used]


class Tracer:
    """In-memory span recorder with per-phase span buffers and counters."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.phases: dict[str, SpanBuffer] = {}
        self.counts: dict[str, dict[str, float]] = {}
        self._spans: SpanBuffer | None = None
        self._counts: dict[str, float] | None = None
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording -------------------------------------------------------

    def begin(self, phase: str) -> None:
        """Start (or continue) recording spans under ``phase``."""
        if phase not in self.phases:
            self.phases[phase] = SpanBuffer()
        self._spans = self.phases[phase]
        self._counts = self.counts.setdefault(phase, {})
        self._stack = []

    def end(self) -> None:
        self._spans = None
        self._counts = None

    def _count(self, key: str, amount: float) -> None:
        self._counts[key] = self._counts.get(key, 0.0) + amount

    def _wrap(self, layer: str, qualname: str, fn):
        name = f"{layer}.{qualname}"
        if name not in self.names:  # ids stay stable across re-installs
            self.names.append(name)
            self.layer_of.append(layer)
        name_id = self.names.index(name)
        counter = _COUNTERS.get(name)
        is_op = name in TENSOR_OPS
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            spans = self._spans
            if spans is None:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1] if stack else -1
            row = spans.reserve()
            stack.append(row)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.rows[row] = (name_id, start, end, parent)
            if is_op:
                self._count("tensor.ops", 1)
                if getattr(out, "_backward", None) is not None:
                    self._count("tensor.graph_ops", 1)
            if counter is not None:
                counter(self, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, names in SURFACE.items():
            mod = sys.modules[f"linesift.{layer}"]
            for qualname in names:
                if "." in qualname:
                    cls_name, meth = qualname.split(".")
                    cls = getattr(mod, cls_name)
                    original = cls.__dict__[meth]
                    if isinstance(original, classmethod):
                        wrapper = classmethod(self._wrap(layer, qualname, original.__func__))
                    else:
                        wrapper = self._wrap(layer, qualname, original)
                    setattr(cls, meth, wrapper)
                    self._undo.append((cls, meth, original, None))
                else:
                    original = getattr(mod, qualname)
                    wrapper = self._wrap(layer, qualname, original)
                    replace_everywhere(original, wrapper)
                    self._undo.append((None, qualname, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, wrapper in reversed(self._undo):
            if owner is not None:
                setattr(owner, attr, original)
            else:
                replace_everywhere(wrapper, original)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self, phase: str):
        """(name ids, start ns, end ns, parent row) of one phase's spans."""
        a = self.phases[phase].view() if phase in self.phases else np.zeros((0, 4), np.int64)
        return a[:, 0], a[:, 1], a[:, 2], a[:, 3]

    def summary(self, phase: str) -> "PhaseSummary":
        return PhaseSummary(self, phase)

    def dump(self, path: str, meta: dict) -> None:
        """Write every span as one compact JSON document."""
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": self.names,
                       "columns": ["name", "start_ns", "end_ns", "parent"],
                       "phases": {k: b.view().tolist() for k, b in self.phases.items()},
                       "counts": self.counts}, fh,
                      separators=(",", ":"))
            fh.write("\n")


class PhaseSummary:
    """Self times, group-inclusive times and counts over one phase."""

    def __init__(self, tracer: Tracer, phase: str):
        self.tracer = tracer
        self.counts = dict(tracer.counts.get(phase, {}))
        ids, start, end, parent = tracer.arrays(phase)
        self.ids, self.parent = ids, parent
        self.duration = (end - start).astype(np.float64) * 1e-9
        child = np.zeros_like(self.duration)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child
        self.top_level_s = float(self.duration[~has_parent].sum())
        self.span_count = int(ids.shape[0])
        self._name_ids = {n: i for i, n in enumerate(tracer.names)}

    def _mask(self, names) -> np.ndarray:
        wanted = [self._name_ids[n] for n in names if n in self._name_ids]
        return np.isin(self.ids, wanted)

    def layer_self_s(self, layer: str) -> float:
        layers = np.array([of == layer for of in self.tracer.layer_of], dtype=bool)
        if not self.span_count:
            return 0.0
        return float(self.self_time[layers[self.ids]].sum())

    def self_s(self, names) -> float:
        return float(self.self_time[self._mask(names)].sum())

    def inclusive_s(self, names, within=None) -> float:
        """Time in spans named ``names`` that have no ancestor among them,
        optionally only those with an ancestor named in ``within``."""
        member = self._mask(names)
        inside_member = self._ancestor_flags(member)
        keep = member & ~inside_member
        if within is not None:
            keep &= self._ancestor_flags(self._mask(within))
        return float(self.duration[keep].sum())

    def _ancestor_flags(self, member: np.ndarray) -> np.ndarray:
        # parents precede children in the span list, so one forward pass works
        m = member.tolist()
        flags = [False] * len(m)
        for i, p in enumerate(self.parent.tolist()):
            if p >= 0:
                flags[i] = flags[p] or m[p]
        return np.array(flags, dtype=bool)


# -- per-call counters -------------------------------------------------------


def _count_matmul(tracer, args, kwargs, out):
    a, b = args[0], args[1]
    tracer._count("tensor.matmul_flop", 2.0 * a.shape[0] * a.shape[1] * b.shape[1])


def _count_segments(tracer, args, kwargs, out):
    tracer._count("transformer.token_encoder.segments", 1)


def _count_statements(tracer, args, kwargs, out):
    statement_inputs = args[1] if len(args) > 1 else kwargs["statement_inputs"]
    tracer._count("transformer.statement_encoder.statements", statement_inputs.shape[0])


def _count_decoded(tracer, args, kwargs, out):
    tracer._count("pretrain.decoded_lines", 1)
    tracer._count("pretrain.decoded_tokens", out[1])


def _count_saved(tracer, args, kwargs, out):
    arrays = args[1] if len(args) > 1 else kwargs["arrays"]
    tracer._count("checkpoint.bytes",
                  sum(8 * math.prod(np.shape(v)) for v in arrays.values()))


def _count_loaded(tracer, args, kwargs, out):
    tracer._count("checkpoint.bytes", sum(v.nbytes for v in out.values()))


_COUNTERS = {
    "tensor.matmul": _count_matmul,
    "transformer.TokenEncoder.forward": _count_segments,
    "transformer.StatementEncoder.forward": _count_statements,
    "pretrain.MspDecoder.sequence_loss": _count_decoded,
    "checkpoint.save_tensors": _count_saved,
    "checkpoint.load_tensors": _count_loaded,
}
