"""Shared test helpers: gradient checking, synthetic corpora and encoded
samples."""

import importlib.resources as resources

import numpy as np
import pytest

from linesift.corpus import FunctionSample
from linesift.encoding import CLS, EncodedSample, RESERVED_TOKENS


def pick_elements(rng, name, shape, count, head_dim=None):
    """Flat indices of ``count`` random elements of a tensor.

    With ``head_dim``, a fused attention projection (a name ending in
    ``wqkv``) gets ``count`` elements in each [d x head_dim] column block,
    i.e. as many per head projection as a separate per-head tensor would.
    """
    size = int(np.prod(shape))
    if head_dim is None or not name.endswith("wqkv"):
        return [int(f) for f in rng.choice(size, size=min(count, size), replace=False)]
    rows, cols = shape
    picks = []
    for start in range(0, cols, head_dim):
        for flat in rng.choice(rows * head_dim, size=count, replace=False):
            row, col = divmod(int(flat), head_dim)
            picks.append(row * cols + start + col)
    return picks


def finite_difference_failures(
    loss_fn, params, rng, elements_per_tensor=3, step=1e-5, rtol=1e-4, atol=1e-7,
    head_dim=None,
):
    """Central finite differences against stored analytic grads.

    ``loss_fn`` re-runs the forward pass and returns a float; each tensor's
    ``.grad`` must already hold the analytic gradient of that loss. Elements
    are chosen by ``pick_elements``. Returns a list of (name, flat_index,
    analytic, numeric) tuples that fail |a - n| <= rtol * max(|a|, |n|) + atol.
    """
    failures = []
    for name, p in params.items():
        picks = pick_elements(rng, name, p.data.shape, elements_per_tensor,
                              head_dim)
        for flat in picks:
            orig = p.data.flat[flat]
            p.data.flat[flat] = orig + step
            up = loss_fn()
            p.data.flat[flat] = orig - step
            down = loss_fn()
            p.data.flat[flat] = orig
            numeric = (up - down) / (2.0 * step)
            analytic = p.grad.flat[flat] if p.grad is not None else 0.0
            if abs(analytic - numeric) > rtol * max(abs(analytic), abs(numeric)) + atol:
                failures.append((name, flat, analytic, numeric))
    return failures


def gradients_after(params, run):
    """Zero ``params``' grads, call ``run`` (which leaves gradients in
    ``.grad`` and returns the loss value), and return (value, {name: a copy
    of the gradient, or None})."""
    for p in params.values():
        p.zero_grad()
    value = run()
    return value, {name: None if p.grad is None else p.grad.copy()
                   for name, p in params.items()}


def assert_same_gradients(expected, actual, atol):
    """Both maps hold a gradient for the same names, each within ``atol``."""
    assert {k for k, g in actual.items() if g is None} \
        == {k for k, g in expected.items() if g is None}
    for name, g in expected.items():
        if g is not None:
            assert np.max(np.abs(actual[name] - g)) <= atol, name


def make_encoded(
    rng: np.random.Generator,
    n_tokens: int,
    vocab_size: int = 64,
    max_line_tokens: int = 12,
    label: int = 1,
    sample_id: str = "synthetic",
) -> EncodedSample:
    """Random EncodedSample built directly: random ids, spans tiling [1, n)."""
    n_reserved = len(RESERVED_TOKENS)
    ids = rng.integers(n_reserved, vocab_size, size=n_tokens)
    ids[0] = CLS
    spans = []
    cursor = 1
    while cursor < n_tokens:
        width = int(rng.integers(1, max_line_tokens + 1))
        width = min(width, n_tokens - cursor)
        spans.append((cursor, cursor + width))
        cursor += width
        if len(spans) == 512 and cursor < n_tokens:
            # grow the last span instead of exceeding the statement cap
            spans[-1] = (spans[-1][0], n_tokens)
            cursor = n_tokens
    orig_lines = list(range(1, len(spans) + 1))
    flags = (rng.random(len(spans)) < 0.2).astype(np.int64)
    if label == 0:
        flags[:] = 0
    enc = EncodedSample(
        id=sample_id,
        token_ids=np.asarray(ids, dtype=np.int64),
        line_spans=spans,
        orig_lines=orig_lines,
        label=label,
        vul_flags=flags,
    )
    enc.validate()
    return enc


def per_head_names(arrays, heads):
    """Store each fused ``wqkv`` (optimizer moments too) under the per-head
    ``head{h}.w{q,k,v}`` names that bundles used before the fusion."""
    out = {}
    for name, arr in arrays.items():
        if not name.endswith(".wqkv"):
            out[name] = arr
            continue
        layer = name[:-len(".wqkv")]
        for i, block in enumerate(np.split(arr, 3 * heads, axis=1)):
            kind, h = divmod(i, heads)
            out[f"{layer}.head{h}.w{'qkv'[kind]}"] = block
    return out


def bundled_corpus_path() -> str:
    """Path of the packaged 32-sample synthetic corpus."""
    return str(resources.files("linesift").joinpath("data/tiny_corpus.jsonl"))


_FILLER_LINES = (
    "a = a + {k} ;",
    "b = b - {k} ;",
    "int v{k} = a * b ;",
    "if ( a > {k} ) b ++ ;",
    "b = b ^ {k} ;",
    "a = a % {k} ;",
    "count += {k} ;",
)

_MARKER_LINE = "strcpy ( buf , input ) ;"


def synthesize_corpus(
    n: int = 32, seed: int = 7, vulnerable_fraction: float = 0.5
) -> list[FunctionSample]:
    """Deterministic toy corpus with planted vulnerable marker lines.

    Half the functions (by default) contain one `strcpy` call line and are
    labeled vulnerable with that line as the fine-grained ground truth; the
    rest are benign arithmetic. Separable by construction, which is what the
    overfit and staged-gating checks need.
    """
    rng = np.random.default_rng(seed)
    samples = []
    n_vul = int(round(n * vulnerable_fraction))
    for i in range(n):
        vul = i < n_vul
        body_len = int(rng.integers(5, 9))
        lines = [f"int fn{i} ( int a , int b ) {{", "char buf [ 8 ] ;"]
        for _ in range(body_len):
            template = _FILLER_LINES[int(rng.integers(0, len(_FILLER_LINES)))]
            lines.append(template.format(k=int(rng.integers(1, 60))))
        vul_lines: frozenset[int] = frozenset()
        if vul:
            pos = int(rng.integers(2, len(lines)))
            lines.insert(pos, _MARKER_LINE)
            vul_lines = frozenset({pos + 1})
        lines.append("return a ;")
        lines.append("}")
        samples.append(FunctionSample(
            id=f"syn{i:03d}",
            code="\n".join(lines),
            label=int(vul),
            vul_lines=vul_lines,
        ))
    # interleave so any prefix is label-mixed
    order = rng.permutation(n)
    return [samples[j] for j in order]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
