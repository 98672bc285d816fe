"""Shared test helpers: gradient checking and synthetic encoded samples."""

import numpy as np
import pytest

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
