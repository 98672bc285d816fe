"""Shared test helpers: gradient checking and synthetic encoded samples."""

import numpy as np
import pytest

from linesift.encoding import CLS, EncodedSample, RESERVED_TOKENS


def finite_difference_failures(
    loss_fn, params, rng, elements_per_tensor=3, step=1e-5, rtol=1e-4, atol=1e-7
):
    """Central finite differences against stored analytic grads.

    ``loss_fn`` re-runs the forward pass and returns a float; each tensor's
    ``.grad`` must already hold the analytic gradient of that loss. Returns
    a list of (name, flat_index, analytic, numeric) tuples that fail
    |a - n| <= rtol * max(|a|, |n|) + atol.
    """
    failures = []
    for name, p in params.items():
        size = p.data.size
        count = min(elements_per_tensor, size)
        picks = rng.choice(size, size=count, replace=False)
        for flat in picks:
            flat = int(flat)
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
