"""Line-aware tokenization and segment arithmetic for C-like source.

A "statement" here is a non-blank physical source line. Encoding produces a
single token stream with one leading [CLS], a per-line span table (the
sparse form of the statement-token correspondence matrix) and the 512-token
segment boundaries used by the long-sequence pipeline.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .corpus import FunctionSample
from .tensor import Tensor, constant, span_combine

__all__ = [
    "RESERVED_TOKENS",
    "Vocab",
    "EncodedSample",
    "EncodingError",
    "tokenize_line",
    "build_vocab",
    "encode",
    "correspondence_apply",
    "SEGMENT_TOKENS",
    "MAX_STATEMENTS",
]

SEGMENT_TOKENS = 512      # token capacity of one encoder segment
MAX_STATEMENTS = 512      # statement capacity of the statement encoder

RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[MASK]", "[BOS]", "[EOS]")
PAD, UNK, CLS, MASK, BOS, EOS = range(len(RESERVED_TOKENS))


class EncodingError(ValueError):
    pass


# String/char literals stay whole; identifiers and numeric literals stay
# whole; multi-char C operators are matched longest-first; any other
# non-space byte falls through as a single-character token so nothing is
# ever dropped (exotic unicode is lossy but order-preserving).
_TOKEN_RE = re.compile(
    r'''"(?:\\.|[^"\\])*"'''
    r"""|'(?:\\.|[^'\\])*'"""
    r"""|[A-Za-z_]\w*"""
    r"""|0[xX][0-9a-fA-F]+\w*"""
    r"""|\d+\.\d*(?:[eE][+-]?\d+)?\w*"""
    r"""|\.\d+(?:[eE][+-]?\d+)?\w*"""
    r"""|\d+\w*"""
    r"""|<<=|>>=|\.\.\."""
    r"""|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||\+=|-=|\*=|/=|%=|&=|\|=|\^=|##"""
    r"""|\S"""
)


def tokenize_line(line: str) -> list[str]:
    """Split one source line into surface tokens. Deterministic, total."""
    return _TOKEN_RE.findall(line)


@dataclass
class Vocab:
    """Token/id bijection with a fixed reserved prefix."""

    tokens: list[str]
    ids: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if tuple(self.tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise EncodingError("vocab must start with the reserved token block")
        self.ids = {t: i for i, t in enumerate(self.tokens)}
        if len(self.ids) != len(self.tokens):
            raise EncodingError("vocab contains duplicate tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    def encode_token(self, token: str) -> int:
        return self.ids.get(token, UNK)

    def save(self, path: str) -> None:
        # a token may hold "\r" (a string literal's), so one line is one
        # token only with newline translation off both ways
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(self.tokens) + "\n")

    @classmethod
    def load(cls, path: str) -> "Vocab":
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                tokens = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise EncodingError(f"{path}: not UTF-8 at byte {exc.start + 1}") from None
        if tokens and tokens[-1] == "":
            tokens.pop()
        return cls(tokens)


def build_vocab(
    samples: list[FunctionSample], max_size: int = 4096, min_freq: int = 1
) -> Vocab:
    """Frequency-ranked vocabulary; ties break lexicographically."""
    if max_size <= len(RESERVED_TOKENS):
        raise EncodingError(
            f"max_size {max_size} must exceed the {len(RESERVED_TOKENS)} reserved ids"
        )
    if not samples:
        raise EncodingError("cannot build a vocabulary from an empty corpus")
    counts: Counter[str] = Counter()
    for s in samples:
        for line in s.code.split("\n"):
            counts.update(tokenize_line(line))
    ranked = sorted(
        (t for t, c in counts.items() if c >= min_freq),
        key=lambda t: (-counts[t], t),
    )
    room = max_size - len(RESERVED_TOKENS)
    return Vocab(list(RESERVED_TOKENS) + ranked[:room])


@dataclass
class EncodedSample:
    """One tokenized function, truncated and ready for the encoder.

    ``token_ids[0]`` is the global [CLS]; ``line_spans`` are half-open
    token-index ranges that tile [1, n) in order, one per retained source
    line. ``orig_lines`` carries each retained line's original 1-based
    number and ``vul_flags`` its fine-grained label.
    """

    id: str
    token_ids: np.ndarray
    line_spans: list[tuple[int, int]]
    orig_lines: list[int]
    label: int
    vul_flags: np.ndarray

    @property
    def n(self) -> int:
        return int(self.token_ids.shape[0])

    @property
    def segment_boundaries(self) -> list[tuple[int, int]]:
        """ceil(n/512) consecutive token-index ranges tiling the stream."""
        return _boundaries(self.n)

    @property
    def L(self) -> int:
        return len(self.line_spans)

    def validate(self) -> None:
        n = self.n
        if n < 1 or int(self.token_ids[0]) != CLS:
            raise EncodingError("token stream must start with [CLS]")
        cursor = 1
        for o, p in self.line_spans:
            if o != cursor or p <= o:
                raise EncodingError(f"bad span ({o}, {p}) at cursor {cursor}")
            cursor = p
        if cursor != n:
            raise EncodingError(f"spans cover up to {cursor}, stream has {n}")
        if self.L > MAX_STATEMENTS:
            raise EncodingError(f"{self.L} statements exceed cap {MAX_STATEMENTS}")
        if len(self.orig_lines) != self.L or self.vul_flags.shape != (self.L,):
            raise EncodingError("per-line metadata out of sync with spans")

    def with_token_ids(self, token_ids: np.ndarray) -> "EncodedSample":
        """Copy with substituted ids; spans and labels keep."""
        if token_ids.shape != self.token_ids.shape:
            raise EncodingError("replacement ids must preserve length")
        return EncodedSample(
            id=self.id,
            token_ids=np.array(token_ids, dtype=np.int64),
            line_spans=list(self.line_spans),
            orig_lines=list(self.orig_lines),
            label=self.label,
            vul_flags=self.vul_flags.copy(),
        )


def _boundaries(n: int) -> list[tuple[int, int]]:
    count = -(-n // SEGMENT_TOKENS)  # ceil
    return [
        (i * SEGMENT_TOKENS, min((i + 1) * SEGMENT_TOKENS, n))
        for i in range(count)
    ]


def encode(sample: FunctionSample, vocab: Vocab, m_len: int = 512) -> EncodedSample:
    """Tokenize a function line by line, truncate, and span-index it.

    The stream is a hard prefix cut at ``m_len`` tokens (the [CLS]
    included); a line cut mid-way keeps its partial span and everything
    past the cut (or past the statement cap) is dropped. Blank lines are
    dropped with the original 1-based numbering retained, and fine-grained
    labels re-index onto the retained lines.
    """
    if m_len <= 0 or m_len % SEGMENT_TOKENS != 0:
        raise EncodingError(f"m_len {m_len} must be a positive multiple of 512")
    ids: list[int] = [CLS]
    spans: list[tuple[int, int]] = []
    orig_lines: list[int] = []
    for lineno, line in enumerate(sample.code.split("\n"), start=1):
        if len(ids) >= m_len or len(spans) >= MAX_STATEMENTS:
            break
        tokens = tokenize_line(line)
        if not tokens:
            continue
        start = len(ids)
        for tok in tokens:
            if len(ids) >= m_len:
                break
            ids.append(vocab.encode_token(tok))
        if len(ids) > start:
            spans.append((start, len(ids)))
            orig_lines.append(lineno)
    if not spans:
        raise EncodingError(f"sample {sample.id!r} has no non-blank lines")
    flags = np.array(
        [1 if ln in sample.vul_lines else 0 for ln in orig_lines], dtype=np.int64
    )
    encoded = EncodedSample(
        id=sample.id,
        token_ids=np.array(ids, dtype=np.int64),
        line_spans=spans,
        orig_lines=orig_lines,
        label=sample.label,
        vul_flags=flags,
    )
    encoded.validate()
    return encoded


def correspondence_apply(line_spans: list[tuple[int, int]], T: Tensor) -> Tensor:
    """Mean of token vectors per line span: the shared Average kernel.

    Equivalent to multiplying the row-normalized correspondence matrix with
    the token matrix, but computed span-by-span on the sparse form: zero
    scores, which ``span_combine``'s per-span softmax makes uniform weights.
    """
    for o, p in line_spans:
        if p <= o:
            raise EncodingError(f"empty span ({o}, {p})")
    return span_combine(T, line_spans, constant(np.zeros(T.shape[0])))
