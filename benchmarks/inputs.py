"""Seeded generator of C-like functions with an exact token budget.

Every function is a list of physical lines whose token counts are chosen
so that, after ``linesift.encoding.encode`` prepends [CLS], the stream has
exactly ``Spec.tokens`` tokens: one full segment per 512 tokens and no
truncation. Each line is built from single-token pieces (identifiers,
numbers, C operators) separated by spaces, so the tokenizer splits it into
exactly the planned number of tokens. Vulnerable functions carry one to
three calls to unsafe library sinks, and those lines are the fine-grained
labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from linesift.corpus import FunctionSample

_STEMS = ("buf", "len", "ptr", "idx", "src", "dst", "size", "cnt", "ret", "ctx",
          "node", "data", "flag", "tmp", "val", "key", "off", "pos", "end", "err")
IDENTIFIERS = tuple(s + sfx for s in _STEMS for sfx in ("",) + tuple(map(str, range(1, 15))))
BINARY_OPS = ("+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>")
COMPOUND_OPS = ("+=", "-=", "*=", "|=", "&=", "^=")
COMPARE_OPS = ("<", ">", "<=", ">=", "==", "!=")
CALLEES = ("check", "update", "reset", "emit", "lookup", "release", "hash", "log")
SINKS = ("strcpy", "memcpy", "sprintf", "strcat", "gets", "scanf")
HEADER_TOKENS = 5        # "int fnN ( ) {"
TAIL_TOKENS = 4          # "return x ; }"
BLANK_LINE_SHARE = 0.03  # blank lines are dropped by encode but keep numbering


@dataclass(frozen=True)
class Spec:
    """Shape of one workload's functions."""

    tokens: int                  # encoded stream length n, [CLS] included
    line_tokens: tuple[int, int]  # inclusive range of tokens per non-blank line
    vulnerable_share: float
    samples: int

    def __post_init__(self):
        lo, hi = self.line_tokens
        # any remainder >= lo can then be cut into lines within [lo, hi]
        if lo < 3 or hi < 2 * lo - 1:
            raise ValueError(f"line token range {self.line_tokens} cannot tile a budget")
        if not (lo <= HEADER_TOKENS <= hi and lo <= TAIL_TOKENS <= hi):
            raise ValueError(f"header/tail lines do not fit {self.line_tokens}")
        if self.tokens % 512 or self.tokens - 1 - HEADER_TOKENS - TAIL_TOKENS < lo:
            raise ValueError(f"token budget {self.tokens} must be a multiple of 512")


@dataclass(frozen=True)
class Planned:
    """What the generator intended for one sample, checked after encoding."""

    n: int
    segments: int
    L: int
    vul_lines: frozenset[int]


def _operand(rng) -> str:
    if rng.random() < 0.25:
        return str(int(rng.integers(0, 64)))
    return IDENTIFIERS[int(rng.integers(len(IDENTIFIERS)))]


def _expression(rng, width: int) -> list[str]:
    """``width`` >= 1 tokens: operand (op operand)*, with a leading unary
    minus when the width is even."""
    out = ["-"] if width % 2 == 0 else []
    out.append(_operand(rng))
    while len(out) < width:
        out += [BINARY_OPS[int(rng.integers(len(BINARY_OPS)))], _operand(rng)]
    return out


def _call(rng, name: str, width: int) -> list[str]:
    """``name ( args ) ;`` in exactly ``width`` >= 4 tokens."""
    inner = width - 4
    args: list[str] = []
    while inner > 0:
        if args:
            args.append(",")
            inner -= 1
        take = 2 if inner == 2 else 1  # "- x" keeps the comma count exact
        args += _expression(rng, take)
        inner -= take
    return [name, "("] + args + [")", ";"]


def _statement(rng, width: int) -> list[str]:
    x = IDENTIFIERS[int(rng.integers(len(IDENTIFIERS)))]
    if width == 3:
        return [x, "++" if rng.random() < 0.5 else "--", ";"]
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return [x, "="] + _expression(rng, width - 3) + [";"]
    if kind == 1:
        return [x, COMPOUND_OPS[int(rng.integers(len(COMPOUND_OPS)))]] \
            + _expression(rng, width - 3) + [";"]
    if kind == 2 and width >= 5:
        return ["int", x, "="] + _expression(rng, width - 4) + [";"]
    if kind == 3 and width >= 6:
        op = COMPARE_OPS[int(rng.integers(len(COMPARE_OPS)))]
        return ["if", "(", x, op] + _expression(rng, width - 5) + [")"]
    return _call(rng, CALLEES[int(rng.integers(len(CALLEES)))], width)


def _line_widths(rng, budget: int, lo: int, hi: int) -> list[int]:
    """Random widths in [lo, hi] summing to ``budget`` (>= lo)."""
    widths = []
    while budget:
        choices = [w for w in range(lo, min(hi, budget) + 1)
                   if budget - w == 0 or budget - w >= lo]
        w = choices[int(rng.integers(len(choices)))]
        widths.append(w)
        budget -= w
    return widths


def generate(spec: Spec, seed: int, tag: str) -> tuple[list[FunctionSample], dict[str, Planned]]:
    """``spec.samples`` functions from ``seed``; the same seed gives the same
    functions. Returns the samples and, by id, what each should encode to."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBE7C]))
    lo, hi = spec.line_tokens
    n_vul = int(round(spec.vulnerable_share * spec.samples))
    labels = np.zeros(spec.samples, dtype=np.int64)
    labels[rng.permutation(spec.samples)[:n_vul]] = 1
    samples, planned = [], {}
    for i, label in enumerate(labels):
        body = _line_widths(rng, spec.tokens - 1 - HEADER_TOKENS - TAIL_TOKENS, lo, hi)
        lines = [["int", f"fn{i}", "(", ")", "{"]]
        lines += [_statement(rng, w) for w in body]
        lines.append(["return", IDENTIFIERS[int(rng.integers(len(IDENTIFIERS)))], ";", "}"])
        sink_rows: list[int] = []
        if label:
            eligible = [j for j, w in enumerate(body, start=1) if w >= max(lo, 4)]
            count = min(len(eligible), int(rng.integers(1, 4)))
            for j in sorted(rng.choice(eligible, size=count, replace=False)):
                j = int(j)
                lines[j] = _call(rng, SINKS[int(rng.integers(len(SINKS)))], len(lines[j]))
                sink_rows.append(j)
        text, row_to_line = [], []
        for row, toks in enumerate(lines):
            if 0 < row < len(lines) - 1 and rng.random() < BLANK_LINE_SHARE:
                text.append("")
            text.append(" ".join(toks))
            row_to_line.append(len(text))
        vul = frozenset(row_to_line[r] for r in sink_rows)
        sid = f"{tag}-{seed}-{i:03d}"
        samples.append(FunctionSample(id=sid, code="\n".join(text), label=int(label),
                                      vul_lines=vul))
        planned[sid] = Planned(n=spec.tokens, segments=spec.tokens // 512,
                               L=len(lines), vul_lines=vul)
    return samples, planned


def check_encoded(encodeds, planned: dict[str, Planned]) -> list[str]:
    """Problems found comparing encoded samples against the plan (by id)."""
    problems = []
    for enc in encodeds:
        plan = planned[enc.id]
        got = (enc.n, len(enc.segment_boundaries), enc.L)
        want = (plan.n, plan.segments, plan.L)
        if got != want:
            problems.append(f"{enc.id}: (n, segments, L) = {got}, planned {want}")
        flagged = frozenset(ln for ln, f in zip(enc.orig_lines, enc.vul_flags) if f)
        if flagged != plan.vul_lines:
            problems.append(f"{enc.id}: vulnerable lines {sorted(flagged)}, "
                            f"planned {sorted(plan.vul_lines)}")
    return problems
