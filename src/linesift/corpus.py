"""Labeled function corpora: JSONL ingestion, splits, statistics.

Corpus format is JSONL, one object per line with fields ``id`` (string),
``code`` (full function source), ``label`` (0/1 function-level truth),
``vul_lines`` (1-based line numbers of the vulnerability-relevant lines,
empty unless label is 1) and an optional ``cwe`` pass-through tag.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "M_LEN_CHOICES",
    "FunctionSample",
    "SplitSpec",
    "CorpusError",
    "load_corpus",
    "save_corpus",
    "split",
    "class_stats",
    "truncation_stats",
    "format_stats_table",
    "read_csv_corpus",
]


# the token-stream lengths a model may accept (``--m-len``); ``stats``
# reports truncation at each of them
M_LEN_CHOICES = (512, 1024, 2048)


class CorpusError(ValueError):
    """A corpus file or record violates the schema."""


@dataclass(frozen=True)
class FunctionSample:
    id: str
    code: str
    label: int
    vul_lines: frozenset[int] = frozenset()
    cwe: str | None = None

    def line_count(self) -> int:
        return len(self.code.split("\n"))

    def validate(self) -> None:
        if self.label not in (0, 1):
            raise CorpusError(f"sample {self.id!r}: label must be 0 or 1")
        if self.label == 0 and self.vul_lines:
            raise CorpusError(
                f"sample {self.id!r}: label 0 but vul_lines {sorted(self.vul_lines)}"
            )
        n_lines = self.line_count()
        for ln in self.vul_lines:
            if not (1 <= ln <= n_lines):
                raise CorpusError(
                    f"sample {self.id!r}: vul_line {ln} outside [1, {n_lines}]"
                )


@dataclass(frozen=True)
class SplitSpec:
    """Fractions for the train/evaluation/test partition plus the shuffle seed."""

    train: float = 0.8
    evaluation: float = 0.1
    test: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        fr = (self.train, self.evaluation, self.test)
        # written so that a NaN, which fails every comparison, fails them
        if not all(f >= 0 for f in fr):
            raise CorpusError(f"split fractions must be nonnegative, got {fr}")
        if not abs(sum(fr) - 1.0) <= 1e-9:
            raise CorpusError(f"split fractions must sum to 1, got {fr}")


def _sample_from_record(obj: dict, lineno: int) -> FunctionSample:
    try:
        sid, label, code, cwe = obj["id"], obj["label"], obj["code"], obj.get("cwe")
        vul_lines = list(obj.get("vul_lines", []))
        sample = FunctionSample(
            id=sid, code=code, label=label, vul_lines=frozenset(vul_lines), cwe=cwe,
        )
    except (KeyError, TypeError) as exc:
        raise CorpusError(f"line {lineno}: bad record ({exc})") from exc
    for name, value in (("id", sid), ("code", code)):
        if not isinstance(value, str):
            raise CorpusError(f"line {lineno}: {name} must be a string, got {value!r}")
    if not (cwe is None or isinstance(cwe, str)):
        raise CorpusError(f"line {lineno}: cwe must be a string or null, got {cwe!r}")
    for name, value in [("label", label)] + [("vul_line", v) for v in vul_lines]:
        if type(value) is not int:  # bool is an int subclass; 1.7 or "1" is no integer
            raise CorpusError(f"line {lineno}: {name} must be an integer, got {value!r}")
    try:
        sample.validate()
    except CorpusError as exc:
        raise CorpusError(f"line {lineno}: {exc}") from exc
    return sample


def _decoded(raw: bytes, lineno: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorpusError(f"line {lineno}: not UTF-8 ({exc.reason} at byte "
                          f"{exc.start + 1} of the line)") from None


def load_corpus(path: str) -> list[FunctionSample]:
    """Load and validate a JSONL corpus, preserving file order; ids are unique."""
    samples, first_line = [], {}
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = _decoded(raw, lineno).strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"line {lineno}: malformed JSON ({exc.msg})") from exc
            sample = _sample_from_record(obj, lineno)
            seen = first_line.setdefault(sample.id, lineno)
            if seen != lineno:
                raise CorpusError(f"line {lineno}: id {sample.id!r} repeats line {seen}")
            samples.append(sample)
    return samples


def save_corpus(samples: list[FunctionSample], path: str) -> None:
    """Serialize with normalized field order; load(save(x)) == x."""
    with open(path, "w", encoding="utf-8") as fh:
        for s in samples:
            obj = {
                "id": s.id,
                "code": s.code,
                "label": s.label,
                "vul_lines": sorted(s.vul_lines),
            }
            if s.cwe is not None:
                obj["cwe"] = s.cwe
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def split(
    corpus: list[FunctionSample], spec: SplitSpec, stratify: bool = False
) -> tuple[list[FunctionSample], list[FunctionSample], list[FunctionSample]]:
    """Seeded-shuffle partition into (train, evaluation, test).

    Sizes come from cumulative floor boundaries so |train| = floor(f_train*N)
    and the leftover lands in test; for N=188,636 at 80/10/10 this yields the
    nominal 150,908 / 18,864 / 18,864. With ``stratify`` the same rule is
    applied per label class.
    """
    spec.validate()

    def partition(items: list[FunctionSample], seed_tag: int):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, seed_tag]))
        order = rng.permutation(len(items))
        shuffled = [items[i] for i in order]
        n = len(items)
        b1 = int(np.floor(spec.train * n))
        b2 = int(np.floor((spec.train + spec.evaluation) * n))
        return shuffled[:b1], shuffled[b1:b2], shuffled[b2:]

    if not stratify:
        return partition(corpus, 0)
    train, ev, test = [], [], []
    for label in (0, 1):
        tr, e, te = partition([s for s in corpus if s.label == label], label + 1)
        train += tr
        ev += e
        test += te
    return train, ev, test


def class_stats(samples: list[FunctionSample]) -> dict:
    total = len(samples)
    vul = sum(1 for s in samples if s.label == 1)
    return {
        "total": total,
        "vulnerable": vul,
        "non_vulnerable": total - vul,
        "ratio": (vul / total) if total else 0.0,
    }


def truncation_stats(samples: list[FunctionSample], token_length) -> list[dict]:
    """Count samples whose token stream fits each of ``M_LEN_CHOICES``
    (all / vulnerable).

    ``token_length`` maps a sample to its full (untruncated) token count.
    """
    lengths = [(token_length(s), s.label) for s in samples]
    rows = []
    for limit in M_LEN_CHOICES:
        fit = sum(1 for n, _ in lengths if n <= limit)
        fit_vul = sum(1 for n, lab in lengths if n <= limit and lab == 1)
        rows.append({
            "limit": limit,
            "untruncated": fit,
            "untruncated_vulnerable": fit_vul,
            "total": len(samples),
            "total_vulnerable": sum(1 for _, lab in lengths if lab == 1),
        })
    return rows


def format_stats_table(rows: list[dict]) -> str:
    """Aligned-column text rendering of a list of flat dicts."""
    if not rows:
        return ""
    cols = list(rows[0])
    table = [cols] + [[str(r[c]) for c in cols] for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(cols))]
    return "\n".join(
        "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        for row in table
    )


def _line_index(cell: str) -> int:
    """A flaw-line index cell as an int; pandas writes integers as "2.0"."""
    value = float(cell)
    if not value.is_integer():  # 1.5, inf, nan
        raise ValueError(f"line index {cell.strip()!r} is not a whole number")
    return int(value)


def read_csv_corpus(
    csv_path: str,
    code_column: str = "processed_func",
    label_column: str = "target",
    lines_column: str = "flaw_line_index",
    id_column: str | None = None,
    cwe_column: str | None = "CWE ID",
    zero_based_lines: bool = True,
) -> list[FunctionSample]:
    """The samples of a big_vul-style CSV, all read and checked; no write.

    Flaw line indices are comma-separated in the CSV and 0-based by
    convention; they come out as 1-based ``vul_lines``. Records whose
    converted form violates the schema, or repeat an earlier record's id,
    are rejected with their CSV row number.
    """
    samples, first_row = [], {}
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for rownum, rec in enumerate(reader, start=2):  # header is row 1
                if code_column not in rec or label_column not in rec:
                    raise CorpusError(
                        f"row {rownum}: missing column {code_column!r} or {label_column!r}"
                    )
                if id_column and id_column not in rec:
                    raise CorpusError(f"row {rownum}: missing column {id_column!r}")
                try:
                    label = int(rec[label_column])
                    parts = (rec.get(lines_column) or "").replace(";", ",").split(",")
                    vul_lines = [_line_index(part) + (1 if zero_based_lines else 0)
                                 for part in parts if label == 1 and part.strip()]
                except (TypeError, ValueError) as exc:  # "abc", "1.5", short row
                    raise CorpusError(f"row {rownum}: bad cell ({exc})") from exc
                sid = rec[id_column] if id_column and rec.get(id_column) else str(rownum - 2)
                seen = first_row.setdefault(sid, rownum)
                if seen != rownum:
                    raise CorpusError(f"row {rownum}: id {sid!r} repeats row {seen}")
                if label == 1 and lines_column not in rec:
                    raise CorpusError(
                        f"row {rownum}: missing column {lines_column!r} of a label-1 record")
                sample = FunctionSample(
                    id=sid,
                    code=rec[code_column],
                    label=label,
                    vul_lines=frozenset(vul_lines),
                    cwe=(rec.get(cwe_column) or None) if cwe_column else None,
                )
                try:
                    sample.validate()
                except CorpusError as exc:
                    raise CorpusError(f"row {rownum}: {exc}") from exc
                samples.append(sample)
    except UnicodeDecodeError:
        with open(csv_path, "rb") as fh:  # name the file line of the first bad byte
            for lineno, raw in enumerate(fh, start=1):
                _decoded(raw, lineno)
        raise
    return samples
