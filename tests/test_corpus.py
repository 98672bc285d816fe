"""Corpus loading, splitting, statistics, conversion."""

import csv
import json
import math

import numpy as np
import pytest

from conftest import synthesize_corpus
from linesift import corpus as C
from linesift.corpus import CorpusError, FunctionSample, SplitSpec


def write_jsonl(path, records):
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


class TestLoadCorpus:
    def test_basic_sample(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{
            "id": "a", "code": "int f(){\n return 0;\n}", "label": 0,
            "vul_lines": [],
        }])
        samples = C.load_corpus(str(path))
        assert len(samples) == 1
        assert samples[0].line_count() == 3

    def test_label_zero_with_vul_lines_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [{"id": "a", "code": "x\ny", "label": 0, "vul_lines": [2]}])
        with pytest.raises(CorpusError, match="line 1"):
            C.load_corpus(str(path))

    def test_vul_line_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"id": "ok", "code": "x", "label": 0, "vul_lines": []},
            {"id": "bad", "code": "a\nb\nc", "label": 1, "vul_lines": [99]},
        ])
        with pytest.raises(CorpusError, match="line 2"):
            C.load_corpus(str(path))

    @pytest.mark.parametrize("field, value", [
        ("label", 1.7), ("label", 1.0), ("label", "1"), ("label", True),
        ("vul_lines", [2.9]), ("vul_lines", ["2"]), ("vul_lines", [False]),
        ("code", 123), ("code", None), ("id", 7), ("id", None), ("cwe", 787),
        ("cwe", ["CWE-787"]),
    ])
    def test_non_integer_or_non_string_field_rejected(self, tmp_path, field, value):
        path = tmp_path / "c.jsonl"
        record = {"id": "bad", "code": "a\nb\nc", "label": 1, "vul_lines": [2]}
        record[field] = value
        write_jsonl(path, [{"id": "ok", "code": "x", "label": 0, "vul_lines": []}, record])
        with pytest.raises(CorpusError, match=f"line 2: {field.rstrip('s')} must be"):
            C.load_corpus(str(path))

    def test_cwe_absent_or_null_loads_as_none(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_jsonl(path, [
            {"id": "a", "code": "x", "label": 0, "vul_lines": []},
            {"id": "b", "code": "x", "label": 0, "vul_lines": [], "cwe": None},
            {"id": "c", "code": "x", "label": 0, "vul_lines": [], "cwe": "CWE-787"},
        ])
        assert [s.cwe for s in C.load_corpus(str(path))] == [None, None, "CWE-787"]

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "a", "code": "x", "label": 0}\n{oops\n')
        with pytest.raises(CorpusError, match="line 2"):
            C.load_corpus(str(path))

    def test_line_that_is_not_utf8_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"id": "a", "code": "x", "label": 0}\n{"id": "\xff"}\n')
        with pytest.raises(CorpusError, match="line 2: not UTF-8"):
            C.load_corpus(str(path))

    def test_repeated_id_rejected_naming_both_lines(self, tmp_path):
        path = tmp_path / "c.jsonl"
        record = {"id": "a", "code": "x", "label": 0, "vul_lines": []}
        write_jsonl(path, [record, {**record, "id": "b"}, {**record, "code": "y"}])
        with pytest.raises(CorpusError, match="line 3: id 'a' repeats line 1"):
            C.load_corpus(str(path))

    def test_round_trip_is_content_identical(self, tmp_path, rng):
        samples = synthesize_corpus(12, seed=5)
        p1 = tmp_path / "a.jsonl"
        p2 = tmp_path / "b.jsonl"
        C.save_corpus(samples, str(p1))
        loaded = C.load_corpus(str(p1))
        assert loaded == samples
        C.save_corpus(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


class TestSplit:
    def test_default_sizes_small(self):
        corpus = synthesize_corpus(10, seed=1)
        tr, ev, te = C.split(corpus, SplitSpec(seed=3))
        assert (len(tr), len(ev), len(te)) == (8, 1, 1)

    def test_same_seed_identical_membership(self):
        corpus = synthesize_corpus(30, seed=1)
        a = C.split(corpus, SplitSpec(seed=9))
        b = C.split(corpus, SplitSpec(seed=9))
        for pa, pb in zip(a, b):
            assert [s.id for s in pa] == [s.id for s in pb]

    def test_nominal_full_scale_sizes(self):
        # 188,636 samples at 80/10/10 must produce 150,908 / 18,864 / 18,864
        corpus = [
            FunctionSample(id=str(i), code="x", label=0) for i in range(188636)
        ]
        tr, ev, te = C.split(corpus, SplitSpec(seed=0))
        assert (len(tr), len(ev), len(te)) == (150908, 18864, 18864)

    def test_partition_property_random_fractions(self, rng):
        corpus = synthesize_corpus(40, seed=2)
        for _ in range(10):
            raw = rng.dirichlet([1.0, 1.0, 1.0])
            spec = SplitSpec(raw[0], raw[1], 1.0 - raw[0] - raw[1],
                             seed=int(rng.integers(1 << 30)))
            parts = C.split(corpus, spec)
            ids = [s.id for part in parts for s in part]
            assert sorted(ids) == sorted(s.id for s in corpus)
            assert len(set(ids)) == len(corpus)
            assert len(parts[0]) == int(np.floor(spec.train * len(corpus)))

    def test_stratified_partitions(self):
        corpus = synthesize_corpus(40, seed=2)
        tr, ev, te = C.split(corpus, SplitSpec(seed=1), stratify=True)
        ids = sorted(s.id for s in tr + ev + te)
        assert ids == sorted(s.id for s in corpus)
        # roughly balanced vulnerable fraction in train
        assert 0.3 < C.class_stats(tr)["ratio"] < 0.7

    def test_invalid_fractions(self):
        with pytest.raises(CorpusError):
            C.split([], SplitSpec(0.5, 0.1, 0.1))

    @pytest.mark.parametrize("fractions", [(math.nan, 0.5, 0.5), (0.8, 0.1, math.nan)],
                             ids=["nan_train", "nan_test"])
    def test_nan_fraction_rejected(self, fractions):
        with pytest.raises(CorpusError):
            SplitSpec(*fractions).validate()


class TestClassStats:
    def test_empty(self):
        assert C.class_stats([]) == {
            "total": 0, "vulnerable": 0, "non_vulnerable": 0, "ratio": 0.0,
        }

    def test_small_ratio(self):
        samples = [FunctionSample(id="v", code="x", label=1, vul_lines=frozenset({1}))]
        samples += [FunctionSample(id=str(i), code="x", label=0) for i in range(3)]
        stats = C.class_stats(samples)
        assert stats["vulnerable"] == 1 and stats["ratio"] == 0.25

    def test_full_scale_ratio_arithmetic(self):
        # 10,900 vulnerable of 188,636 is the documented 5.78%
        assert round(10900 / 188636 * 100, 2) == 5.78


class TestTruncationStats:
    def test_short_sample_fits_everywhere(self):
        samples = [FunctionSample(id="a", code="x", label=0)]
        rows = C.truncation_stats(samples, lambda s: 10)
        assert all(r["untruncated"] == 1 for r in rows)

    def test_known_lengths(self):
        lengths = {"a": 400, "b": 600, "c": 3000}
        samples = [
            FunctionSample(id=k, code="x", label=1 if k == "c" else 0,
                           vul_lines=frozenset({1}) if k == "c" else frozenset())
            for k in lengths
        ]
        rows = C.truncation_stats(samples, lambda s: lengths[s.id])
        by_limit = {r["limit"]: r for r in rows}
        assert by_limit[512]["untruncated"] == 1
        assert by_limit[1024]["untruncated"] == 2
        assert by_limit[2048]["untruncated"] == 2
        assert by_limit[2048]["untruncated_vulnerable"] == 0

    def test_table_rendering_aligned(self):
        rows = C.truncation_stats(
            [FunctionSample(id="a", code="x", label=0)], lambda s: 1
        )
        text = C.format_stats_table(rows)
        lines = text.split("\n")
        assert len(lines) == 4
        assert len(set(len(ln) for ln in lines)) == 1


class TestConverter:
    def test_bigvul_style_csv(self, tmp_path):
        csv_path = tmp_path / "bv.csv"
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=[
                "processed_func", "target", "flaw_line_index", "CWE ID",
            ])
            writer.writeheader()
            writer.writerow({
                "processed_func": "int f ( ) {\nstrcpy ( a , b ) ;\n}",
                "target": "1",
                "flaw_line_index": "1",
                "CWE ID": "CWE-787",
            })
            writer.writerow({
                "processed_func": "int g ( ) {\nreturn 0 ;\n}",
                "target": "0",
                "flaw_line_index": "",
                "CWE ID": "",
            })
        out_path = tmp_path / "out.jsonl"
        count = C.convert_csv_corpus(str(csv_path), str(out_path))
        assert count == 2
        samples = C.load_corpus(str(out_path))
        assert samples[0].label == 1
        assert samples[0].vul_lines == frozenset({2})  # 0-based 1 -> 1-based 2
        assert samples[0].cwe == "CWE-787"
        assert samples[1].label == 0 and not samples[1].vul_lines

    def test_repeated_id_rejected_naming_both_rows(self, tmp_path):
        csv_path = tmp_path / "bv.csv"
        # the first record spans file lines 2 and 3, so rows and file lines differ
        csv_path.write_text('id,processed_func,target\nf1,"a\nb",0\nf2,c,0\nf1,d,1\n')
        with pytest.raises(CorpusError, match="row 4: id 'f1' repeats row 2"):
            C.convert_csv_corpus(str(csv_path), str(tmp_path / "out.jsonl"),
                                 id_column="id")
        assert not (tmp_path / "out.jsonl").exists()

    def test_missing_id_column_rejected(self, tmp_path):
        csv_path = tmp_path / "bv.csv"
        csv_path.write_text("processed_func,target\na,0\nb,0\n")
        with pytest.raises(CorpusError, match="row 2: missing column 'nosuch'"):
            C.convert_csv_corpus(str(csv_path), str(tmp_path / "out.jsonl"),
                                 id_column="nosuch")

    def test_missing_lines_column_rejected_at_first_positive(self, tmp_path):
        csv_path = tmp_path / "bv.csv"
        csv_path.write_text("processed_func,target\na,0\nb,1\nc,1\n")
        with pytest.raises(CorpusError, match="row 3: missing column 'flaw_line_index'"):
            C.convert_csv_corpus(str(csv_path), str(tmp_path / "out.jsonl"))
        assert not (tmp_path / "out.jsonl").exists()
        csv_path.write_text("processed_func,target\na,0\nb,0\n")  # no positive: converts
        assert C.convert_csv_corpus(str(csv_path), str(tmp_path / "out.jsonl")) == 2

    def test_byte_that_is_not_utf8_reports_file_line(self, tmp_path):
        csv_path = tmp_path / "bv.csv"
        # the first record spans file lines 2 and 3
        csv_path.write_bytes(b'processed_func,target\n"a\nb",0\n"\xff",0\n')
        with pytest.raises(CorpusError, match="line 4: not UTF-8"):
            C.convert_csv_corpus(str(csv_path), str(tmp_path / "out.jsonl"))


class TestSynthesizedCorpus:
    def test_shape_and_labels(self):
        samples = synthesize_corpus(32, seed=7)
        assert len(samples) == 32
        assert sum(s.label for s in samples) == 16
        for s in samples:
            s.validate()
            if s.label == 1:
                (line,) = s.vul_lines
                assert "strcpy" in s.code.split("\n")[line - 1]

    def test_deterministic(self):
        assert synthesize_corpus(8, seed=3) == synthesize_corpus(8, seed=3)
