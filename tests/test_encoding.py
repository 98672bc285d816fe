"""Tokenizer, vocabulary, encoding arithmetic, segments, correspondence."""

import re

import numpy as np
import pytest

from conftest import bundled_corpus_path, make_encoded, synthesize_corpus
from linesift import tensor as T
from linesift.corpus import FunctionSample, load_corpus
from linesift.encoding import (
    CLS,
    UNK,
    EncodingError,
    RESERVED_TOKENS,
    Vocab,
    build_vocab,
    correspondence_apply,
    encode,
    tokenize_line,
)


def sample(code, label=0, vul=(), sid="s"):
    return FunctionSample(id=sid, code=code, label=label, vul_lines=frozenset(vul))


def squash(s: str) -> str:
    return re.sub(r"\s+", "", s)


class TestTokenizeLine:
    def test_simple_expression(self):
        assert tokenize_line("x = a+b;") == ["x", "=", "a", "+", "b", ";"]

    def test_arrow_operator(self):
        assert tokenize_line("if (p->next)") == ["if", "(", "p", "->", "next", ")"]

    def test_string_and_char_literals_whole(self):
        assert tokenize_line('printf("a b\\n", \'x\');') == [
            "printf", "(", '"a b\\n"', ",", "'x'", ")", ";",
        ]

    def test_numbers_whole(self):
        assert tokenize_line("y = 0x1F + 1.5e-3 + 42u;") == [
            "y", "=", "0x1F", "+", "1.5e-3", "+", "42u", ";",
        ]

    def test_multichar_operators(self):
        assert tokenize_line("a<<=2; b&&c; d!=e") == [
            "a", "<<=", "2", ";", "b", "&&", "c", ";", "d", "!=", "e",
        ]

    def test_round_trip_whitespace_normalized(self, rng):
        for s in synthesize_corpus(16, seed=9):
            for line in s.code.split("\n"):
                assert squash("".join(tokenize_line(line))) == squash(line)
        gnarly = [
            'for (i=0; i<n; ++i) { sum += arr[i]->val * 2.5f; }',
            'char *s = "tok \\"quoted\\" txt"; /* c */',
            "while((x>>=1) && !done) y |= mask[idx++];",
            "é weird ☃ unicode",
        ]
        for line in gnarly:
            assert squash("".join(tokenize_line(line))) == squash(line)


    def test_text_tokens_are_its_lines_tokens(self):
        texts = [s.code for s in load_corpus(bundled_corpus_path())]
        texts += [s.code for s in synthesize_corpus(16, seed=9)]
        texts.append('a = "open\nb = \'x\nc = "esc\\\nd\\\ne\r\nf = "x\r"\n\n\n g;\n')
        for text in texts:
            per_line = [t for line in text.split("\n") for t in tokenize_line(line)]
            assert tokenize_line(text) == per_line
        # the edge text: unterminated " and ', a trailing \, a \r, blank lines
        assert tokenize_line(texts[-1]) == [
            "a", "=", '"', "open", "b", "=", "'", "x", "c", "=", '"', "esc", "\\",
            "d", "\\", "e", "f", "=", '"x\r"', "g", ";",
        ]


class TestVocab:
    def test_small_corpus_contents(self):
        v = build_vocab([sample("a a b")], max_size=8, min_freq=1)
        assert v.tokens[: len(RESERVED_TOKENS)] == list(RESERVED_TOKENS)
        assert "a" in v.ids and "b" in v.ids
        assert v.ids["a"] < v.ids["b"]  # higher frequency first

    def test_min_freq_excludes(self):
        v = build_vocab([sample("a a b")], max_size=8, min_freq=2)
        assert "b" not in v.ids
        assert v.encode_token("b") == UNK

    def test_frequency_order_against_counting_oracle(self, rng):
        words = [f"w{i}" for i in range(30)]
        counts = {w: int(rng.integers(1, 50)) for w in words}
        code = "\n".join(" ".join([w] * c) for w, c in counts.items())
        v = build_vocab([sample(code)], max_size=4096, min_freq=1)
        ranked = v.tokens[len(RESERVED_TOKENS):]
        expected = sorted(words, key=lambda w: (-counts[w], w))
        assert ranked == expected

    def test_max_size_caps(self):
        v = build_vocab([sample("a b c d e")], max_size=8, min_freq=1)
        assert len(v) == 8

    def test_empty_corpus_errors(self):
        with pytest.raises(EncodingError):
            build_vocab([], max_size=100)
        with pytest.raises(EncodingError):
            build_vocab([sample("a")], max_size=3)

    def test_save_load_round_trip(self, tmp_path):
        # a string literal's token may hold a character that universal-newline
        # reading or str.splitlines would take for a line break
        for code in ("foo bar foo", 'foo = "a\rb" ;', 'foo = "c\x85d" ;',
                     'foo = "e\u2028f" ;'):
            v = build_vocab([sample(code)], max_size=64)
            path = tmp_path / "vocab.txt"
            v.save(str(path))
            lines = path.read_bytes().decode("utf-8").split("\n")[:-1]
            assert lines[: len(RESERVED_TOKENS)] == list(RESERVED_TOKENS)
            assert lines.index("foo") == v.ids["foo"]  # line number = id
            loaded = Vocab.load(str(path))
            assert loaded.tokens == v.tokens, code


class TestEncode:
    def test_two_line_example(self):
        code = "a b c d e f\ng h i j k l"
        v = build_vocab([sample(code)], max_size=64)
        enc = encode(sample(code), v, 512)
        assert enc.n == 13 and enc.L == 2
        assert enc.line_spans == [(1, 7), (7, 13)]
        assert int(enc.token_ids[0]) == CLS

    def test_truncation_partial_line(self):
        line = " ".join(["tok"] * 300)
        code = "\n".join([line, line, line])
        v = build_vocab([sample(code)], max_size=64)
        enc = encode(sample(code), v, 512)
        assert enc.n == 512
        assert enc.L == 2
        assert enc.line_spans == [(1, 301), (301, 512)]

    def test_blank_line_reindexing(self):
        code = "\nx = 1 ;\ny = 2 ;"
        v = build_vocab([sample(code)], max_size=64)
        enc = encode(sample(code, label=1, vul=(2,)), v, 512)
        assert enc.orig_lines == [2, 3]
        assert enc.vul_flags.tolist() == [1, 0]

    def test_zero_nonblank_lines_errors(self):
        v = build_vocab([sample("x")], max_size=64)
        with pytest.raises(EncodingError, match="non-blank"):
            encode(sample("\n  \n\t\n"), v, 512)

    def test_bad_m_len(self):
        v = build_vocab([sample("x")], max_size=64)
        with pytest.raises(EncodingError, match="777"):
            encode(sample("x"), v, 777)

    def test_statement_cap_drops_lines_and_tokens(self):
        code = "\n".join("x ;" for _ in range(600))
        v = build_vocab([sample(code)], max_size=64)
        enc = encode(sample(code), v, 2048)
        assert enc.L == 512
        assert enc.n == 1 + 512 * 2
        enc.validate()

    def test_deterministic_and_reencode_stable(self):
        samples = synthesize_corpus(6, seed=11)
        v = build_vocab(samples, max_size=4096)
        for s in samples:
            e1 = encode(s, v, 512)
            e2 = encode(s, v, 512)
            assert np.array_equal(e1.token_ids, e2.token_ids)
            # re-encode the detokenized text (no UNKs in this corpus)
            rebuilt = "\n".join(
                " ".join(v.tokens[t] for t in e1.token_ids[o:p])
                for o, p in e1.line_spans
            )
            e3 = encode(sample(rebuilt), v, 512)
            assert np.array_equal(e3.token_ids, e1.token_ids)
            assert e3.line_spans == e1.line_spans

    def test_every_vul_label_maps_to_one_span(self):
        samples = [s for s in synthesize_corpus(16, seed=3) if s.label == 1]
        v = build_vocab(samples, max_size=4096)
        for s in samples:
            enc = encode(s, v, 512)
            retained = [ln for ln, f in zip(enc.orig_lines, enc.vul_flags) if f]
            assert set(retained) == set(s.vul_lines)


class TestSegment:
    @pytest.mark.parametrize("n,expected", [
        (512, [(0, 512)]),
        (513, [(0, 512), (512, 513)]),
        (1000, [(0, 512), (512, 1000)]),
        (1, [(0, 1)]),
        (2048, [(0, 512), (512, 1024), (1024, 1536), (1536, 2048)]),
    ])
    def test_boundaries(self, rng, n, expected):
        enc = make_encoded(rng, n)
        assert enc.segment_boundaries == expected
        assert len(enc.segment_boundaries) == -(-n // 512)  # ceil

    def test_concatenation_identity(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 2500))
            enc = make_encoded(rng, n)
            pieces = [enc.token_ids[s:e] for s, e in enc.segment_boundaries]
            assert np.array_equal(np.concatenate(pieces), enc.token_ids)
            widths = [e - s for s, e in enc.segment_boundaries[:-1]]
            assert all(w == 512 for w in widths)


class TestCorrespondenceApply:
    def test_identical_rows(self, rng):
        v = rng.normal(size=4)
        tokens = T.constant(np.vstack([v] * 6))
        out = correspondence_apply([(1, 6)], tokens)
        assert np.max(np.abs(out.data - v)) < 1e-12

    def test_hand_means(self, rng):
        tokens = T.constant(rng.normal(size=(4, 3)))  # row 0 is [CLS]
        out = correspondence_apply([(1, 3), (3, 4)], tokens)
        assert np.allclose(out.data[0], tokens.data[1:3].mean(axis=0), atol=1e-12)
        assert np.allclose(out.data[1], tokens.data[3], atol=1e-12)

    def test_against_dense_matrix_oracle(self, rng):
        for _ in range(30):
            enc = make_encoded(rng, int(rng.integers(5, 120)))
            tokens = T.constant(rng.normal(size=(enc.n, 8)))
            out = correspondence_apply(enc.line_spans, tokens)
            dense = np.zeros((enc.L, enc.n))
            for i, (o, p) in enumerate(enc.line_spans):
                dense[i, o:p] = 1.0
            dense /= dense.sum(axis=1, keepdims=True)
            assert np.max(np.abs(out.data - dense @ tokens.data)) < 1e-12

    def test_gradient_distributes_over_span(self, rng):
        tokens = T.parameter(rng.normal(size=(5, 3)))
        correspondence_apply([(1, 5)], tokens).sum().backward()
        expected = np.full((5, 3), 0.25)
        expected[0] = 0.0
        assert np.allclose(tokens.grad, expected, atol=1e-15)

    def test_empty_span_errors(self, rng):
        with pytest.raises(EncodingError):
            correspondence_apply([(1, 1)], T.constant(rng.normal(size=(3, 2))))


class TestEncodedSampleInvariants:
    def test_validate_rejects_gap(self, rng):
        enc = make_encoded(rng, 10)
        enc.line_spans[-1] = (enc.line_spans[-1][0], enc.line_spans[-1][1] - 1)
        with pytest.raises(EncodingError):
            enc.validate()

    def test_with_token_ids_requires_same_length(self, rng):
        enc = make_encoded(rng, 10)
        with pytest.raises(EncodingError):
            enc.with_token_ids(np.zeros(9, dtype=np.int64))
