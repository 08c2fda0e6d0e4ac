"""Unit tests for the text-analysis substrate."""

import pytest

from repro.text import (
    ENGLISH_STOPWORDS,
    LightStemmer,
    SimpleTokenizer,
    StandardAnalyzer,
    StopwordFilter,
    WhitespaceAnalyzer,
)
from repro.text.tokenizer import MAX_TOKEN_LENGTH


class TestSimpleTokenizer:
    def test_splits_on_punctuation_and_whitespace(self):
        tok = SimpleTokenizer()
        assert tok.tokenize("Hello, world! foo-bar") == ["Hello", "world", "foo", "bar"]

    def test_keeps_numbers_and_mixed_tokens(self):
        tok = SimpleTokenizer()
        assert tok.tokenize("model T5 from 2018") == ["model", "T5", "from", "2018"]

    def test_keeps_apostrophe_words_whole(self):
        assert SimpleTokenizer().tokenize("don't stop") == ["don't", "stop"]

    def test_empty_input(self):
        assert SimpleTokenizer().tokenize("") == []
        assert SimpleTokenizer().tokenize("   \t\n") == []

    def test_drops_over_long_tokens(self):
        assert MAX_TOKEN_LENGTH == 64  # Lucene's default
        longest, too_long = "y" * 64, "x" * 65
        text = f"short {too_long} {longest} ok"
        assert SimpleTokenizer().tokenize(text) == ["short", longest, "ok"]

    def test_preserves_duplicates_and_order(self):
        assert SimpleTokenizer().tokenize("a b a") == ["a", "b", "a"]


class TestStopwordFilter:
    def test_removes_stopwords(self):
        filt = StopwordFilter()
        assert filt.filter(["the", "quick", "fox"]) == ["quick", "fox"]

    def test_common_words_present(self):
        for word in ("the", "and", "of", "is"):
            assert word in ENGLISH_STOPWORDS


class TestLightStemmer:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("cities", "city"),
            ("running", "runn"),
            ("played", "play"),
            ("cats", "cat"),
            ("was", "was"),  # guard: stem would be too short
            ("organization", "organize"),
            ("foxes", "fox"),
            ("searches", "search"),
            ("makes", "make"),
        ],
    )
    def test_stems(self, token, expected):
        assert LightStemmer().stem(token) == expected

    def test_digits_untouched(self):
        assert LightStemmer().stem("t128s") == "t128s"

    def test_filter_maps_all(self):
        assert LightStemmer().filter(["cats", "dogs"]) == ["cat", "dog"]

    def test_idempotent_on_short_words(self):
        stemmer = LightStemmer()
        for word in ("a", "is", "go", "ox"):
            assert stemmer.stem(word) == word


class TestAnalyzers:
    def test_standard_chain(self):
        analyzer = StandardAnalyzer()
        terms = analyzer.analyze("The Quick Foxes were running!")
        assert "the" not in terms and "were" not in terms
        assert "quick" in terms
        assert "fox" in terms  # stemmed plural

    def test_whitespace_analyzer_is_verbatim(self):
        analyzer = WhitespaceAnalyzer()
        assert analyzer.analyze("T1 t2  t3") == ["t1", "t2", "t3"]

    def test_same_analyzer_for_index_and_query_lines_up(self):
        analyzer = StandardAnalyzer()
        assert analyzer.analyze("Searching") == analyzer.analyze("searches")
