"""Analyzer chains composing tokenization and token filters."""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.text.stemmer import LightStemmer
from repro.text.stopwords import StopwordFilter
from repro.text.tokenizer import SimpleTokenizer


class Analyzer(ABC):
    """Turns raw text into the final index/query terms.

    The same analyzer instance must be used for indexing and querying a
    collection, otherwise query terms will not line up with the dictionary.
    """

    @abstractmethod
    def analyze(self, text: str) -> list[str]:
        """Return the normalized terms for ``text``."""


class StandardAnalyzer(Analyzer):
    """Simple tokenizer -> lowercase -> English stopword removal -> light
    stemming.

    This mirrors the default Solr ``text_general``-style chain used by the
    paper's testbed closely enough for term statistics to behave the same
    way: high-frequency function words never reach the index, and inflected
    variants share posting lists.
    """

    def __init__(self) -> None:
        self._tokenizer = SimpleTokenizer()
        self._stopword_filter = StopwordFilter()
        self._stemmer = LightStemmer()

    def analyze(self, text: str) -> list[str]:
        tokens = [token.lower() for token in self._tokenizer.tokenize(text)]
        return self._stemmer.filter(self._stopword_filter.filter(tokens))


class WhitespaceAnalyzer(Analyzer):
    """Lowercased whitespace split with no filtering.

    Used by the synthetic workloads, whose generated "terms" are already
    normalized vocabulary ids — running them through stemming would merge
    distinct synthetic terms and distort the Zipf distribution on purpose
    built by the generator.
    """

    def analyze(self, text: str) -> list[str]:
        return text.lower().split()
