"""Text analysis substrate: tokenization, stopwords, stemming, analyzers.

This package is the front end of the search engine built for the Cottage
reproduction.  It converts raw document/query text into the token streams
consumed by :mod:`repro.index`.
"""

from repro.text.analyzer import Analyzer, StandardAnalyzer, WhitespaceAnalyzer
from repro.text.stemmer import LightStemmer
from repro.text.stopwords import ENGLISH_STOPWORDS, StopwordFilter
from repro.text.tokenizer import SimpleTokenizer

__all__ = [
    "Analyzer",
    "StandardAnalyzer",
    "WhitespaceAnalyzer",
    "LightStemmer",
    "ENGLISH_STOPWORDS",
    "StopwordFilter",
    "SimpleTokenizer",
]
