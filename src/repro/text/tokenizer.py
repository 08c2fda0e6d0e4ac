"""Tokenizers splitting raw text into candidate index terms."""

from __future__ import annotations

import re
from abc import ABC, abstractmethod


class Tokenizer(ABC):
    """Base interface for tokenizers.

    A tokenizer converts a raw string into a list of surface tokens.  All
    downstream normalization (lowercasing, stopword removal, stemming) is the
    job of the analyzer chain, not the tokenizer.
    """

    @abstractmethod
    def tokenize(self, text: str) -> list[str]:
        """Split ``text`` into tokens, preserving order and duplicates."""


class SimpleTokenizer(Tokenizer):
    """Unicode-word tokenizer comparable to Lucene's StandardTokenizer.

    Tokens are maximal runs of alphanumeric characters; everything else is a
    separator.  Purely numeric tokens are kept (query traces contain years,
    model numbers, etc.), but tokens longer than ``max_token_length`` are
    dropped, matching Lucene's default of discarding pathological tokens.
    """

    _WORD = re.compile(r"[0-9A-Za-z]+(?:'[0-9A-Za-z]+)?")

    def __init__(self, max_token_length: int = 64) -> None:
        if max_token_length < 1:
            raise ValueError("max_token_length must be positive")
        self.max_token_length = max_token_length

    def tokenize(self, text: str) -> list[str]:
        if not text:
            return []
        return [
            match.group(0)
            for match in self._WORD.finditer(text)
            if len(match.group(0)) <= self.max_token_length
        ]

