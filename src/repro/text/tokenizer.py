"""The tokenizer splitting raw text into candidate index terms."""

from __future__ import annotations

import re

#: Lucene's default: longer tokens are pathological and dropped.
MAX_TOKEN_LENGTH = 64


class SimpleTokenizer:
    """Unicode-word tokenizer comparable to Lucene's StandardTokenizer.

    Tokens are maximal runs of alphanumeric characters; everything else is a
    separator.  Purely numeric tokens are kept (query traces contain years,
    model numbers, etc.), but tokens longer than ``MAX_TOKEN_LENGTH`` are
    dropped.  All downstream normalization (lowercasing, stopword removal,
    stemming) is the job of the analyzer chain, not the tokenizer.
    """

    _WORD = re.compile(r"[0-9A-Za-z]+(?:'[0-9A-Za-z]+)?")

    def tokenize(self, text: str) -> list[str]:
        """Split ``text`` into tokens, preserving order and duplicates."""
        if not text:
            return []
        return [
            match.group(0)
            for match in self._WORD.finditer(text)
            if len(match.group(0)) <= MAX_TOKEN_LENGTH
        ]
