"""English stopword list and a stopword token filter."""

from __future__ import annotations

# Lucene's classic English stopword set plus a handful of very common web
# terms.  Kept short on purpose: stopword removal only needs to strip the
# terms whose posting lists would otherwise dwarf everything else.
ENGLISH_STOPWORDS: frozenset[str] = frozenset(
    {
        "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "if",
        "in", "into", "is", "it", "no", "not", "of", "on", "or", "such",
        "that", "the", "their", "then", "there", "these", "they", "this",
        "to", "was", "will", "with", "we", "you", "your", "from", "have",
        "has", "had", "were", "been", "its", "his", "her", "she", "he",
    }
)


class StopwordFilter:
    """Removes :data:`ENGLISH_STOPWORDS` from a token stream.

    Matching is done on the token as given; place the filter after
    lowercasing in the analyzer chain.
    """

    def filter(self, tokens: list[str]) -> list[str]:
        """Return ``tokens`` with stopwords removed, order preserved."""
        return [token for token in tokens if token not in ENGLISH_STOPWORDS]
