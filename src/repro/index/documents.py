"""The document model."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Document:
    """A document entering the indexing pipeline.

    Attributes
    ----------
    doc_id:
        Globally unique integer id.  Global ids let the aggregator merge
        per-shard results and compare against exhaustive ground truth without
        a translation table.
    text:
        Raw body text (analyzed by the shard's analyzer at index time).
    title:
        Optional title, concatenated ahead of the body during analysis.
    topic:
        Optional topic label attached by the synthetic corpus generator;
        the topical document-allocation policy groups on it.
    """

    doc_id: int
    text: str
    title: str = ""
    topic: int | None = None

    def full_text(self) -> str:
        """Title + body as a single analyzable string."""
        if self.title:
            return f"{self.title} {self.text}"
        return self.text

