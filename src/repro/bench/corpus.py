"""The benchmark corpus: XMark documents along the paper's size axis.

The paper's figures plot execution time against document size in
megabytes (1 … 30 MB, XMark factors 0.01 … 0.3).  Re-running the full
axis in pure Python is possible but slow, so the harness scales the axis
by ``REPRO_BENCH_SCALE`` (default 0.1): each corpus document keeps its
*nominal* size label — which also drives the baseline engines' document
size ceilings, so the "series stops at 10/20 MB" behaviour reproduces
regardless of scale — while its actual population is ``nominal x scale``.
Set ``REPRO_BENCH_SCALE=1.0`` to run the paper's full axis.

Documents are generated, parsed and indexed once per process and shared
by every benchmark module (module-level cache).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

from repro.mass.loader import load_xml
from repro.mass.store import MassStore
from repro.xmark.generator import generate_document
from repro.xmark.profile import factor_for_megabytes
from repro.xmlkit.dom import DomDocument, build_dom

#: The paper's document-size axis (Figures 12-16), in megabytes.
PAPER_SIZES_MB = (1, 2, 5, 10, 20, 30)

#: The paper's five benchmark queries (Section VIII).
PAPER_QUERIES = {
    "Q1": "//person/address",
    "Q2": "//watches/watch/ancestor::person",
    "Q3": "/descendant::name/parent::*/self::person/address",
    "Q4": "//itemref/following-sibling::price/parent::*",
    "Q5": "//province[text()='Vermont']/ancestor::person",
}

_MB = 1024 * 1024


def bench_scale() -> float:
    """The corpus down-scaling factor (``REPRO_BENCH_SCALE``, default 0.1)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))


def corpus_sizes() -> tuple[int, ...]:
    """The size labels to benchmark (``REPRO_BENCH_SIZES=1,2,5`` to narrow)."""
    raw = os.environ.get("REPRO_BENCH_SIZES")
    if not raw:
        return PAPER_SIZES_MB
    return tuple(int(part) for part in raw.split(",") if part.strip())


@dataclass(eq=False)  # identity hash: instances key the engine caches
class CorpusDocument:
    """One corpus entry: the document text plus both indexed forms."""

    nominal_mb: int
    factor: float
    text: str
    _store: MassStore | None = field(default=None, repr=False)
    _dom: DomDocument | None = field(default=None, repr=False)

    @property
    def nominal_bytes(self) -> int:
        """The size the paper's axis claims — drives baseline size caps."""
        return self.nominal_mb * _MB

    @property
    def actual_bytes(self) -> int:
        return len(self.text.encode("utf-8", errors="ignore"))

    @property
    def store(self) -> MassStore:
        """The MASS store (built lazily, cached)."""
        if self._store is None:
            self._store = load_xml(self.text, name=f"xmark-{self.nominal_mb}mb")
        return self._store

    @property
    def dom(self) -> DomDocument:
        """The DOM used by the baseline engines (built lazily, cached)."""
        if self._dom is None:
            self._dom = build_dom(self.text)
        return self._dom


@lru_cache(maxsize=None)
def get_corpus_document(nominal_mb: int, seed: int = 42) -> CorpusDocument:
    """Build (or fetch) the corpus document for one size label."""
    factor = factor_for_megabytes(nominal_mb) * bench_scale()
    text = generate_document(factor, seed=seed)
    return CorpusDocument(nominal_mb=nominal_mb, factor=factor, text=text)
