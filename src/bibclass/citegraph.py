"""The citation graph and the citation classifier's decision parameters.

A record cited mostly from within one database is taken to belong to that
database.  The classifier needs enough citations to be meaningful
(``min_citations``) and a high enough fraction of them from the database
in question (``ratio_threshold``).  The fractions themselves are computed
by ``evalhub.citation_score_table``, one list per database, and
thresholded there by the same rule as the text classifier's scores.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping

from bibclass.values import Value, finite


class CitationGraph(Value):
    """Cited-id -> citing-ids mapping plus the citers' database memberships.

    ``citers`` becomes a new dict holding each cited id's citing ids as a
    frozenset.  ``memberships`` becomes a new dict holding exactly the
    citing ids, each with its memberships from the mapping given, or an
    empty set (papers that cite corpus records without belonging to any
    database still count toward citation totals).  The mappings given are
    not changed.  Instances are frozen after construction.
    """

    __slots__ = _fields = ("citers", "memberships", "databases")

    def __init__(
        self,
        citers: Mapping[str, AbstractSet[str]],
        memberships: Mapping[str, frozenset[str]] | None = None,
        databases: tuple[str, ...] = (),
    ):
        self.databases = tuple(databases)
        self.citers: dict[str, frozenset[str]] = {}
        for cited, citing in citers.items():
            citing = self.citers[cited] = frozenset(citing)
            if cited in citing:
                raise ValueError(f"self-citation in graph: '{cited}'")
        given = memberships or {}
        self.memberships = {
            c: given.get(c, frozenset()) for citing in self.citers.values() for c in citing
        }


class CitationClassifierConfig(Value):
    """Decision parameters for the citation classifier."""

    __slots__ = _fields = ("min_citations", "ratio_threshold")

    def __init__(self, min_citations: int = 4, ratio_threshold: float = 0.5):
        if finite("min_citations", min_citations) < 1:
            raise ValueError(f"min_citations must be >= 1, got {min_citations!r}")
        if not 0.0 < finite("ratio_threshold", ratio_threshold) <= 1.0:
            raise ValueError(f"ratio_threshold must be in (0, 1], got {ratio_threshold!r}")
        self.min_citations = min_citations
        self.ratio_threshold = ratio_threshold
