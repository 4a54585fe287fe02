"""The citation graph and the citation classifier's decision parameters.

A record cited mostly from within one database is taken to belong to that
database.  The classifier needs enough citations to be meaningful
(``min_citations``) and a high enough fraction of them from the database
in question (``ratio_threshold``).  The fractions themselves are computed
by ``evalhub.citation_score_table`` and thresholded there, on the same
path as the text classifier's scores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Mapping


@dataclass
class CitationGraph:
    """Cited-id -> citing-ids mapping plus the citers' database memberships.

    ``citers`` becomes a new dict holding each cited id's citing ids as a
    frozenset.  ``memberships`` becomes a new dict holding exactly the
    citing ids, each with its memberships from the mapping given, or an
    empty set (papers that cite corpus records without belonging to any
    database still count toward citation totals).  The mappings given are
    not changed.  Instances are immutable after construction.
    """

    citers: Mapping[str, AbstractSet[str]]
    memberships: Mapping[str, frozenset[str]] = field(default_factory=dict)
    databases: tuple[str, ...] = ()

    def __post_init__(self):
        self.databases = tuple(self.databases)
        citers: dict[str, frozenset[str]] = {}
        for cited, citing in self.citers.items():
            citing = citers[cited] = frozenset(citing)
            if cited in citing:
                raise ValueError(f"self-citation in graph: '{cited}'")
        self.citers = citers
        given = self.memberships
        self.memberships = {
            c: given.get(c, frozenset()) for citing in self.citers.values() for c in citing
        }


@dataclass(frozen=True)
class CitationClassifierConfig:
    """Decision parameters for the citation classifier."""

    min_citations: int = 4
    ratio_threshold: float = 0.5

    def __post_init__(self):
        if self.min_citations < 1:
            raise ValueError("min_citations must be >= 1")
        if not 0.0 < self.ratio_threshold <= 1.0:
            raise ValueError("ratio_threshold must be in (0, 1]")

