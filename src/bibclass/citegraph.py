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


@dataclass
class CitationGraph:
    """Cited-id -> citing-ids mapping plus the citers' database memberships.

    Every citing id gets a membership entry (possibly empty: papers that
    cite corpus records without belonging to any database still count
    toward citation totals).  Instances are immutable after construction.
    """

    citers: dict[str, frozenset[str]]
    memberships: dict[str, frozenset[str]] = field(default_factory=dict)
    databases: tuple[str, ...] = ()

    def __post_init__(self):
        self.databases = tuple(self.databases)
        for cited, citing in self.citers.items():
            if cited in citing:
                raise ValueError(f"self-citation in graph: '{cited}'")
            for c in citing:
                self.memberships.setdefault(c, frozenset())


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

