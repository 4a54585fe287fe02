import random

import pytest

import oracles
import synth
from bibclass.citegraph import CitationClassifierConfig, CitationGraph
from bibclass.corpus import BibRecord, load_citations
from bibclass.evalhub import citation_score_table, classify_corpus


def rec(rid):
    return BibRecord(id=rid, title="t", year=1997)


def classify_citations(g, config, record_id):
    """One record's citation-classifier databases, through classify_corpus."""
    (a,) = classify_corpus([rec(record_id)], mode="citation", graph=g, cite_config=config)
    return a.via_citation


def graph():
    return CitationGraph(
        citers={
            "r1": frozenset({"c1", "c2", "c3", "c4"}),
            "r2": frozenset({"c1", "c5"}),
        },
        memberships={
            "c1": frozenset({"astro"}),
            "c2": frozenset({"astro", "phys"}),
            "c3": frozenset({"phys"}),
            "c4": frozenset(),
            "c5": frozenset({"astro"}),
        },
        databases=("astro", "phys"),
    )


class TestCitationScoreTable:
    def test_counts_each_citer_once(self):
        rows = oracles.table_rows(citation_score_table([rec("r1")], graph()))
        assert rows == [(4, {"astro": 0.5, "phys": 0.5})]

    def test_uncited_record_has_no_ratio(self):
        g = graph()
        g.citers["empty"] = frozenset()
        records = [rec("ghost"), rec("r1"), rec("empty")]
        assert oracles.table_rows(citation_score_table(records, g)) == [
            (0, {"astro": 0.0, "phys": 0.0}),
            (4, {"astro": 0.5, "phys": 0.5}),
            (0, {"astro": 0.0, "phys": 0.0}),
        ]

    def test_empty_membership_citers_dilute(self):
        # c4 has no memberships: it grows the denominator only.
        ((total, ratios),) = oracles.table_rows(citation_score_table([rec("r1")], graph()))
        assert total == 4
        assert ratios["astro"] == pytest.approx(2 / 4)


class TestCitationDecision:
    def test_threshold_is_inclusive(self):
        config = CitationClassifierConfig(min_citations=4, ratio_threshold=0.5)
        assert classify_citations(graph(), config, "r1") == {"astro", "phys"}

    def test_below_citation_gate_is_unclassifiable(self):
        config = CitationClassifierConfig(min_citations=3, ratio_threshold=0.5)
        assert classify_citations(graph(), config, "r2") == set()

    def test_ratio_below_threshold_not_assigned(self):
        config = CitationClassifierConfig(min_citations=4, ratio_threshold=0.75)
        assert classify_citations(graph(), config, "r1") == set()

    def test_uncited_record_never_assigned(self):
        config = CitationClassifierConfig(min_citations=1, ratio_threshold=0.1)
        assert classify_citations(graph(), config, "ghost") == set()

    def test_dual_membership_citer_counts_in_both(self):
        config = CitationClassifierConfig(min_citations=2, ratio_threshold=1.0)
        g = CitationGraph(
            citers={"r1": frozenset({"c1", "c2"})},
            memberships={
                "c1": frozenset({"astro", "phys"}),
                "c2": frozenset({"astro", "phys"}),
            },
            databases=("astro", "phys"),
        )
        assert classify_citations(g, config, "r1") == {"astro", "phys"}


class TestValidation:
    def test_memberships_given_are_left_unchanged(self):
        given = {"c1": frozenset({"astro"}), "x9": frozenset({"phys"})}
        g = CitationGraph(
            citers={"r1": frozenset({"c1", "c2"})}, memberships=given, databases=("astro",)
        )
        assert given == {"c1": frozenset({"astro"}), "x9": frozenset({"phys"})}
        assert g.memberships == {"c1": frozenset({"astro"}), "c2": frozenset()}
        assert g.memberships is not given

    def test_citer_sets_given_are_frozen_into_a_new_dict(self):
        given = {"r1": {"c1", "c2"}, "r2": {"c1"}}
        g = CitationGraph(citers=given, databases=("astro",))
        assert given == {"r1": {"c1", "c2"}, "r2": {"c1"}}
        assert all(type(s) is set for s in given.values())
        assert g.citers == {"r1": frozenset({"c1", "c2"}), "r2": frozenset({"c1"})}
        assert all(type(s) is frozenset for s in g.citers.values())
        assert g.citers is not given

    def test_self_citation_rejected(self):
        with pytest.raises(ValueError):
            CitationGraph(citers={"r1": frozenset({"r1"})})
        with pytest.raises(ValueError):
            CitationGraph(citers={"r1": {"c1", "r1"}})

    def test_min_citations_must_be_positive(self):
        with pytest.raises(ValueError):
            CitationClassifierConfig(min_citations=0)

    @pytest.mark.parametrize("gate", [float("nan"), float("inf"), float("-inf")])
    def test_min_citations_must_be_finite(self, gate):
        with pytest.raises(ValueError, match="min_citations must be finite"):
            CitationClassifierConfig(min_citations=gate)

    def test_a_finite_non_integer_gate_is_accepted(self):
        assert CitationClassifierConfig(min_citations=2.5).min_citations == 2.5

    @pytest.mark.parametrize("field", ["min_citations", "ratio_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_a_non_finite_value_is_refused_as_not_finite(self, field, value):
        with pytest.raises(ValueError) as refused:
            CitationClassifierConfig(**{field: value})
        assert str(refused.value) == f"{field} must be finite, got {value!r}"

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"min_citations": 0}, "min_citations must be >= 1, got 0"),
            ({"ratio_threshold": 0.0}, "ratio_threshold must be in (0, 1], got 0.0"),
        ],
    )
    def test_a_range_message_ends_with_the_value(self, kwargs, message):
        with pytest.raises(ValueError) as refused:
            CitationClassifierConfig(**kwargs)
        assert str(refused.value) == message

    @pytest.mark.parametrize("ratio", [0.0, 1.5, -0.1])
    def test_ratio_threshold_range(self, ratio):
        with pytest.raises(ValueError):
            CitationClassifierConfig(ratio_threshold=ratio)


class TestAgainstRawRecount:
    def test_matches_exhaustive_oracle_on_random_graphs(self, tmp_path):
        rng = random.Random(1702)
        for trial in range(25):
            edges, memberships, known, databases, cited_ids = synth.toy_graph_data(rng)
            path = tmp_path / f"edges{trial}.tsv"
            with open(path, "w", encoding="utf-8") as fh:
                for citing, cited in edges:
                    fh.write(f"{citing}\t{cited}\n")
            g, _ = load_citations(path, known, memberships, tuple(databases))
            config = CitationClassifierConfig(
                min_citations=rng.randint(1, 5),
                ratio_threshold=rng.choice([0.25, 0.5, 0.75, 1.0]),
            )
            records = [rec(rid) for rid in cited_ids]
            got = classify_corpus(records, mode="citation", graph=g, cite_config=config)
            assert [a.record_id for a in got] == cited_ids
            for a in got:
                want = oracles.citation_assignments(
                    edges,
                    memberships,
                    known,
                    databases,
                    a.record_id,
                    config.min_citations,
                    config.ratio_threshold,
                )
                assert a.via_citation == want
