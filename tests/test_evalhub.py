import math
import os
import re
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from bibclass import bayes, evalhub
from bibclass.bayes import CategoryModel, TextClassifierConfig, build_model
from bibclass.citegraph import CitationClassifierConfig, CitationGraph
from bibclass.corpus import BibRecord
from bibclass.errors import DataError, UsageError
from bibclass.evalhub import (
    MODES,
    Assignment,
    ParamPoint,
    SweepGrids,
    _assigned_sets,
    _pairs,
    citation_score_table,
    classify_corpus,
    emit_grid_csv,
    evaluate,
    sweep,
    text_score_table,
)
from bibclass.textpipe import TokenizerConfig

PLAIN = TokenizerConfig()


def record(rid, text, labels=()):
    return BibRecord(id=rid, title=text, year=1997, gold_labels=frozenset(labels))


@pytest.fixture()
def setup():
    records = [
        record("r1", "galaxy galaxy quasar star galaxy", ["astro"]),
        record("r2", "quantum lattice phonon quantum boson", ["phys"]),
        record("r3", "galaxy star", ["astro"]),  # too short for text
        record("r4", "quantum galaxy star quasar lattice", []),
    ]
    model = build_model(
        [
            record("t1", "galaxy star quasar galaxy nebula", ["astro"]),
            record("t2", "quantum lattice phonon boson fermion", ["phys"]),
        ],
        ("astro", "phys"),
        PLAIN,
    )
    graph = CitationGraph(
        citers={
            "r3": frozenset({"c1", "c2", "c3", "c4"}),
            "r2": frozenset({"c5", "c6"}),
        },
        memberships={
            "c1": frozenset({"astro"}),
            "c2": frozenset({"astro"}),
            "c3": frozenset({"astro"}),
            "c4": frozenset(),
            "c5": frozenset({"phys"}),
            "c6": frozenset({"phys"}),
        },
        databases=("astro", "phys"),
    )
    text_config = TextClassifierConfig(min_words=4, score_threshold=0.6)
    cite_config = CitationClassifierConfig(min_citations=2, ratio_threshold=0.5)
    return records, model, graph, text_config, cite_config


class TestAssignment:
    def test_databases_are_the_union(self):
        a = Assignment(
            record_id="r",
            via_text=frozenset({"astro"}),
            via_citation=frozenset({"phys"}),
        )
        assert a.databases == frozenset({"astro", "phys"})

    def test_fields_equality_and_hash(self):
        a = Assignment("r", frozenset({"astro"}), frozenset())
        assert Assignment._fields == ("record_id", "via_text", "via_citation")
        same = Assignment(record_id="r", via_text=frozenset({"astro"}), via_citation=frozenset())
        assert a == same and hash(a) == hash(same)
        assert a != Assignment("r", frozenset(), frozenset({"astro"}))
        assert a != Assignment("s", frozenset({"astro"}), frozenset())
        with pytest.raises(AttributeError):
            a.databases = frozenset()


def inputs(setup):
    """The keyword arguments classify_corpus and evaluate take, from the fixture."""
    _, model, graph, text_config, cite_config = setup
    return dict(
        model=model,
        text_config=text_config,
        tokenizer_config=PLAIN,
        graph=graph,
        cite_config=cite_config,
    )


def reference_text_table(records, model, text_config):
    """Token count and boosted scores per record, in record order, through the oracles only."""
    triggers, boost = text_config.triggers, text_config.trigger_boost
    return oracles.text_table_reference(records, model, triggers, boost, set(), set())


def reference_point(setup):
    _, _, _, text_config, cite_config = setup
    return (
        text_config.min_words,
        text_config.score_threshold,
        cite_config.min_citations,
        cite_config.ratio_threshold,
    )


class TestCombinedDecision:
    def test_union_rescues_short_records(self, setup):
        records = setup[0]
        by_id = {a.record_id: a for a in classify_corpus(records, **inputs(setup))}
        a = by_id["r3"]
        assert a.via_text == frozenset()
        assert a.via_citation == frozenset({"astro"})
        assert a.databases == frozenset({"astro"})

    def test_both_routes_can_agree(self, setup):
        records = setup[0]
        by_id = {a.record_id: a for a in classify_corpus(records, **inputs(setup))}
        a = by_id["r2"]
        assert a.via_text == frozenset({"phys"})
        assert a.via_citation == frozenset({"phys"})


class TestClassifyCorpus:
    def test_combined_matches_per_record_reference(self, setup):
        records, model, graph, text_config, _ = setup
        got = classify_corpus(records, mode="combined", **inputs(setup))
        text_table = reference_text_table(records, model, text_config)
        cite_table = oracles.table_rows(citation_score_table(records, graph))
        assert [a.record_id for a in got] == [r.id for r in records]
        for i, a in enumerate(got):
            want = oracles.assign_reference(
                i, "combined", ("astro", "phys"), text_table, cite_table, reference_point(setup)
            )
            assert (a.via_text, a.via_citation) == want

    def test_records_sharing_an_id_are_scored_apart(self):
        model = build_model(
            [
                record("t1", "galaxy star quasar galaxy nebula", ["astro"]),
                record("t2", "protein enzyme cell protein gene", ["bio"]),
            ],
            ("astro", "bio"),
            PLAIN,
        )
        records = [
            record("a", "galaxy galaxy quasar star nebula"),
            record("a", "protein enzyme gene cell protein"),
        ]
        got = classify_corpus(
            records,
            mode="text",
            model=model,
            text_config=TextClassifierConfig(score_threshold=0.5),
            tokenizer_config=PLAIN,
        )
        assert [a.via_text for a in got] == [frozenset({"astro"}), frozenset({"bio"})]

    def test_text_mode_matches_per_record_reference(self, setup):
        records, model, _, text_config, _ = setup
        got = classify_corpus(
            records,
            mode="text",
            model=model,
            text_config=text_config,
            tokenizer_config=PLAIN,
        )
        text_table = reference_text_table(records, model, text_config)
        assert [a.record_id for a in got] == [r.id for r in records]
        for i, a in enumerate(got):
            want, _ = oracles.assign_reference(
                i, "text", ("astro", "phys"), text_table, None, reference_point(setup)
            )
            assert a.via_text == want
            assert a.via_citation == frozenset()

    def test_citation_mode_matches_raw_recount(self, setup):
        records, _, graph, _, cite_config = setup
        got = classify_corpus(
            records, mode="citation", graph=graph, cite_config=cite_config
        )
        edges = [(c, cited) for cited, citing in graph.citers.items() for c in citing]
        assert [a.record_id for a in got] == [r.id for r in records]
        for a, r in zip(got, records):
            want = oracles.citation_assignments(
                edges,
                graph.memberships,
                set(graph.memberships),
                graph.databases,
                r.id,
                cite_config.min_citations,
                cite_config.ratio_threshold,
            )
            assert a.via_citation == want
            assert a.via_text == frozenset()

    def test_graph_without_databases_keeps_every_record(self, setup):
        records, _, graph, _, cite_config = setup
        bare = CitationGraph(citers=graph.citers, memberships=graph.memberships)
        got = classify_corpus(records, mode="citation", graph=bare, cite_config=cite_config)
        assert got == [Assignment(r.id, frozenset(), frozenset()) for r in records]

    def test_unknown_mode_rejected(self, setup):
        records, model, graph, text_config, cite_config = setup
        with pytest.raises(UsageError):
            classify_corpus(records, mode="psychic")

    def test_missing_inputs_rejected(self, setup):
        records, model, graph, text_config, cite_config = setup
        with pytest.raises(UsageError):
            classify_corpus(records, mode="text")

    def test_citation_mode_without_a_graph_rejected(self, setup):
        records, model, graph, text_config, cite_config = setup
        with pytest.raises(UsageError, match="mode 'citation' needs a citation graph$"):
            classify_corpus(records, mode="citation", cite_config=cite_config)

    @pytest.mark.parametrize("graph_dbs", [("physics",), ("astronomy", "physics", "optics")])
    def test_model_and_graph_must_name_the_same_databases(self, graph_dbs):
        model = build_model(
            [
                record("t1", "galaxy star quasar", ["astronomy"]),
                record("t2", "quantum lattice phonon", ["physics"]),
            ],
            ("astronomy", "physics"),
            PLAIN,
        )
        graph = CitationGraph(
            citers={"r1": frozenset({"c1"})},
            memberships={"c1": frozenset({"physics"})},
            databases=graph_dbs,
        )
        records = [record("r1", "galaxy star quasar galaxy", ["astronomy"])]
        inputs = dict(
            model=model,
            text_config=TextClassifierConfig(min_words=1),
            tokenizer_config=PLAIN,
            graph=graph,
            cite_config=CitationClassifierConfig(min_citations=1),
        )
        names_both = re.escape(
            f"model databases ['astronomy', 'physics'] differ from "
            f"citation graph databases {list(graph_dbs)}"
        )
        with pytest.raises(UsageError, match=names_both):
            classify_corpus(records, mode="combined", **inputs)
        grids = SweepGrids((1,), (0.5,), (1,), (0.5,))
        with pytest.raises(UsageError, match=names_both):
            sweep(records, grids, mode="combined", db="physics", **inputs)


def cited_by_astro(records, cited_ids):
    """``records`` where each id in ``cited_ids`` has one citer, in astro."""
    graph = CitationGraph(
        citers={rid: frozenset({"c1"}) for rid in cited_ids},
        memberships={"c1": frozenset({"astro"})},
        databases=("astro", "phys"),
    )
    cite_config = CitationClassifierConfig(min_citations=1, ratio_threshold=0.5)
    return evaluate(records, mode="citation", graph=graph, cite_config=cite_config)


class TestEvaluate:
    def test_direct_counting(self):
        records = [
            record("r1", "t", ["astro"]),
            record("r2", "t"),
            record("r3", "t", ["astro"]),
        ]
        report = cited_by_astro(records, ["r1", "r2"])[0]
        assert report.db == "astro"
        assert (report.tp, report.fp, report.fn) == (1, 1, 1)
        assert report.precision == pytest.approx(0.5)
        assert report.recall == pytest.approx(0.5)

    def test_zero_assignments_give_precision_one(self):
        report = cited_by_astro([record("r1", "t", ["astro"])], [])[0]
        assert report.precision == 1.0
        assert report.recall == 0.0

    def test_no_gold_positives_give_recall_one(self):
        report = cited_by_astro([record("r1", "t")], [])[0]
        assert report.precision == 1.0
        assert report.recall == 1.0

    def test_conservation_against_gold_positives(self, setup):
        records = setup[0]
        reports = evaluate(records, mode="combined", **inputs(setup))
        assert [r.db for r in reports] == ["astro", "phys"]
        for report in reports:
            positives = sum(1 for r in records if report.db in r.gold_labels)
            assert report.tp + report.fn == positives

    def test_unlabeled_record_is_a_negative(self):
        # Gold labels come from the records themselves, so no record lacks them.
        report = cited_by_astro([record("mystery", "t")], ["mystery"])[0]
        assert (report.tp, report.fp, report.fn) == (0, 1, 0)


# The config and field that own each grid of SweepGrids, in its order.
_GRID_OWNERS = [
    (TextClassifierConfig, "min_words"),
    (TextClassifierConfig, "score_threshold"),
    (CitationClassifierConfig, "min_citations"),
    (CitationClassifierConfig, "ratio_threshold"),
]
# Per grid: values at and inside the edges of its config's range, then values
# below it, above it (where the range has an upper end), NaN and both infinities.
_NON_FINITE = [math.nan, math.inf, -math.inf]
_GRID_EDGES = [
    ([0, 2.5, 10**6], [-1, -0.5, *_NON_FINITE]),
    ([0.0, -0.0, 1e-9, 1.0], [-1e-9, 1.5, 1 + 1e-9, *_NON_FINITE]),
    ([1, 1.5, 10**6], [0, 0.5, -1, *_NON_FINITE]),
    ([1e-9, 0.5, 1.0], [0.0, -0.5, 1.5, 1 + 1e-9, *_NON_FINITE]),
]


class TestSweep:
    def test_single_point_grid_matches_direct_call(self, setup):
        records, model, graph, text_config, cite_config = setup
        grids = SweepGrids(
            min_words=(text_config.min_words,),
            score_thresholds=(text_config.score_threshold,),
            min_citations=(cite_config.min_citations,),
            ratio_thresholds=(cite_config.ratio_threshold,),
        )
        grid = sweep(
            records,
            grids,
            mode="combined",
            db="astro",
            model=model,
            text_config=text_config,
            tokenizer_config=PLAIN,
            graph=graph,
            cite_config=cite_config,
        )
        assert len(grid.reports) == 1
        assignments = classify_corpus(records, mode="combined", **inputs(setup))
        assigned = {a.record_id: a.databases for a in assignments}
        gold = {r.id: r.gold_labels for r in records}
        direct = oracles.precision_recall_counts(assigned, gold, "astro")
        report = grid.reports[0]
        assert (report.tp, report.fp, report.fn, report.precision, report.recall) == direct
        assert report.params == ParamPoint(4, 0.6, 2, 0.5)

    def test_rows_in_lexicographic_parameter_order(self, setup):
        records, model, graph, text_config, cite_config = setup
        grids = SweepGrids(
            min_words=(5, 1),
            score_thresholds=(0.75, 0.25),
            min_citations=(2,),
            ratio_thresholds=(0.5,),
        )
        grid = sweep(
            records,
            grids,
            mode="combined",
            db="astro",
            model=model,
            text_config=text_config,
            tokenizer_config=PLAIN,
            graph=graph,
            cite_config=cite_config,
        )
        points = [r.params for r in grid.reports]
        assert points == sorted(points)
        assert points[0] == ParamPoint(1, 0.25, 2, 0.5)

    def test_duplicate_grid_values_collapse(self, setup):
        records, model, graph, text_config, cite_config = setup
        grids = SweepGrids((3, 3), (0.5, 0.5), (2,), (0.5,))
        grid = sweep(
            records,
            grids,
            mode="combined",
            db="astro",
            model=model,
            text_config=text_config,
            tokenizer_config=PLAIN,
            graph=graph,
            cite_config=cite_config,
        )
        assert len(grid.reports) == 1

    def test_grids_are_sorted_copies_without_repeats(self, setup):
        records, model, graph, text_config, cite_config = setup
        lists = [[5, 1, 5], [0.75, 0.25, 0.75], [2], [0.5, 0.5]]
        grids = SweepGrids(*lists)
        kept = ((1, 5), (0.25, 0.75), (2,), (0.5,))
        assert tuple(getattr(grids, name) for name in SweepGrids._fields) == kept
        for values in lists:
            values.append(math.nan)
        assert grids == SweepGrids(*kept)
        grid = sweep(
            records,
            grids,
            mode="combined",
            db="astro",
            model=model,
            text_config=text_config,
            tokenizer_config=PLAIN,
            graph=graph,
            cite_config=cite_config,
        )
        assert [r.params for r in grid.reports] == list(product(*kept))

    def test_citation_mode_sweeps_the_text_grids_too(self, setup):
        records, _, graph, _, cite_config = setup
        lists = ((1, 9), (0.1, 0.9), (1, 5), (0.5,))
        grid = sweep(
            records,
            SweepGrids(*lists),
            mode="citation",
            db="astro",
            graph=graph,
            cite_config=cite_config,
        )
        # Every point of the product; each text pair repeats the citation counts.
        assert [r.params for r in grid.reports] == list(product(*lists))
        counts = [(r.tp, r.fp, r.fn) for r in grid.reports]
        grids = SweepGrids((5,), (0.25,), (1, 5), (0.5,))
        one_text_pair = sweep(records, grids, mode="citation", db="astro", graph=graph)
        assert counts == [(r.tp, r.fp, r.fn) for r in one_text_pair.reports] * 4
        assert counts[0] != counts[1]

    def test_text_mode_sweeps_the_citation_grids_too(self, setup):
        records, model, _, text_config, _ = setup
        lists = ((1,), (0.25, 0.75), (1, 5), (0.25, 0.75))
        grid = sweep(
            records,
            SweepGrids(*lists),
            mode="text",
            db="astro",
            model=model,
            text_config=text_config,
            tokenizer_config=PLAIN,
        )
        # Every point of the product; each citation pair repeats the text counts.
        assert [r.params for r in grid.reports] == list(product(*lists))
        counts = [(r.tp, r.fp, r.fn) for r in grid.reports]
        assert counts == [counts[0]] * 4 + [counts[4]] * 4
        assert counts[0] != counts[4]

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_grid_value_rejected(self, position, bad):
        lists = [[5], [0.5, 0.25, 0.75], [4], [0.5]]
        lists[position].insert(1, bad)
        name = SweepGrids._fields[position]
        with pytest.raises(UsageError, match=f"^value {bad!r} in sweep grid for {name}: "):
            SweepGrids(*map(tuple, lists))

    @pytest.mark.parametrize(
        "position,value,refused",
        [
            (position, value, bool(refused))
            for position, values in enumerate(_GRID_EDGES)
            for refused, group in enumerate(values)
            for value in group
        ],
    )
    def test_refuses_exactly_what_the_owning_config_refuses(self, position, value, refused):
        owner, field = _GRID_OWNERS[position]
        name = SweepGrids._fields[position]
        lists = [[5], [0.5, 0.25], [4], [0.5]]
        lists[position].insert(1, value)
        if not refused:
            owner(**{field: value})
            assert value in getattr(SweepGrids(*lists), name)
            return
        with pytest.raises(ValueError) as config_error:
            owner(**{field: value})
        with pytest.raises(UsageError) as grid_error:
            SweepGrids(*lists)
        want = f"value {value!r} in sweep grid for {name}: {config_error.value}"
        assert str(grid_error.value) == want

    def test_signed_zero_and_bool_are_kept_as_plain_numbers(self, setup, tmp_path):
        records, model, _, text_config, _ = setup
        grids = SweepGrids((True,), (-0.0, 0.0, 0.25), (4,), (0.5,))
        assert grids.score_thresholds == (0.0, 0.25)
        assert math.copysign(1.0, grids.score_thresholds[0]) == 1.0
        assert [(type(v), v) for v in grids.min_words] == [(int, 1)]
        grid = sweep(
            records,
            grids,
            mode="text",
            db="astro",
            model=model,
            text_config=text_config,
            tokenizer_config=PLAIN,
        )
        out = tmp_path / "grid.csv"
        emit_grid_csv(grid, out)
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert [row.split(",")[2:4] for row in rows] == [["1", "0.000000"], ["1", "0.250000"]]

    def test_an_iterator_grid_is_kept_whole(self):
        grids = SweepGrids((v for v in [3, 1]), iter([0.5, 0.25]), map(int, "52"), [0.5, 0.5])
        assert grids == SweepGrids((1, 3), (0.25, 0.5), (2, 5), (0.5,))

    def test_empty_grid_rejected(self):
        with pytest.raises(UsageError):
            SweepGrids((), (0.5,), (1,), (0.5,))

    @pytest.mark.parametrize("mode", MODES)
    def test_unknown_database_rejected_before_scoring(self, setup, monkeypatch, mode):
        records, model, graph, text_config, cite_config = setup

        def fail(*args):
            raise AssertionError("a record was scored")

        monkeypatch.setattr(evalhub, "text_score_table", fail)
        monkeypatch.setattr(evalhub, "citation_score_table", fail)
        grids = SweepGrids((1,), (0.5,), (1,), (0.5,))
        message = re.escape("database 'nope' is not in the configured set ['astro', 'phys']")
        with pytest.raises(DataError, match=message):
            sweep(
                records,
                grids,
                mode=mode,
                db="nope",
                model=model,
                text_config=text_config,
                tokenizer_config=PLAIN,
                graph=graph,
                cite_config=cite_config,
            )

    def test_recall_never_rises_with_stricter_thresholds(self, setup):
        records, model, graph, text_config, cite_config = setup
        grids = SweepGrids((0, 2, 4, 6), (0.1, 0.4, 0.7), (1, 3, 5), (0.25, 0.5, 1.0))
        grid = sweep(
            records,
            grids,
            mode="combined",
            db="astro",
            model=model,
            text_config=text_config,
            tokenizer_config=PLAIN,
            graph=graph,
            cite_config=cite_config,
        )
        by_point = {r.params: r for r in grid.reports}
        for point, report in by_point.items():
            for field, step in (
                ("min_words", 2),
                ("score_threshold", 0.3),
                ("min_citations", 2),
                ("ratio_threshold", 0.25),
            ):
                looser = point._asdict()
                stricter = dict(looser)
                stricter[field] = looser[field] + step
                neighbor = by_point.get(ParamPoint(**stricter))
                if neighbor is not None:
                    assert neighbor.recall <= report.recall


class TestMissingConfigs:
    @pytest.mark.parametrize("mode", MODES)
    def test_a_missing_config_means_its_defaults(self, setup, mode):
        records, model, graph, _, _ = setup
        scoring = dict(mode=mode, model=model, tokenizer_config=PLAIN, graph=graph)
        defaults = dict(text_config=TextClassifierConfig(), cite_config=CitationClassifierConfig())
        grids = SweepGrids((0, 5), (0.25, 0.6), (1, 4), (0.5, 0.75))
        for call in (classify_corpus, evaluate):
            assert call(records, **scoring) == call(records, **scoring, **defaults)
        assert sweep(records, grids, db="astro", **scoring) == sweep(
            records, grids, db="astro", **scoring, **defaults
        )
        (report, _) = evaluate(records, **scoring)
        assert report.params == ParamPoint(5, 0.25, 4, 0.5)

    @pytest.mark.parametrize("mode", ["text", "combined"])
    @pytest.mark.parametrize("trigger_db", ["nope", "astro "])
    def test_trigger_database_outside_the_model_rejected_before_scoring(
        self, setup, monkeypatch, mode, trigger_db
    ):
        records, model, graph, _, cite_config = setup

        def fail(*args):
            raise AssertionError("a record was scored")

        monkeypatch.setattr(evalhub, "text_score_table", fail)
        monkeypatch.setattr(evalhub, "citation_score_table", fail)
        triggers = {"astro": frozenset({"quasar"}), trigger_db: frozenset({"galaxy"})}
        message = re.escape(f"trigger database '{trigger_db}' is not one of ['astro', 'phys']")
        with pytest.raises(UsageError, match=f"^{message}$"):
            classify_corpus(
                records,
                mode=mode,
                model=model,
                text_config=TextClassifierConfig(triggers=triggers),
                tokenizer_config=PLAIN,
                graph=graph,
                cite_config=cite_config,
            )

    def test_citation_mode_reads_no_trigger(self, setup):
        records, _, graph, _, cite_config = setup
        inputs = dict(mode="citation", graph=graph, cite_config=cite_config)
        unused = TextClassifierConfig(triggers={"nope": frozenset({"galaxy"})})
        got = classify_corpus(records, text_config=unused, **inputs)
        assert got == classify_corpus(records, **inputs)


_DBS = ("astro", "phys")
_VOCAB = ["galaxy", "quasar", "star", "nebula", "quantum", "lattice", "phonon", "boson"]
_CITERS = [f"c{i}" for i in range(6)]
_MODEL = build_model(
    [
        record("t1", "galaxy star quasar galaxy nebula", ["astro"]),
        record("t2", "quantum lattice phonon boson", ["phys"]),
        record("t3", "galaxy quantum star lattice", ["astro", "phys"]),
    ],
    _DBS,
    PLAIN,
)
_TRIGGERED = TextClassifierConfig(triggers={"astro": frozenset({"nebula"})})


@st.composite
def sweep_corpora(draw):
    """Records of 0-8 words with random labels, each cited by 0-6 of a few citers."""
    records = [
        record(
            f"r{i}",
            " ".join(draw(st.lists(st.sampled_from(_VOCAB), max_size=8))),
            draw(st.sets(st.sampled_from(_DBS))),
        )
        for i in range(draw(st.integers(0, 12)))
    ]
    graph = CitationGraph(
        citers={r.id: frozenset(draw(st.sets(st.sampled_from(_CITERS)))) for r in records},
        memberships={c: frozenset(draw(st.sets(st.sampled_from(_DBS)))) for c in _CITERS},
        databases=_DBS,
    )
    return records, graph


def recorded_values(text_table, cite_table):
    """Every recorded token count, text score, citer count and citation ratio."""
    return (
        [n for n, _ in text_table],
        [s[d] for _, s in text_table for d in _DBS],
        [n for n, _ in cite_table],
        [r[d] for _, r in cite_table for d in _DBS],
    )


def draw_configs(data, text_table, cite_table):
    """Base configs whose four decision values include recorded ones."""
    counts, scores, totals, ratios = recorded_values(text_table, cite_table)
    text_config = TextClassifierConfig(
        min_words=data.draw(st.sampled_from(sorted(set(counts) | {0, 9}))),
        score_threshold=data.draw(st.sampled_from(sorted({s for s in scores if s <= 1} | {0.5}))),
        triggers=_TRIGGERED.triggers,
    )
    cite_config = CitationClassifierConfig(
        min_citations=data.draw(st.sampled_from(sorted({n for n in totals if n} | {1, 7}))),
        ratio_threshold=data.draw(st.sampled_from(sorted({r for r in ratios if r} | {1.0}))),
    )
    point = (
        text_config.min_words,
        text_config.score_threshold,
        cite_config.min_citations,
        cite_config.ratio_threshold,
    )
    return text_config, cite_config, point


class TestSweepProperties:
    @given(case=sweep_corpora(), mode=st.sampled_from(MODES), db=st.sampled_from(_DBS), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_equals_per_point_reference(self, case, mode, db, data):
        records, graph = case
        text_table = oracles.table_rows(text_score_table(records, _MODEL, _TRIGGERED, PLAIN))
        cite_table = oracles.table_rows(citation_score_table(records, graph))
        counts, scores, totals, ratios = recorded_values(text_table, cite_table)

        def values(seen, extra):
            # Grid values hit recorded counts, scores and ratios exactly and
            # repeat; only values the configs accept are drawn, so no citer
            # count 0 or ratio 0.0.  9 words and 7 citers go past every
            # recorded count, where a classifier assigns nothing.
            return st.lists(st.sampled_from(sorted(set(seen) | set(extra))), min_size=1, max_size=5)

        lists = [
            data.draw(values(counts, [0, 3, 9])),
            data.draw(values(scores, [0.0, 0.5, 1.0])),
            data.draw(values({n for n in totals if n}, [1, 2, 7])),
            data.draw(values({r for r in ratios if r}, [0.25, 0.5, 1.0])),
        ]
        grids = SweepGrids(*lists)
        text_config, cite_config, _ = draw_configs(data, text_table, cite_table)
        grid = sweep(
            records,
            grids,
            mode=mode,
            db=db,
            model=_MODEL,
            text_config=text_config,
            tokenizer_config=PLAIN,
            graph=graph,
            cite_config=cite_config,
        )
        want = oracles.sweep_reference(records, mode, db, _DBS, text_table, cite_table, lists)
        got = [(r.tp, r.fp, r.fn, r.precision, r.recall, r.params) for r in grid.reports]
        assert got == want


# Values a threshold is drawn from too, so records often sit exactly on it.
_LEVELS = [0.0, 0.25, 1 / 3, 0.5, 1.0]


class TestOneDecisionRule:
    @given(
        n=st.integers(0, 12),
        databases=st.sampled_from([(), ("astro",), _DBS, ("astro", "phys", "bio")]),
        used=st.booleans(),
        gate=st.integers(0, 6),
        threshold=st.sampled_from(_LEVELS),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_assigned_sets_and_masks_agree(self, n, databases, used, gate, threshold, data):
        counts = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        values = st.lists(st.sampled_from(_LEVELS), min_size=n, max_size=n)
        table = (counts, {db: data.draw(values) for db in databases}) if used else None
        sets = _assigned_sets(table, databases, gate, threshold, n)
        assert len(sets) == n
        assert all(isinstance(s, frozenset) and s <= set(databases) for s in sets)
        for db in databases:
            ((pair, mask),) = _pairs(table, db, [gate], [threshold])
            assert pair == (gate, threshold)
            assert mask >> n == 0
            assert [db in s for s in sets] == [bool(mask >> i & 1) for i in range(n)]
        if table is None:
            assert sets == [frozenset()] * n


class TestOnePathProperties:
    @given(case=sweep_corpora(), mode=st.sampled_from(MODES), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_classify_and_evaluate_equal_the_references(self, case, mode, data):
        records, graph = case
        text_table = oracles.table_rows(text_score_table(records, _MODEL, _TRIGGERED, PLAIN))
        cite_table = oracles.table_rows(citation_score_table(records, graph))
        text_config, cite_config, point = draw_configs(data, text_table, cite_table)
        inputs = dict(
            model=_MODEL,
            text_config=text_config,
            tokenizer_config=PLAIN,
            graph=graph,
            cite_config=cite_config,
        )

        got = [
            (a.record_id, a.via_text, a.via_citation)
            for a in classify_corpus(records, mode=mode, **inputs)
        ]
        want = [
            (r.id, *oracles.assign_reference(i, mode, _DBS, text_table, cite_table, point))
            for i, r in enumerate(records)
        ]
        assert got == want

        reports = evaluate(records, mode=mode, **inputs)
        assert [r.db for r in reports] == list(_DBS)
        for r in reports:
            (want_row,) = oracles.sweep_reference(
                records, mode, r.db, _DBS, text_table, cite_table, [[v] for v in point]
            )
            assert (r.tp, r.fp, r.fn, r.precision, r.recall, r.params) == want_row


# Model terms: plain words, folded forms of non-ASCII words, compounds'
# joined forms and parts, a stop word and an alphanumeric mix.
_TERMS = ["galaxy", "quasar", "lattice", "naive", "erosion", "film", "xray", "x", "ray"]
_TERMS += ["signaltonoise", "noise", "the", "ngc4258"]
_STOP_WORDS = ["the", "of", "x", "to"]
# "book review" cascades through "book book review review", and a dropped
# stop word, digit or short token between its words exposes it too.
_STOP_PHRASES = ["book review", "in brief", "news in brief", "erratum"]
# Text pieces: mixed case, folded and unseen words, compounds, digit-only
# tokens, stop words and phrases, and phrases split by something filtered.
_PIECES = ["Galaxy", "quasar", "LATTICE", "na\u00efve", "\u00c9rosion", "\ufb01lm", "neutrino"]
_PIECES += ["X-ray", "signal-to-noise", "galaxy-quasar", "-ray-", "42", "1997", "ngc4258"]
_PIECES += ["the", "of", "x", "ab", "book review", "book book review review", "News in Brief"]
_PIECES += ["book the review", "book 42 review", "book x review", "in of brief", "erratum"]
_SEPARATORS = [" ", ", ", "-", "--", ". ", "\t", " \u2014 ", "/"]


@st.composite
def scoring_models(draw):
    """Random models with 1-3 databases, any of which may have no documents or terms.

    Some database has documents and some term a positive count, since a
    model without either cannot be constructed.
    """
    databases = tuple(f"db{i}" for i in range(draw(st.integers(1, 3))))
    term_counts = {
        db: draw(st.dictionaries(st.sampled_from(_TERMS), st.integers(0, 9), max_size=8))
        for db in databases
    }
    doc_counts = {db: draw(st.integers(0, 4)) for db in databases}
    doc_counts[draw(st.sampled_from(databases))] = draw(st.integers(1, 4))
    term_counts[draw(st.sampled_from(databases))][draw(st.sampled_from(_TERMS))] = draw(
        st.integers(1, 9)
    )
    return CategoryModel(
        databases=databases,
        term_counts=term_counts,
        doc_counts=doc_counts,
        smoothing_alpha=draw(st.sampled_from([1.0, 0.5, 2.0, 1e-3])),
    )


scoring_texts = st.lists(
    st.tuples(st.sampled_from(_PIECES), st.sampled_from(_SEPARATORS)).map("".join), max_size=12
).map("".join)


class TestTextScoreTableProperties:
    @given(
        model=scoring_models(),
        texts=st.lists(scoring_texts, max_size=6),
        stop_words=st.sets(st.sampled_from(_STOP_WORDS)),
        stop_phrases=st.sets(st.sampled_from(_STOP_PHRASES)),
        triggered=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=400, deadline=None)
    def test_equals_the_reference_chain(
        self, model, texts, stop_words, stop_phrases, triggered, data
    ):
        records = [record(f"r{i}", text) for i, text in enumerate(texts)]
        tokenizer_config = TokenizerConfig(
            stop_words=frozenset(stop_words),
            stop_phrases=frozenset(stop_phrases),
        )
        triggers = {}
        if triggered:
            triggers = data.draw(
                st.dictionaries(
                    # A database the model lacks is ignored, by the table and the reference.
                    st.sampled_from([*model.databases, "elsewhere"]),
                    st.frozensets(st.sampled_from(["galaxy", "xray", "naive", "ray"]), min_size=1),
                    min_size=1,
                )
            )
        text_config = TextClassifierConfig(
            triggers=triggers, trigger_boost=data.draw(st.sampled_from([0.0, 0.25, 1.0]))
        )
        want = oracles.text_table_reference(
            records, model, triggers, text_config.trigger_boost, stop_words, stop_phrases
        )
        got = text_score_table(records, model, text_config, tokenizer_config)
        assert oracles.table_rows(got) == want

    @pytest.mark.parametrize("boost", [0.25, 1.0])
    def test_scores_by_columns_without_the_per_record_functions(self, setup, monkeypatch, boost):
        """No record is scored or boosted through ``score_text`` or ``apply_triggers``."""
        records, model, _, _, _ = setup
        records = [*records, record("r5", ""), record("r6", "boson nebula fermion")]

        def refuse(*args, **kwargs):
            raise AssertionError("a record was scored on its own")

        for module in (bayes, evalhub):
            for name in ("score_text", "apply_triggers"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        triggers = {
            "astro": frozenset({"quasar"}),
            "phys": frozenset({"boson", "neutrino"}),
            "elsewhere": frozenset({"galaxy"}),
        }
        text_config = TextClassifierConfig(triggers=triggers, trigger_boost=boost)
        want = oracles.text_table_reference(records, model, triggers, boost, set(), set())
        got = text_score_table(records, model, text_config, PLAIN)
        assert oracles.table_rows(got) == want
        assert [n for n, _ in want] == [5, 5, 2, 5, 0, 3]


class TestEmitGridCsv:
    def test_header_and_fixed_precision_rows(self, setup, tmp_path):
        records, model, graph, text_config, cite_config = setup
        grids = SweepGrids((4,), (0.6,), (2,), (0.5,))
        grid = sweep(
            records,
            grids,
            mode="combined",
            db="astro",
            model=model,
            text_config=text_config,
            tokenizer_config=PLAIN,
            graph=graph,
            cite_config=cite_config,
        )
        path = tmp_path / "grid.csv"
        emit_grid_csv(grid, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "mode,db,N_t,S_t,N_c,R_c,tp,fp,fn,precision,recall"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "combined"
        assert fields[1] == "astro"
        assert fields[2] == "4"
        assert fields[3] == "0.600000"
        assert 0.0 <= float(fields[9]) <= 1.0
        assert 0.0 <= float(fields[10]) <= 1.0

    def test_reruns_are_byte_identical(self, setup, tmp_path):
        records, model, graph, text_config, cite_config = setup
        grids = SweepGrids((1, 4), (0.25,), (2,), (0.5,))
        outs = []
        for name in ("a.csv", "b.csv"):
            grid = sweep(
                records,
                grids,
                mode="combined",
                db="astro",
                model=model,
                text_config=text_config,
                tokenizer_config=PLAIN,
                graph=graph,
                cite_config=cite_config,
            )
            emit_grid_csv(grid, tmp_path / name)
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]

    def test_empty_grid_rejected(self):
        from bibclass.evalhub import SweepGrid

        with pytest.raises(UsageError):
            emit_grid_csv(SweepGrid(mode="text", db="astro", reports=()), "/tmp/nope.csv")

    def test_failed_replace_keeps_the_old_file(self, setup, tmp_path, monkeypatch):
        records, model, graph, text_config, cite_config = setup
        grid = sweep(
            records,
            SweepGrids((4,), (0.6,), (2,), (0.5,)),
            mode="combined",
            db="astro",
            model=model,
            text_config=text_config,
            tokenizer_config=PLAIN,
            graph=graph,
            cite_config=cite_config,
        )
        path = tmp_path / "grid.csv"
        path.write_text("sentinel\n", encoding="utf-8")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(DataError, match="disk full"):
            emit_grid_csv(grid, path)
        assert path.read_text(encoding="utf-8") == "sentinel\n"
        assert [p.name for p in tmp_path.iterdir()] == ["grid.csv"]

    def test_unwritable_path_is_a_data_error(self, setup, tmp_path, monkeypatch):
        records, model, graph, text_config, cite_config = setup
        grids = SweepGrids((4,), (0.6,), (2,), (0.5,))
        grid = sweep(
            records,
            grids,
            mode="combined",
            db="astro",
            model=model,
            text_config=text_config,
            tokenizer_config=PLAIN,
            graph=graph,
            cite_config=cite_config,
        )
        monkeypatch.chdir(tmp_path)
        (tmp_path / "file").write_text("sentinel\n", encoding="utf-8")
        # A missing directory, a regular file as the directory, a name longer
        # than the file system allows, and paths that name no file.
        unwritable = (tmp_path / "missing" / "grid.csv", "file/grid.csv", "n" * 256)
        for path in (*unwritable, "", ".", "/", "x/", "x/."):
            with pytest.raises(DataError, match="cannot write grid CSV"):
                emit_grid_csv(grid, path)
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert (tmp_path / "file").read_text(encoding="utf-8") == "sentinel\n"
        # A name the file system takes is written, however long.
        emit_grid_csv(grid, "n" * 250)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "n" * 250]
        assert (tmp_path / ("n" * 250)).read_text(encoding="utf-8").startswith("mode,db,")
