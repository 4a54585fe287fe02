import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import synth
from bibclass.bayes import (
    CategoryModel,
    TextClassifierConfig,
    apply_triggers,
    build_model,
    record_text,
    score_columns,
    score_text,
)
from bibclass.corpus import BibRecord
from bibclass.errors import DataError
from bibclass.evalhub import classify_corpus
from bibclass.textpipe import TokenizerConfig

PLAIN = TokenizerConfig()


def record(rid, text, labels=()):
    return BibRecord(id=rid, title=text, year=1997, gold_labels=frozenset(labels))


# The toy model's training tokens and labels, also recounted by the oracle.
TOY_TRAIN = [
    (["galaxy", "galaxy", "star"], ["astro"]),
    (["galaxy", "quasar"], ["astro"]),
    (["quantum", "quantum", "lattice"], ["phys"]),
]


def toy_model(alpha=1.0):
    records = [
        record(f"d{i}", " ".join(tokens), labels) for i, (tokens, labels) in enumerate(TOY_TRAIN)
    ]
    return build_model(records, ("astro", "phys"), PLAIN, alpha=alpha)


class TestBuildModel:
    def test_counts_per_database(self):
        model = toy_model()
        assert model.term_counts["astro"] == {"galaxy": 3, "star": 1, "quasar": 1}
        assert model.term_counts["phys"] == {"quantum": 2, "lattice": 1}
        assert model.total_tokens == {"astro": 5, "phys": 3}
        assert model.doc_counts == {"astro": 2, "phys": 1}
        assert model.vocabulary_size == 5
        assert model.total_docs == 3

    def test_multi_label_record_counts_everywhere(self):
        model = build_model(
            [record("d1", "galaxy quantum", ["astro", "phys"])],
            ("astro", "phys"),
            PLAIN,
        )
        assert model.term_counts["astro"] == {"galaxy": 1, "quantum": 1}
        assert model.term_counts["phys"] == {"galaxy": 1, "quantum": 1}
        assert model.doc_counts == {"astro": 1, "phys": 1}
        assert model.total_docs == 2

    def test_unlabeled_records_are_ignored(self):
        model = build_model(
            [record("a1", "galaxy", ["astro"]), record("u1", "noise words")],
            ("astro",),
            PLAIN,
        )
        assert model.term_counts["astro"] == {"galaxy": 1}
        assert "noise" not in model.term_counts["astro"]

    def test_unknown_label_aborts(self):
        rec = record("x9", "galaxy", ["mystery", "astro", "aleph"])
        with pytest.raises(DataError) as excinfo:
            build_model([rec], ("astro",), PLAIN)
        assert str(excinfo.value) == (
            "record 'x9' is labeled with unknown database(s) ['aleph', 'mystery']"
        )

    def test_database_named_twice_in_a_label_list_counts_once(self):
        labels = ["astro", "phys", "astro"]
        rec = BibRecord(id="d1", title="galaxy star", year=1997, gold_labels=labels)
        model = build_model([rec], ("astro", "phys"), PLAIN)
        assert model.term_counts == {
            "astro": {"galaxy": 1, "star": 1},
            "phys": {"galaxy": 1, "star": 1},
        }
        assert model.total_tokens == {"astro": 2, "phys": 2}
        assert model.doc_counts == {"astro": 1, "phys": 1}

    @given(
        rows=st.lists(
            st.tuples(
                st.lists(st.sampled_from(["galaxy", "star", "quasar", "lattice"]), max_size=8),
                st.sets(st.sampled_from(["astro", "phys", "helio"])),
            ),
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_counts_equal_a_recount_exactly(self, rows):
        # Rows are (tokens, labels): repeated tokens, no tokens, no labels
        # and several labels all occur.
        databases = ("astro", "phys", "helio")
        records = [
            record(f"r{i}", " ".join(tokens), labels) for i, (tokens, labels) in enumerate(rows)
        ]
        stats = oracles.nb_stats(rows, databases)
        if not stats["v"]:
            with pytest.raises(DataError, match="empty vocabulary"):
                build_model(records, databases, PLAIN)
            return
        model = build_model(records, databases, PLAIN)
        assert model.term_counts == {db: dict(stats["counts"][db]) for db in databases}
        assert model.total_tokens == stats["totals"]
        assert model.doc_counts == stats["docs"]

    def test_database_without_labeled_records_is_a_warning_on_the_bayes_logger(self, caplog):
        records = [record("a1", "galaxy star", ["astro"]), record("u1", "noise")]
        with caplog.at_level("WARNING", logger="bibclass.bayes"):
            model = build_model(records, ("astro", "helio", "phys"), PLAIN)
        message = "no training records labeled '{}'; it keeps only smoothed mass"
        assert [(r.name, r.levelname, r.getMessage()) for r in caplog.records] == [
            ("bibclass.bayes", "WARNING", message.format(db)) for db in ("helio", "phys")
        ]
        assert model.doc_counts == {"astro": 1, "helio": 0, "phys": 0}

    def test_counts_use_title_and_abstract(self):
        rec = BibRecord(
            id="a1",
            title="galaxy",
            year=1997,
            abstract="star star",
            gold_labels=frozenset({"astro"}),
        )
        model = build_model([rec], ("astro",), PLAIN)
        assert model.term_counts["astro"] == {"galaxy": 1, "star": 2}
        assert record_text(rec) == "galaxy star star"

    def test_empty_vocabulary_aborts(self):
        with pytest.raises(DataError, match="vocabulary"):
            build_model([record("a1", "the of", ["astro"])], ("astro",), TokenizerConfig(stop_words=frozenset({"the", "of"})))


class TestLogTables:
    def test_rows_are_the_exact_smoothed_fractions(self):
        model = toy_model()
        # (3 + 1) / (5 + 1 * 5) in astro, (0 + 1) / (3 + 1 * 5) in phys
        assert model.term_rows["galaxy"] == (math.log(4 / 10), math.log(1 / 8))
        # unseen term: (0 + 1) / (5 + 5) and (0 + 1) / (3 + 5)
        assert model.unseen_row == (math.log(1 / 10), math.log(1 / 8))

    def test_alpha_scales_smoothing(self):
        model = toy_model(alpha=0.5)
        # (3 + 0.5) / (5 + 0.5 * 5)
        assert model.term_rows["galaxy"][0] == math.log(3.5 / 7.5)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, 2.5, 1e-3])
    def test_rows_equal_the_log_of_the_recounted_smoothed_frequency(self, alpha):
        model = toy_model(alpha)
        stats = oracles.nb_stats(TOY_TRAIN, ("astro", "phys"))
        assert set(model.term_rows) == {"galaxy", "star", "quasar", "quantum", "lattice"}
        for term in ("galaxy", "star", "quasar", "quantum", "lattice", "neutrino"):
            row = model.term_rows.get(term, model.unseen_row)
            assert row == tuple(
                math.log(
                    (stats["counts"][db][term] + alpha) / (stats["totals"][db] + alpha * stats["v"])
                )
                for db in model.databases
            )
        assert model.log_priors == (math.log(2 / 3), math.log(1 / 3))

    def test_zero_document_database_has_a_minus_infinite_prior(self):
        model = CategoryModel(
            databases=("astro", "empty"),
            term_counts={"astro": {"galaxy": 2}},
            doc_counts={"astro": 1},
        )
        assert model.log_priors == (0.0, -math.inf)

    def test_counts_given_are_left_unchanged(self):
        term_counts = {"astro": {"galaxy": 1, "star": 0}}
        doc_counts = {"astro": 1}
        model = CategoryModel(
            databases=("astro", "phys"), term_counts=term_counts, doc_counts=doc_counts
        )
        assert term_counts == {"astro": {"galaxy": 1, "star": 0}}
        assert doc_counts == {"astro": 1}
        assert model.term_counts == {"astro": {"galaxy": 1}, "phys": {}}
        assert model.total_tokens == {"astro": 1, "phys": 0}
        assert model.doc_counts == {"astro": 1, "phys": 0}

    @pytest.mark.parametrize(
        "databases,term_counts,doc_counts,message",
        [
            (("astro", "phys"), {"astro": {"galaxy": 1}}, {"astro": 0}, "no training documents"),
            (("astro",), {"astro": {"galaxy": 0}}, {"astro": 3}, "empty vocabulary"),
            ((), {}, {}, "no training documents"),
            (
                ("astro",),
                {"astro": {"galaxy": -1, "star": 2}},
                {"astro": 1},
                "negative term count in database 'astro'",
            ),
            (
                ("astro",),
                {"astro": {"galaxy": 1}},
                {"astro": -1},
                "negative totals for database 'astro'",
            ),
        ],
    )
    def test_model_that_cannot_score_is_refused(
        self, databases, term_counts, doc_counts, message
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CategoryModel(
                databases=databases,
                term_counts=term_counts,
                doc_counts=doc_counts,
            )

    @pytest.mark.parametrize(
        "databases,term_counts,message",
        [
            (("astro", "astro"), {"astro": {"galaxy": 1}}, "database names must be unique"),
            (("astro",), {"astro": {"galaxy": 1}, "phys": {}}, "unknown databases: ['phys']"),
        ],
    )
    def test_database_names_must_be_unique_and_cover_the_counts(
        self, databases, term_counts, message
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            CategoryModel(
                databases=databases,
                term_counts=term_counts,
                doc_counts={"astro": 1},
            )

    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_non_finite_or_non_positive_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="smoothing_alpha"):
            toy_model(alpha)

    def test_alpha_that_underflows_unseen_probability_rejected(self):
        # alpha * vocabulary_size overflows, so every probability would be 0.
        with pytest.raises(ValueError, match="underflows"):
            toy_model(1e308)


_TERMS = ["galaxy", "star", "quasar", "quantum", "lattice", "phonon"]


@st.composite
def random_models(draw):
    databases = tuple(f"db{i}" for i in range(draw(st.integers(1, 4))))
    term_counts = {
        db: draw(st.dictionaries(st.sampled_from(_TERMS), st.integers(0, 9), max_size=5))
        for db in databases
    }
    # Zero-document databases are allowed as long as one database has documents.
    doc_counts = {db: draw(st.integers(0, 5)) for db in databases}
    doc_counts[databases[-1]] = max(1, doc_counts[databases[-1]])
    # Likewise one term needs a positive count.
    term = draw(st.sampled_from(_TERMS))
    term_counts[databases[0]][term] = max(1, term_counts[databases[0]].get(term, 0))
    return CategoryModel(
        databases=databases,
        term_counts=term_counts,
        doc_counts=doc_counts,
        smoothing_alpha=draw(
            st.one_of(st.sampled_from([1.0, 0.5, 2.0]), st.floats(1e-3, 50.0))
        ),
    )


class TestScoreTextProperties:
    @given(
        model=random_models(),
        tokens=st.lists(st.sampled_from(_TERMS + ["unseen", "neutrino"]), max_size=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_equals_the_recounting_oracle_exactly(self, model, tokens):
        got = score_text(model, TextClassifierConfig(), tokens)
        assert got == oracles.text_scores_reference(model, tokens)


class TestScoreColumns:
    @given(
        model=random_models(),
        token_lists=st.lists(
            st.lists(st.sampled_from(_TERMS + ["unseen", "neutrino"]), max_size=20), max_size=8
        ),
        triggered=st.booleans(),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_each_list_equals_the_oracle_scores_then_its_boost(
        self, model, token_lists, triggered, data
    ):
        config = None
        if triggered:
            triggers = data.draw(
                st.dictionaries(
                    st.sampled_from([*model.databases, "elsewhere"]),
                    st.frozensets(st.sampled_from(_TERMS), min_size=1),
                    min_size=1,
                )
            )
            config = TextClassifierConfig(
                triggers=triggers, trigger_boost=data.draw(st.sampled_from([0.0, 0.25, 1.0]))
            )
        counts, columns = score_columns(model, iter(token_lists), config)
        assert counts == list(map(len, token_lists))
        assert len(columns) == len(model.databases)
        assert all(len(column) == len(token_lists) for column in columns)
        want = [oracles.text_scores_reference(model, tokens) for tokens in token_lists]
        if config is not None:
            want = [
                oracles.boost_reference(s, tokens, config.triggers, config.trigger_boost)
                for s, tokens in zip(want, token_lists)
            ]
        assert [dict(zip(model.databases, row)) for row in zip(*columns)] == want

    def test_no_lists_give_an_empty_column_per_database(self):
        assert score_columns(toy_model(), [], None) == ([], [[], []])


class TestScoreText:
    def test_scores_sum_to_one(self):
        scores = score_text(toy_model(), TextClassifierConfig(), ["galaxy", "star"])
        assert sum(scores.values()) == pytest.approx(1.0, abs=1e-12)

    def test_no_tokens_returns_priors(self):
        scores = score_text(toy_model(), TextClassifierConfig(), [])
        assert list(scores) == ["astro", "phys"]
        assert scores["astro"] == pytest.approx(2 / 3, rel=1e-12)
        assert scores["phys"] == pytest.approx(1 / 3, rel=1e-12)

    def test_zero_prior_database_scores_zero(self):
        model = CategoryModel(
            databases=("astro", "empty"),
            term_counts={"astro": {"galaxy": 2}, "empty": {}},
            doc_counts={"astro": 1, "empty": 0},
        )
        scores = score_text(model, TextClassifierConfig(), ["galaxy"])
        assert scores["empty"] == 0.0
        assert scores["astro"] == pytest.approx(1.0)

    def test_length_normalization_keeps_scores_stable_under_repetition(self):
        model = toy_model()
        once = score_text(model, TextClassifierConfig(), ["galaxy", "star"])
        thrice = score_text(model, TextClassifierConfig(), ["galaxy", "star"] * 3)
        for db in model.databases:
            assert once[db] == pytest.approx(thrice[db], rel=1e-12)

    def test_matches_brute_force_oracle(self):
        rng = random.Random(411)
        for _ in range(25):
            train, databases, vocab = synth.toy_training(rng)
            records = [
                record(f"d{i}", " ".join(tokens), labels)
                for i, (tokens, labels) in enumerate(train)
            ]
            model = build_model(records, databases, PLAIN)
            query = [rng.choice(vocab + ["unseen"]) for _ in range(rng.randint(0, 30))]
            got = score_text(model, TextClassifierConfig(), query)
            want = oracles.nb_scores(train, databases, query)
            for db in databases:
                assert math.isclose(got[db], want[db], rel_tol=1e-9, abs_tol=0.0)


class TestTriggers:
    def test_present_trigger_boosts_and_flags(self):
        config = TextClassifierConfig(
            triggers={"astro": frozenset({"supernova"})}, trigger_boost=0.25
        )
        base = score_text(toy_model(), config, ["galaxy", "supernova"])
        boosted = apply_triggers(base, ["galaxy", "supernova"], config)
        assert boosted["astro"] == pytest.approx(min(1.0, base["astro"] + 0.25))
        assert boosted["phys"] == base["phys"]

    def test_absent_trigger_changes_nothing(self):
        config = TextClassifierConfig(triggers={"astro": frozenset({"supernova"})})
        base = score_text(toy_model(), config, ["galaxy"])
        assert apply_triggers(base, ["galaxy"], config) == base

    def test_no_triggers_returns_an_equal_score(self):
        config = TextClassifierConfig()
        base = score_text(toy_model(), config, ["galaxy", "supernova"])
        assert apply_triggers(base, ["galaxy", "supernova"], config) is base

    def test_boost_caps_at_one(self):
        config = TextClassifierConfig(
            triggers={"astro": frozenset({"galaxy"})}, trigger_boost=1.0
        )
        base = score_text(toy_model(), config, ["galaxy"])
        boosted = apply_triggers(base, ["galaxy"], config)
        assert boosted["astro"] == 1.0

    def test_trigger_for_unknown_database_is_ignored(self):
        config = TextClassifierConfig(triggers={"nope": frozenset({"galaxy"})})
        base = score_text(toy_model(), config, ["galaxy"])
        assert apply_triggers(base, ["galaxy"], config) == base

    def test_uppercase_trigger_rejected(self):
        with pytest.raises(ValueError):
            TextClassifierConfig(triggers={"astro": frozenset({"Supernova"})})

    @pytest.mark.parametrize(
        "triggers",
        [
            {},
            {"astro": frozenset({"supernova"})},
            {"astro": frozenset({"galaxy"}), "nope": frozenset({"galaxy"})},
        ],
    )
    @pytest.mark.parametrize("tokens", [[], ["galaxy"], ["galaxy", "supernova", "quasar"]])
    def test_boost_leaves_its_input_unchanged(self, triggers, tokens):
        config = TextClassifierConfig(triggers=triggers, trigger_boost=0.5)
        base = score_text(toy_model(), config, tokens)
        before = dict(base)
        boosted = apply_triggers(base, tokens, config)
        assert base == before
        assert list(boosted) == list(base)
        for db in base:
            hit = bool(triggers.get(db, frozenset()) & set(tokens))
            assert boosted[db] == (min(1.0, base[db] + 0.5) if hit else base[db])


def classify_text(model, config, tokenizer_config, rec):
    """One record's text-classifier databases, through classify_corpus."""
    (a,) = classify_corpus(
        [rec], mode="text", model=model, text_config=config, tokenizer_config=tokenizer_config
    )
    return a.via_text


class TestTextClassifierConfig:
    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"min_words": -1}, "min_words must be >= 0"),
            *(
                ({"min_words": gate}, "min_words must be finite")
                for gate in (math.nan, math.inf, -math.inf)
            ),
            ({"score_threshold": -0.1}, "score_threshold must be in [0, 1]"),
            ({"score_threshold": 1.5}, "score_threshold must be in [0, 1]"),
            *(
                ({"triggers": {"astro": frozenset({term})}}, f"'{term}' for 'astro' is not a token")
                for term in ("x-ray", "two words", "café", "42", "", "Supernova")
            ),
            ({"trigger_boost": -0.1}, "trigger_boost must be in [0, 1]"),
            ({"trigger_boost": 1.5}, "trigger_boost must be in [0, 1]"),
            ({"triggers": {"a": "galaxy"}}, "terms for 'a' must be a collection, not 'galaxy'"),
            ({"triggers": {"a": 5}}, "terms for 'a' must be a collection, not 5"),
            ({"triggers": {"a": None}}, "terms for 'a' must be a collection, not None"),
            ({"triggers": {"a": [5]}}, "trigger term 5 for 'a' is not a token"),
            ({"triggers": {"a": ["galaxy", b"star"]}}, "trigger term b'star' for 'a' is not a token"),
        ],
    )
    def test_out_of_range_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TextClassifierConfig(**kwargs)

    def test_an_iterator_of_terms_is_read_once_and_kept_whole(self):
        config = TextClassifierConfig(triggers={"astro": (t for t in ["galaxy", "star"])})
        assert config.triggers == {"astro": frozenset({"galaxy", "star"})}

    def test_a_finite_non_integer_gate_is_accepted(self):
        assert TextClassifierConfig(min_words=2.5).min_words == 2.5

    def test_triggers_are_a_frozen_copy(self):
        triggers = {"astro": {"galaxy"}}
        config = TextClassifierConfig(triggers=triggers)
        triggers["astro"].add("X-ray")
        triggers["phys"] = frozenset({"X-ray"})
        assert config.triggers == {"astro": frozenset({"galaxy"})}
        assert type(config.triggers["astro"]) is frozenset

    @pytest.mark.parametrize("terms", [["supernova"], ("supernova", "supernova"), {"supernova"}])
    def test_any_collection_of_terms_scores_as_a_frozenset(self, terms):
        config = TextClassifierConfig(triggers={"astro": terms})
        frozen = TextClassifierConfig(triggers={"astro": frozenset({"supernova"})})
        assert config == frozen
        tokens = [["galaxy", "supernova"], ["galaxy"]]
        assert score_columns(toy_model(), tokens, config) == score_columns(
            toy_model(), tokens, frozen
        )


class TestTextDecision:
    def test_short_records_are_never_assigned(self):
        model = toy_model()
        config = TextClassifierConfig(min_words=5, score_threshold=0.0)
        assert classify_text(model, config, PLAIN, record("q", "galaxy star")) == set()

    def test_threshold_is_inclusive(self):
        # A single-database model scores exactly 1.0, which must satisfy
        # a threshold of exactly 1.0.
        model = build_model([record("a1", "galaxy star", ["astro"])], ("astro",), PLAIN)
        config = TextClassifierConfig(min_words=1, score_threshold=1.0)
        assert classify_text(model, config, PLAIN, record("q", "galaxy")) == {"astro"}

    def test_assigns_databases_over_threshold(self):
        model = toy_model()
        config = TextClassifierConfig(min_words=1, score_threshold=0.6)
        assert classify_text(model, config, PLAIN, record("q", "galaxy galaxy")) == {"astro"}

    def test_trigger_can_add_a_database(self):
        model = toy_model()
        plain_config = TextClassifierConfig(min_words=1, score_threshold=0.5)
        assert classify_text(model, plain_config, PLAIN, record("q", "quantum lattice")) == {
            "phys"
        }
        boosted_config = TextClassifierConfig(
            min_words=1,
            score_threshold=0.5,
            triggers={"astro": frozenset({"lattice"})},
            trigger_boost=1.0,
        )
        assert classify_text(model, boosted_config, PLAIN, record("q", "quantum lattice")) == {
            "astro",
            "phys",
        }

    def test_stop_words_do_not_count_toward_min_words(self):
        model = toy_model()
        config = TextClassifierConfig(min_words=2, score_threshold=0.0)
        stoppy = TokenizerConfig(stop_words=frozenset({"the", "of"}))
        assert classify_text(model, config, stoppy, record("q", "the galaxy of")) == set()
