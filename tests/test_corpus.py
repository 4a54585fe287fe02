import json
import os
import pickle

import pytest

from bibclass.bayes import CategoryModel
from bibclass.corpus import (
    BibRecord,
    load_citations,
    load_memberships,
    load_model,
    load_records,
    save_model,
)
from bibclass.errors import DataError


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestLoadRecords:
    def test_reads_full_and_minimal_records(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_lines(
            path,
            [
                json.dumps(
                    {
                        "id": "a",
                        "title": "T",
                        "abstract": "A",
                        "year": 1997,
                        "journal": "Nature",
                        "labels": ["astro"],
                    }
                ),
                json.dumps({"id": "b", "title": "U", "year": 1998, "labels": []}),
            ],
        )
        corpus = load_records(path)
        assert len(corpus) == 2
        assert corpus.skipped == 0
        first, second = corpus.records
        assert first.abstract == "A"
        assert first.journal == "Nature"
        assert first.gold_labels == frozenset({"astro"})
        assert second.abstract is None
        assert second.gold_labels == frozenset()

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            json.dumps({"title": "no id", "year": 1, "labels": []}),
            json.dumps({"id": "", "title": "t", "year": 1, "labels": []}),
            json.dumps({"id": "x", "title": "", "year": 1, "labels": []}),
            json.dumps({"id": "x", "title": "t", "year": "1997", "labels": []}),
            json.dumps({"id": "x", "title": "t", "year": True, "labels": []}),
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": "astro"}),
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": [""]}),
            # A label list that cannot be hashed holds a non-string.
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": [["a"]]}),
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": [{"x": 1}]}),
            # labels is not optional.
            json.dumps({"id": "x", "title": "t", "year": 1}),
            json.dumps({"id": "x", "title": "t", "abstract": "a", "journal": "j", "year": 1}),
            # An abstract or journal, where given, is a string.
            json.dumps({"id": "x", "title": "t", "abstract": 5, "year": 1, "labels": []}),
            json.dumps({"id": "x", "title": "t", "journal": ["j"], "year": 1, "labels": []}),
            "",
            # Lone surrogates from JSON escapes, which no UTF-8 output can hold.
            json.dumps({"id": "x\ud800", "title": "t", "year": 1, "labels": []}),
            json.dumps({"id": "x", "title": "t\udc00", "year": 1, "labels": []}),
            json.dumps({"id": "x", "title": "t", "abstract": "\udfff", "year": 1, "labels": []}),
            json.dumps({"id": "x", "title": "t", "journal": "j\ud800", "year": 1, "labels": []}),
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": ["astro\ud800"]}),
            # A tab or line boundary in an id would split its output row.
            json.dumps({"id": "a\tb", "title": "t", "year": 1, "labels": []}),
            json.dumps({"id": "c\nd", "title": "t", "year": 1, "labels": []}),
            json.dumps({"id": "e\rf", "title": "t", "year": 1, "labels": []}),
            json.dumps({"id": "g\u2028h", "title": "t", "year": 1, "labels": []}),
            json.dumps({"id": "i\x85j", "title": "t", "year": 1, "labels": []}),
            json.dumps({"id": "k\x0bl", "title": "t", "year": 1, "labels": []}),
            json.dumps({"id": "m\x1cn", "title": "t", "year": 1, "labels": []}),
            # A label is a cell of the model, memberships and assignments files.
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": ["bio\tx"]}),
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": ["a,b"]}),
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": ["astro", "c\nd"]}),
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": ["e\u2028f"]}),
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": ["g\x0ch"]}),
            # The memberships reader strips names, so no line there could name these.
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": [" astro"]}),
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": ["astro "]}),
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": ["  "]}),
            # The citations and memberships readers strip ids, so no edge could cite these.
            json.dumps({"id": " r1", "title": "t", "year": 1, "labels": []}),
            json.dumps({"id": "r1 ", "title": "t", "year": 1, "labels": []}),
            # Text the decoder refuses: too deeply nested, or an integer over
            # the interpreter's limit on digits.
            pytest.param("[" * 200_000 + "]" * 200_000, id="nested-200000-deep"),
            pytest.param(
                '{"id": "x", "title": "t", "year": ' + "9" * 5000 + ', "labels": []}',
                id="year-of-5000-digits",
            ),
            # One object and nothing else: no trailing data, no second object,
            # no byte-order mark after the first line.
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": []}) + " x",
            json.dumps({"id": "x", "title": "t", "year": 1, "labels": []}) * 2,
            "\ufeff" + json.dumps({"id": "x", "title": "t", "year": 1, "labels": []}),
            # A year is an integer.
            json.dumps({"id": "x", "title": "t", "year": 1997.0, "labels": []}),
            '{"id": "x", "title": "t", "year": NaN, "labels": []}',
        ],
    )
    def test_malformed_lines_are_skipped_and_counted(self, tmp_path, line):
        path = tmp_path / "r.jsonl"
        good = json.dumps({"id": "ok", "title": "t", "year": 1997, "labels": []})
        write_lines(path, [good, line])
        corpus = load_records(path)
        assert [r.id for r in corpus.records] == ["ok"]
        assert corpus.skipped == 1

    def test_escaped_surrogate_pair_is_kept(self, tmp_path):
        path = tmp_path / "r.jsonl"
        line = json.dumps({"id": "x\U0001f600", "title": "t", "year": 1, "labels": []})
        assert "\\ud83d\\ude00" in line
        write_lines(path, [line])
        corpus = load_records(path)
        assert [r.id for r in corpus.records] == ["x\U0001f600"]
        assert corpus.skipped == 0

    def test_object_padded_with_unicode_spaces_is_kept(self, tmp_path):
        path = tmp_path / "r.jsonl"
        line = json.dumps({"id": "x", "title": "t", "year": 1, "labels": []})
        write_lines(path, ["\u3000" + line + "\u3000 "])
        corpus = load_records(path)
        assert corpus.records == [BibRecord("x", "t", 1)]
        assert corpus.skipped == 0

    def test_duplicate_id_aborts(self, tmp_path):
        path = tmp_path / "r.jsonl"
        rec = json.dumps({"id": "dup", "title": "t", "year": 1997, "labels": []})
        write_lines(path, [rec, rec])
        with pytest.raises(DataError, match="dup"):
            load_records(path)

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_records(tmp_path / "absent.jsonl")

    def test_labels_become_each_records_gold_set(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_lines(
            path,
            [
                json.dumps({"id": "a", "title": "t", "year": 1, "labels": ["x", "y"]}),
                json.dumps({"id": "b", "title": "t", "year": 1, "labels": []}),
            ],
        )
        gold = {r.id: r.gold_labels for r in load_records(path)}
        assert gold == {"a": frozenset({"x", "y"}), "b": frozenset()}


class TestBibRecord:
    def test_fields_defaults_and_order(self):
        record = BibRecord("a", "T", 1997)
        assert BibRecord._fields == (
            "id", "title", "year", "abstract", "journal", "gold_labels"
        )
        assert BibRecord._field_defaults == {
            "abstract": None, "journal": None, "gold_labels": frozenset()
        }
        assert (record.abstract, record.journal, record.gold_labels) == (None, None, frozenset())
        assert record == BibRecord(id="a", title="T", year=1997)
        assert tuple(record) == ("a", "T", 1997, None, None, frozenset())

    def test_immutable_hashable_slotted_and_picklable(self):
        record = BibRecord("a", "T", 1997, "A", "J", frozenset({"astro"}))
        with pytest.raises(AttributeError):
            record.title = "U"
        with pytest.raises(AttributeError):
            record.extra = 1
        assert not hasattr(record, "__dict__")
        assert hash(record) == hash(BibRecord("a", "T", 1997, "A", "J", frozenset({"astro"})))
        assert record != BibRecord("a", "T", 1997, "A", "J")
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record and hash(clone) == hash(record)


class TestLoadMemberships:
    def test_parses_and_merges_duplicates(self, tmp_path):
        path = tmp_path / "m.tsv"
        write_lines(path, ["# comment", "c1\tastro,phys", "c2\t", "c1\tgen"])
        memberships = load_memberships(path)
        assert memberships == {
            "c1": frozenset({"astro", "phys", "gen"}),
            "c2": frozenset(),
        }

    @pytest.mark.parametrize(
        "line",
        [
            "justonefield",
            "a\tb\tc",
            "\tastro",
            # A database name is a label: no line boundary inside it.
            "c1\tastro\u2028x",
            "c1\tphys,astro\x85x",
            "c1\tastro\x0bx",
        ],
    )
    def test_malformed_line_aborts(self, tmp_path, line):
        path = tmp_path / "m.tsv"
        write_lines(path, [line])
        with pytest.raises(DataError, match="m.tsv:1"):
            load_memberships(path)


class TestLoadCitations:
    def test_builds_graph_and_counts_drops(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_lines(
            path,
            [
                "# header",
                "c1\tr1",
                "c1\tr1",  # duplicate
                "c2\tr1",
                "c2\tc2",  # self-citation
                "ghost\tr1",  # unknown citer
                "c1\tr2",
            ],
        )
        memberships = {"c1": frozenset({"astro"}), "c2": frozenset()}
        graph, stats = load_citations(
            path, {"c1", "c2", "r1", "r2"}, memberships, ("astro",)
        )
        assert graph.citers == {"r1": frozenset({"c1", "c2"}), "r2": frozenset({"c1"})}
        assert all(type(s) is frozenset for s in graph.citers.values())
        assert graph.memberships["c1"] == frozenset({"astro"})
        assert graph.memberships["c2"] == frozenset()
        assert stats.edges_kept == 3
        assert stats.duplicates == 1
        assert stats.self_citations == 1
        assert stats.unknown_citers == 1

    @pytest.mark.parametrize("line", ["c1 \tr1", "c1\t r1", " c1 \t r1 "])
    def test_cells_are_stripped(self, tmp_path, line):
        path = tmp_path / "c.tsv"
        write_lines(path, [line])
        graph, stats = load_citations(path, {"c1", "r1"}, {}, ())
        assert graph.citers == {"r1": frozenset({"c1"})}
        assert stats.edges_kept == 1
        assert stats.unknown_citers == 0

    def test_malformed_edge_aborts(self, tmp_path):
        path = tmp_path / "c.tsv"
        write_lines(path, ["c1 r1"])
        with pytest.raises(DataError, match="c.tsv:1"):
            load_citations(path, {"c1", "r1"}, {}, ())


def small_model(alpha=0.7):
    return CategoryModel(
        databases=("astro", "phys"),
        term_counts={"astro": {"galaxy": 3, "star": 1}, "phys": {"quantum": 2}},
        doc_counts={"astro": 2, "phys": 1},
        smoothing_alpha=alpha,
    )


class TestModelRoundTrip:
    def test_save_load_is_field_exact(self, tmp_path):
        model = small_model()
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.databases == model.databases
        assert loaded.term_counts == model.term_counts
        assert loaded.total_tokens == model.total_tokens
        assert loaded.doc_counts == model.doc_counts
        assert loaded.smoothing_alpha == model.smoothing_alpha
        assert loaded.vocabulary_size == model.vocabulary_size

    def test_two_saves_are_byte_identical(self, tmp_path):
        model = small_model()
        save_model(model, tmp_path / "a.txt")
        save_model(model, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        save_model(small_model(), tmp_path / "a.txt")
        save_model(load_model(tmp_path / "a.txt"), tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_terms_are_sorted_in_the_file(self, tmp_path):
        path = tmp_path / "model.txt"
        save_model(small_model(), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        astro_terms = [
            line.split("\t")[1]
            for line in lines
            if line.startswith("t\t")
        ][:2]
        assert astro_terms == sorted(astro_terms)

    def test_failed_replace_keeps_the_old_model(self, tmp_path, monkeypatch):
        path = tmp_path / "model.txt"
        save_model(small_model(), path)
        before = path.read_bytes()
        replacement = small_model(alpha=2.0)

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(DataError, match="disk full"):
            save_model(replacement, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.txt"]

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("garbage\n", encoding="utf-8")
        with pytest.raises(DataError, match="missing header"):
            load_model(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("bibclass-model v99\nalpha\t1.0\n", encoding="utf-8")
        with pytest.raises(DataError, match="v99"):
            load_model(path)

    def test_corrupt_line_names_its_number(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(
            "bibclass-model v1\nalpha\t1.0\ndb\tastro\t1\t1\nt\tgalaxy\tnotanumber\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=":4"):
            load_model(path)

    @pytest.mark.parametrize(
        "name", ["astro,phys", "", " astro", "astro ", "astro\x85", "a\u2028b"]
    )
    def test_database_name_that_is_not_a_label_rejected(self, tmp_path, name):
        path = tmp_path / "model.txt"
        path.write_text(
            f"bibclass-model v1\nalpha\t1.0\ndb\t{name}\t1\t1\nt\tgalaxy\t1\n",
            encoding="utf-8",
        )
        message = r"corrupt model file at .*model\.txt:3: bad database name"
        with pytest.raises(DataError, match=message):
            load_model(path)

    def test_term_line_before_any_db_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("bibclass-model v1\nalpha\t1.0\nt\tgalaxy\t3\n", encoding="utf-8")
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0.0", "-1.0", "1e308"])
    def test_unusable_alpha_rejected(self, tmp_path, alpha):
        path = tmp_path / "model.txt"
        path.write_text(
            f"bibclass-model v1\nalpha\t{alpha}\ndb\tastro\t1\t2\nt\tgalaxy\t1\nt\tstar\t1\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError, match="smoothing_alpha"):
            load_model(path)

    def test_missing_alpha_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("bibclass-model v1\ndb\tastro\t1\t0\n", encoding="utf-8")
        with pytest.raises(DataError, match="alpha"):
            load_model(path)
