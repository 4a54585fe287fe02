"""The records, memberships, citations and model readers against the README's line rules.

Each property writes a generated file and checks that the reader gives
what the line-by-line reference in ``oracles`` gives: the same records and
skip count, the same memberships, the same graph and drop counts, the
same model, the same warnings, and a ``DataError`` naming the same line.  The generated
lines repeat label lists and membership columns, valid copies next to
variants one character away, so every check is seen both on a list or
column met for the first time and on one met before.
"""

import json
import logging
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from bibclass.bayes import CategoryModel, build_model
from bibclass.corpus import (
    BibRecord,
    load_citations,
    load_memberships,
    load_model,
    load_records,
    save_model,
)
from bibclass.errors import DataError
from bibclass.textpipe import TokenizerConfig


@contextmanager
def written(lines, name):
    """A temporary file holding ``lines``, each ended by a newline."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        yield path


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


@contextmanager
def warnings_logged():
    """The messages the corpus module logs at WARNING or above meanwhile."""
    handler = _Messages()
    logger = logging.getLogger("bibclass.corpus")
    logger.addHandler(handler)
    try:
        yield handler.messages
    finally:
        logger.removeHandler(handler)


# ---------------------------------------------------------------------------
# Records.
# ---------------------------------------------------------------------------

_MISSING = object()

# Valid label lists, then variants one character away from one of them.
_LABEL_LISTS = [
    ["astro"],
    ["astro", "phys"],
    [],
    ["phys", "astro", "astro"],
    ["as tro"],
    ["astro "],
    [" astro"],
    ["astro,"],
    ["ast\u2028ro"],
    ["astro\u2028"],
    ["astro\x85"],
    ["astro\t"],
    ["astr\ud800"],
    [""],
    [["a"]],
    [{"x": 1}],
    [1],
    [True],
    [1.0],
    [None],
    "astro",
    None,
    _MISSING,
]
_IDS = [None] * 6 + ["r1", " r1", "r1 ", "r\t1", "r\u20281", "r\x851", "", "r\ud800", 7, _MISSING]
_TITLES = ["Galaxy survey"] * 4 + ["", "  ", "t\udc00", 5, None, "Galaxy\u2028survey", _MISSING]
_YEARS = [1997] * 4 + [1997.0, True, "1997", None, _MISSING]
_OPTIONAL = [_MISSING] * 3 + [None, "Some text", 5, ["j"], "j\udfff"]
_WRAPS = ["{}"] * 6 + ["  {}  ", "\u3000{} ", "{} x", "{}{}", "[{}]", "\ufeff{}", "{}\t", "# {}"]
_NOT_RECORDS = [
    "",
    "   ",
    "not json",
    "# a comment",
    "[1, 2]",
    '{"id": "big", "title": "t", "year": ' + "9" * 5000 + ', "labels": []}',
    '{"id": "nan", "title": "t", "year": NaN, "labels": []}',
]


@st.composite
def record_lines(draw):
    """A records file's lines: mostly objects, each field sometimes malformed."""
    lines = []
    for i in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(_NOT_RECORDS)))
            continue
        rid = draw(st.sampled_from(_IDS))
        fields = {
            "id": f"u{i}" if rid is None else rid,
            "title": draw(st.sampled_from(_TITLES)),
            "year": draw(st.sampled_from(_YEARS)),
            "abstract": draw(st.sampled_from(_OPTIONAL)),
            "journal": draw(st.sampled_from(_OPTIONAL)),
            "labels": draw(st.sampled_from(_LABEL_LISTS)),
        }
        obj = {k: v for k, v in fields.items() if v is not _MISSING}
        text = json.dumps(obj, ensure_ascii=draw(st.booleans()))
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            text = json.dumps(obj)  # a lone surrogate can only be written as an escape
        lines.append(draw(st.sampled_from(_WRAPS)).format(text, text))
    return lines


def _record(labels, rid="a"):
    return json.dumps({"id": rid, "title": "t", "year": 1, "labels": labels})


class TestRecordsFollowTheLineRules:
    @settings(max_examples=300, deadline=None)
    @given(lines=record_lines())
    @example(lines=[_record(["astro"], "a"), _record(["astro "], "b"), _record(["astro"], "c")])
    @example(
        lines=[
            _record(["astro\ud800"], "a"), _record(["astro"], "b"), _record(["astro\ud800"], "c")
        ]
    )
    @example(lines=[_record([["a"]], "a"), _record([{"x": 1}], "b"), _record(["a"], "c")])
    @example(lines=[_record([1], "a"), _record([True], "b"), _record([1.0], "c")])
    @example(lines=[_record([], "a"), _record([], "a")])
    @example(lines=["\ufeff" + _record(["astro"], "a"), "\ufeff" + _record(["astro"], "b")])
    def test_records_skips_warnings_and_duplicate_match_the_reference(self, lines):
        records, malformed, duplicate = oracles.records_reference(lines)
        with written(lines, "r.jsonl") as path, warnings_logged() as messages:
            if duplicate is None:
                corpus = load_records(path)
            else:
                lineno, rid = duplicate
                with pytest.raises(DataError) as raised:
                    load_records(path)
                assert str(raised.value) == f"duplicate record id '{rid}' at {path}:{lineno}"
        expected = [f"{path}:{n}: skipping malformed record line" for n in malformed]
        if duplicate is None:
            assert [tuple(r) for r in corpus.records] == records
            assert [r.id for r in corpus.records] == [r[0] for r in records]
            assert corpus.skipped == len(malformed)
            if malformed:
                expected.append(f"{path}: skipped {len(malformed)} malformed line(s)")
        assert messages == expected


# ---------------------------------------------------------------------------
# Memberships.
# ---------------------------------------------------------------------------

# Valid columns, then variants one character away from one of them.
_COLUMNS = [
    "astro",
    "astro,phys",
    " astro , phys ",
    "",
    ",",
    "astro,",
    ",,phys",
    "as tro",
    "astro\x85",
    "astro\u2028",
    "as\u2028tro",
    "as\x85tro",
    "astro\tphys",
    "astro\t",
    "astro\x0b,phys",
]
_MEMBER_IDS = ["c1"] * 3 + ["c2", " c1", "c1 ", "r1", "a,b", "", "  "]


@st.composite
def membership_lines(draw):
    """A memberships file's lines: mostly entries, with comments, blanks and bad rows."""
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        rid, column = draw(st.sampled_from(_MEMBER_IDS)), draw(st.sampled_from(_COLUMNS))
        forms = ["{}\t{}"] * 6 + ["{}", "{}\t{}\t", "", "  ", "# {}\t{}", " #"]
        form = draw(st.sampled_from(forms))
        lines.append(form.format(rid, column))
    return lines


class TestMembershipsFollowTheLineRules:
    @settings(max_examples=300, deadline=None)
    @given(lines=membership_lines())
    @example(lines=["c1\tastro", "c2\tastro\u2028", "c3\tastro"])
    @example(lines=["c1\tastro", "c2\tas\u2028tro"])
    @example(lines=["c1\tastro,phys", "c1\tastro", "c2\tastro,phys", "c2\t"])
    @example(lines=["c1\t", "c2"])
    def test_memberships_and_error_line_match_the_reference(self, lines):
        expected, bad_line = oracles.memberships_reference(lines)
        with written(lines, "m.tsv") as path:
            if bad_line is None:
                assert load_memberships(path) == expected
            else:
                with pytest.raises(DataError) as raised:
                    load_memberships(path)
                assert str(raised.value) == f"malformed membership line at {path}:{bad_line}"


# ---------------------------------------------------------------------------
# Citations.
# ---------------------------------------------------------------------------

_CITE_IDS = ["c1", "c2", "r1", "r2", "ghost", "a,b"]
_PADS = [""] * 4 + [" ", "  ", "\u3000"]
_EDGE_FORMS = ["{0}{1}\t{2}{3}"] * 8 + [
    "{0} {3}",
    "{0}\t\t{3}",
    "\t{0}",
    "{0}\t",
    "{0}\t{3}\t",
    "\t{0}\t{3}",
    "{0}\t{3}\t{0}",
    "",
    "  ",
    "# {0}\t{3}",
]


@st.composite
def citation_lines(draw):
    """A citations file's lines: edges (duplicates and self-citations among them) and bad rows."""
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        citing, cited = draw(st.sampled_from(_CITE_IDS)), draw(st.sampled_from(_CITE_IDS))
        pad, pad2 = draw(st.sampled_from(_PADS)), draw(st.sampled_from(_PADS))
        form = draw(st.sampled_from(_EDGE_FORMS))
        lines.append(form.format(citing, pad, pad2, cited))
    return lines


class TestCitationsFollowTheLineRules:
    @settings(max_examples=300, deadline=None)
    @given(
        lines=citation_lines(),
        known=st.sets(st.sampled_from(_CITE_IDS)),
        memberships=st.dictionaries(
            st.sampled_from(_CITE_IDS), st.frozensets(st.sampled_from(["astro", "phys"]))
        ),
    )
    @example(
        lines=["c1\tr1", "c1 \t r1", "c1\tc1", "ghost\tr1", "c2\tr1", "c1\tr2"],
        known={"c1", "c2"},
        memberships={"c1": frozenset({"astro"})},
    )
    def test_graph_counts_warnings_and_error_line_match_the_reference(
        self, lines, known, memberships
    ):
        citers, citer_memberships, counts, self_lines, bad_line = oracles.citations_reference(
            lines, known, memberships
        )
        with written(lines, "c.tsv") as path, warnings_logged() as messages:
            if bad_line is None:
                graph, stats = load_citations(path, known, memberships, ("astro", "phys"))
            else:
                with pytest.raises(DataError) as raised:
                    load_citations(path, known, memberships, ("astro", "phys"))
                assert str(raised.value) == f"malformed citation edge at {path}:{bad_line}"
        assert messages == [
            f"{path}:{n}: dropping self-citation '{rid}'" for n, rid in self_lines
        ]
        if bad_line is None:
            assert graph.citers == citers
            assert graph.memberships == citer_memberships
            assert stats._asdict() == counts


# ---------------------------------------------------------------------------
# Models.
# ---------------------------------------------------------------------------

# Counts save_model never writes, then lines it never writes where they land.
_COUNT_VARIANTS = ["0", "00", "007", " 1", "1 ", "1_000", "+1", "-1", "1.0", "", "\u0661"]
_STRAY_LINES = [
    "alpha\t2.0",
    "alpha\tnan",
    "alpha\t1e308",
    "alpha\t1_0",
    "alpha",
    "db\tastro\t1\t1",
    "db\ta,b\t1\t1",
    "t\tgalaxy\t1",
    "t\tGalaxy\t1",
    "t\tgalaxy\t1\t1",
    "",
    "# comment",
]

# Alpha values that float() reads but save_model never writes, then reals
# that CategoryModel refuses.
_ALPHA_FORMS = ["1_0", " 2.0", "2.0 ", "\uff12.0", "1e308", "nan", "inf", "0.0", "-1.0"]


def with_alpha_examples(test):
    """``test`` with one explicit example per alpha form, in an otherwise sound model."""
    for form in _ALPHA_FORMS:
        lines = ["bibclass-model v1", f"alpha\t{form}", "db\tastro\t1\t1", "t\tgalaxy\t1"]
        test = example(lines=lines, newline="\n", bom=False)(test)
    return test


@st.composite
def model_lines(draw):
    """A saved model's lines with a few lines repeated, dropped, recounted or added."""
    lines = ["bibclass-model v1", "alpha\t" + draw(st.sampled_from(["1.0", "0.5", "2.0"]))]
    databases = st.lists(st.sampled_from(["astro", "phys", "helio"]), min_size=1, unique=True)
    for db in draw(databases):
        counts = draw(
            st.dictionaries(st.sampled_from(["galaxy", "star", "x2y"]), st.integers(1, 5))
        )
        lines.append(f"db\t{db}\t{draw(st.integers(0, 3))}\t{sum(counts.values())}")
        lines += [f"t\t{term}\t{n}" for term, n in sorted(counts.items())]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(1, len(lines) - 1))
        edit = draw(st.sampled_from(["repeat", "drop", "recount", "add"]))
        if edit == "repeat":
            lines.insert(draw(st.integers(1, len(lines))), lines[i])
        elif edit == "drop":
            del lines[i]
        elif edit == "recount" and lines[i].startswith(("db", "t")):
            cells = lines[i].split("\t")
            cells[draw(st.integers(2, len(cells) - 1))] = draw(st.sampled_from(_COUNT_VARIANTS))
            lines[i] = "\t".join(cells)
        elif edit == "add":
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(_STRAY_LINES)))
    return lines


class TestModelFollowsTheLineRules:
    @settings(max_examples=400, deadline=None)
    @given(
        lines=model_lines(),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        bom=st.booleans(),
    )
    @example(
        lines=["bibclass-model v1", "alpha\t1.0", "db\tastro\t1\t1000"]
        + ["t\tgalaxy\t999", "t\tgalaxy\t1_000", "alpha\t2.0", "t\tstar\t0"],
        newline="\n",
        bom=False,
    )
    @example(
        lines=["bibclass-model v1", "alpha\tnan", "db\tastro\t1\t2", "t\tgalaxy\t1"],
        newline="\n",
        bom=False,
    )
    @example(
        lines=["bibclass-model v1", "alpha\t1.0", "db\tastro\t1\t1", "t\tgalaxy\t1", "t\tstar\t0"],
        newline="\n",
        bom=False,
    )
    @with_alpha_examples
    def test_model_or_error_line_matches_the_reference(self, lines, newline, bom):
        counts, bad_line = oracles.model_reference(lines)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.txt"
            text = "\ufeff" * bom + "".join(line + newline for line in lines)
            path.write_bytes(text.encode("utf-8"))
            if counts is None:
                with pytest.raises(DataError) as raised:
                    load_model(path)
                where = f"{path}:{bad_line}: " if bad_line else f"{path}: missing alpha line"
                assert str(raised.value).startswith(f"corrupt model file at {where}")
                return
            alpha, databases, term_counts, tokens, doc_counts = counts
            wrong = [db for db in databases if sum(term_counts[db].values()) != tokens[db]]
            try:
                # A block's tokens column is checked before the model's own rules.
                if wrong:
                    raise ValueError(f"total_tokens['{wrong[0]}'] does not match its term counts")
                expected = CategoryModel(databases, term_counts, doc_counts, alpha)
            except (ValueError, OverflowError) as exc:
                with pytest.raises(DataError) as raised:
                    load_model(path)
                assert str(raised.value) == f"corrupt model file {path}: {exc}"
                return
            assert load_model(path) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        titles=st.lists(
            st.tuples(
                st.text(st.sampled_from("ab xy-Z9\u00e9"), max_size=12),
                st.sets(st.sampled_from(["astro", "phys"]), min_size=1),
            ),
            min_size=1,
            max_size=6,
        ),
        alpha=st.sampled_from([1.0, 0.5, 0.1, 1e-9, 3.0]),
    )
    def test_a_built_model_follows_the_rules_and_saves_back_identically(self, titles, alpha):
        records = [
            BibRecord(f"r{i}", f"w {title}", 1999, gold_labels=frozenset(labels))
            for i, (title, labels) in enumerate(titles)
        ]
        databases = tuple(sorted(set().union(*(labels for _, labels in titles))))
        model = build_model(records, databases, TokenizerConfig(), alpha=alpha)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.txt", Path(tmp) / "second.txt"
            save_model(model, first)
            counts, bad_line = oracles.model_reference(
                first.read_text(encoding="utf-8").splitlines()
            )
            assert bad_line is None and counts is not None
            loaded = load_model(first)
            save_model(loaded, second)
            assert loaded == model
            assert second.read_bytes() == first.read_bytes()


def test_the_line_boundaries_listed_are_those_splitlines_splits_at():
    every = "".join(map(chr, range(0x3000)))
    assert {ch for ch in every if len(("a" + ch + "b").splitlines()) == 2} == set(
        oracles.LINE_BOUNDARIES
    )
