"""The contract of every value type the package builds: fields, construction, equality.

Each case lists a type's constructor fields in order, with a sample value
and a default (or none), a second sample that differs, the derived
attributes that stay out of equality and ``repr``, and whether the type is
frozen, hashable and pickled.  One parametrized test checks them all, so
a type may change how it is written but not how it behaves.
"""

import pickle
from typing import NamedTuple

import pytest

from bibclass import cli
from bibclass.bayes import CategoryModel, TextClassifierConfig
from bibclass.citegraph import CitationClassifierConfig, CitationGraph
from bibclass.corpus import BibRecord, CitationLoadStats, Corpus
from bibclass.evalhub import EvalReport, ParamPoint, SweepGrid, SweepGrids
from bibclass.textpipe import TokenizerConfig

NO_DEFAULT = object()


def _parse(value, flag):
    return value


class Case(NamedTuple):
    cls: type
    # (name, sample, other sample, default or NO_DEFAULT), in constructor order
    fields: list
    derived: list = []  # attributes kept out of equality and repr
    frozen: bool = True
    hashable: bool = True
    pickled: bool = False


_RECORD = BibRecord("r1", "galaxy", 1999, None, None, frozenset({"astro"}))
_POINT = ParamPoint(5, 0.25, 4, 0.5)
_REPORT = EvalReport("astro", 1, 2, 3, 1 / 3, 0.25, _POINT)

CASES = {
    "TokenizerConfig": Case(
        TokenizerConfig,
        [
            ("stop_words", frozenset({"the"}), frozenset({"of"}), frozenset()),
            ("stop_phrases", frozenset({"et al"}), frozenset({"in brief"}), frozenset()),
        ],
        derived=["phrase_index"],
        pickled=True,
    ),
    "TextClassifierConfig": Case(
        TextClassifierConfig,
        [
            ("min_words", 3, 4, 5),
            ("score_threshold", 0.5, 0.75, 0.25),
            ("triggers", {"astro": frozenset({"galaxy"})}, {}, {}),
            ("trigger_boost", 0.125, 0.0, 0.25),
        ],
        hashable=False,  # its hash would hash the triggers dict
        pickled=True,
    ),
    "CitationClassifierConfig": Case(
        CitationClassifierConfig,
        [("min_citations", 2, 3, 4), ("ratio_threshold", 0.75, 1.0, 0.5)],
        pickled=True,
    ),
    "SweepGrids": Case(
        SweepGrids,
        [
            ("min_words", (3, 5), (3,), NO_DEFAULT),
            ("score_thresholds", (0.1,), (0.2,), NO_DEFAULT),
            ("min_citations", (4,), (5,), NO_DEFAULT),
            ("ratio_thresholds", (0.5,), (0.25, 0.5), NO_DEFAULT),
        ],
        pickled=True,
    ),
    "CategoryModel": Case(
        CategoryModel,
        [
            ("databases", ("astro",), ("astro", "phys"), NO_DEFAULT),
            ("term_counts", {"astro": {"galaxy": 2}}, {"astro": {"a": 1, "b": 1}}, NO_DEFAULT),
            ("doc_counts", {"astro": 1}, {"astro": 2}, NO_DEFAULT),
            ("smoothing_alpha", 0.5, 2.0, 1.0),
        ],
        derived=["total_tokens", "vocabulary_size", "term_rows", "unseen_row", "log_priors"],
        frozen=False,
        hashable=False,
    ),
    "CitationGraph": Case(
        CitationGraph,
        [
            ("citers", {"r1": frozenset({"c1"})}, {"r2": frozenset({"c1"})}, NO_DEFAULT),
            ("memberships", {"c1": frozenset({"astro"})}, {"c1": frozenset()}, {}),
            ("databases", ("astro",), ("astro", "phys"), ()),
        ],
        frozen=False,
        hashable=False,
    ),
    "Corpus": Case(
        Corpus,
        [("records", [_RECORD], [], NO_DEFAULT), ("skipped", 2, 3, 0)],
        frozen=False,
        hashable=False,
    ),
    "CitationLoadStats": Case(
        CitationLoadStats,
        [
            ("edges_kept", 5, 6, 0),
            ("duplicates", 1, 0, 0),
            ("self_citations", 2, 0, 0),
            ("unknown_citers", 3, 0, 0),
        ],
    ),
    "EvalReport": Case(
        EvalReport,
        [
            ("db", "astro", "phys", NO_DEFAULT),
            ("tp", 1, 2, NO_DEFAULT),
            ("fp", 2, 5, NO_DEFAULT),
            ("fn", 3, 2, NO_DEFAULT),
            ("precision", 1 / 3, 0.5, NO_DEFAULT),
            ("recall", 0.25, 0.5, NO_DEFAULT),
            ("params", _POINT, ParamPoint(3, 0.25, 4, 0.5), NO_DEFAULT),
        ],
    ),
    "SweepGrid": Case(
        SweepGrid,
        [
            ("mode", "combined", "text", NO_DEFAULT),
            ("db", "astro", "phys", NO_DEFAULT),
            ("reports", (_REPORT,), (), NO_DEFAULT),
        ],
    ),
    "cli._Flag": Case(
        cli._Flag,
        [
            ("help", "a flag", "another flag", NO_DEFAULT),
            ("default", "1", "2", None),
            ("parse", _parse, int, None),
            ("listable", True, False, False),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_value_type_contract(name):
    case = CASES[name]
    cls = case.cls
    names = [f[0] for f in case.fields]
    samples = [f[1] for f in case.fields]
    obj = cls(*samples)

    # Field order, positional and keyword construction.
    assert [getattr(obj, n) for n in names] == samples
    assert cls(**dict(zip(names, samples))) == obj

    # Defaults: only the fields without one are needed, and the rest take theirs.
    required = [f[1] for f in case.fields if f[3] is NO_DEFAULT]
    defaults = {n: sample if d is NO_DEFAULT else d for n, sample, _, d in case.fields}
    assert cls(*required) == cls(**defaults)

    # repr names the fields in order, and no derived attribute.
    fields = ", ".join(f"{n}={v!r}" for n, v in zip(names, samples))
    assert repr(obj) == f"{cls.__qualname__}({fields})"
    for derived in case.derived:
        assert hasattr(obj, derived)
        assert f"{derived}=" not in repr(obj)

    # Equality by field values; each field counts.
    assert obj == cls(*samples) and not obj != cls(*samples)
    for i, (_, _, other, _) in enumerate(case.fields):
        changed = samples[:i] + [other] + samples[i + 1 :]
        assert obj != cls(*changed), names[i]

    if case.hashable:
        assert hash(obj) == hash(cls(*samples))
    else:
        with pytest.raises(TypeError):
            hash(obj)

    for field_name, sample in zip(names, samples):
        if case.frozen:
            with pytest.raises(AttributeError):
                setattr(obj, field_name, sample)
            with pytest.raises(AttributeError):
                delattr(obj, field_name)
        else:
            setattr(obj, field_name, sample)
            assert getattr(obj, field_name) is sample

    if case.pickled:
        clone = pickle.loads(pickle.dumps(obj))
        assert type(clone) is cls and clone == obj
        for derived in case.derived:
            assert getattr(clone, derived) == getattr(obj, derived)
