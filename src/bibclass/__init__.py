"""Classify bibliographic records into subject databases.

Two classifiers share a combiner: a Multinomial Naive Bayes text classifier
over per-database word frequencies, and a citation classifier over the
fraction of a record's citing papers already in each database.
``classify_corpus``, ``evaluate`` and ``sweep`` all threshold the same
score tables, one list of counts and one list of values per database.
"""

from bibclass.bayes import TextClassifierConfig, build_model
from bibclass.citegraph import CitationClassifierConfig
from bibclass.corpus import load_citations, load_memberships, load_model, load_records, save_model
from bibclass.errors import BibclassError, DataError, UsageError
from bibclass.evalhub import (
    Assignment,
    EvalReport,
    SweepGrids,
    classify_corpus,
    emit_grid_csv,
    evaluate,
    sweep,
)
from bibclass.textpipe import default_tokenizer_config

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "BibclassError",
    "CitationClassifierConfig",
    "DataError",
    "EvalReport",
    "SweepGrids",
    "TextClassifierConfig",
    "UsageError",
    "build_model",
    "classify_corpus",
    "default_tokenizer_config",
    "emit_grid_csv",
    "evaluate",
    "load_citations",
    "load_memberships",
    "load_model",
    "load_records",
    "save_model",
    "sweep",
    "__version__",
]
