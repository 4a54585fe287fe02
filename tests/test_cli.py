import contextlib
import errno
import gc
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import bibclass
import oracles
from bibclass import cli, evalhub
from bibclass.bayes import CategoryModel, TextClassifierConfig, build_model
from bibclass.citegraph import CitationClassifierConfig
from bibclass.corpus import load_model, save_model
from bibclass.errors import DataError, UsageError
from bibclass.evalhub import Assignment
from bibclass.textpipe import TokenizerConfig, default_tokenizer_config, load_triggers


# Record lines the JSON decoder itself refuses: nesting past the recursion
# limit, and an integer past the interpreter's digit limit.
HOSTILE_LINES = [
    "[" * 200_000 + "]" * 200_000,
    '{"id": "big", "title": "galaxy star", "year": ' + "9" * 5000 + ', "labels": []}',
]


@pytest.fixture()
def workspace(tmp_path):
    """A small but complete input set in one directory."""
    train = [
        {"id": "t1", "title": "galaxy quasar star nebula galaxy", "year": 1995, "labels": ["astro"]},
        {"id": "t2", "title": "galaxy star quasar redshift quasar", "year": 1995, "labels": ["astro"]},
        {"id": "t3", "title": "quantum lattice phonon boson quantum", "year": 1995, "labels": ["phys"]},
        {"id": "t4", "title": "lattice quantum fermion phonon boson", "year": 1995, "labels": ["phys"]},
    ]
    test = [
        {"id": "r1", "title": "quasar galaxy redshift star nebula", "year": 1997, "labels": ["astro"]},
        {"id": "r2", "title": "phonon lattice quantum boson fermion", "year": 1997, "labels": ["phys"]},
        {"id": "r3", "title": "short note", "year": 1997, "labels": []},
    ]
    (tmp_path / "train.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in train), encoding="utf-8"
    )
    (tmp_path / "test.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in test), encoding="utf-8"
    )
    (tmp_path / "citations.tsv").write_text(
        "".join(
            f"c{i}\tr1\n" for i in range(1, 5)
        )
        + "".join(f"c{i}\tr3\n" for i in range(5, 9)),
        encoding="utf-8",
    )
    (tmp_path / "memberships.tsv").write_text(
        "".join(f"c{i}\tastro\n" for i in range(1, 5))
        + "".join(f"c{i}\tphys\n" for i in range(5, 9)),
        encoding="utf-8",
    )
    return tmp_path


def build(workspace, extra=()):
    rc = cli.run(
        [
            "build-model",
            "--records",
            str(workspace / "train.jsonl"),
            "--model",
            str(workspace / "model.txt"),
            *extra,
        ]
    )
    assert rc == 0
    return workspace / "model.txt"


class TestBuildModel:
    def test_trains_and_reports(self, workspace, capsys):
        build(workspace)
        out = capsys.readouterr().out
        assert "astro, phys" in out
        assert (workspace / "model.txt").exists()

    def test_missing_records_flag_is_usage_error(self, workspace, capsys):
        rc = cli.run(["build-model", "--model", str(workspace / "m.txt")])
        assert rc == 1
        assert "requires --records" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1", "abc", "1e308"])
    def test_bad_alpha_is_usage_error(self, workspace, capsys, value):
        rc = cli.run(
            [
                "build-model",
                "--records",
                str(workspace / "train.jsonl"),
                "--model",
                str(workspace / "m.txt"),
                "--alpha",
                value,
            ]
        )
        assert rc == 1
        assert "--alpha" in capsys.readouterr().err
        assert not (workspace / "m.txt").exists()

    def test_unlabeled_corpus_is_data_error(self, workspace, capsys):
        (workspace / "empty.jsonl").write_text(
            json.dumps({"id": "x", "title": "words here", "year": 1, "labels": []}) + "\n",
            encoding="utf-8",
        )
        rc = cli.run(
            [
                "build-model",
                "--records",
                str(workspace / "empty.jsonl"),
                "--model",
                str(workspace / "m.txt"),
            ]
        )
        assert rc == 2


class TestClassify:
    def test_text_mode_writes_assignments(self, workspace, capsys):
        model = build(workspace)
        out = workspace / "out.tsv"
        rc = cli.run(
            [
                "classify",
                "--records",
                str(workspace / "test.jsonl"),
                "--model",
                str(model),
                "--mode",
                "text",
                "--st",
                "0.35",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "r1\tastro\tastro\t"
        assert lines[1] == "r2\tphys\tphys\t"
        assert lines[2] == "r3\t\t\t"

    def test_combined_mode_unions_routes(self, workspace):
        model = build(workspace)
        out = workspace / "out.tsv"
        rc = cli.run(
            [
                "classify",
                "--records",
                str(workspace / "test.jsonl"),
                "--model",
                str(model),
                "--citations",
                str(workspace / "citations.tsv"),
                "--memberships",
                str(workspace / "memberships.tsv"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        # r3 is too short for text but has four physics citers.
        assert lines[2] == "r3\tphys\t\tphys"

    def test_citation_mode_needs_no_model(self, workspace):
        out = workspace / "out.tsv"
        rc = cli.run(
            [
                "classify",
                "--records",
                str(workspace / "test.jsonl"),
                "--mode",
                "citation",
                "--citations",
                str(workspace / "citations.tsv"),
                "--memberships",
                str(workspace / "memberships.tsv"),
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "r1\tastro\t\tastro"

    def test_combined_without_citations_is_usage_error(self, workspace, capsys):
        model = build(workspace)
        rc = cli.run(
            [
                "classify",
                "--records",
                str(workspace / "test.jsonl"),
                "--model",
                str(model),
            ]
        )
        assert rc == 1
        assert "--memberships" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, workspace, capsys):
        rc = cli.run(["classify", "--bogus"])
        assert rc == 1
        assert "usage" in capsys.readouterr().err

    def test_missing_model_file_is_data_error(self, workspace, capsys):
        rc = cli.run(
            [
                "classify",
                "--records",
                str(workspace / "test.jsonl"),
                "--model",
                str(workspace / "absent.txt"),
                "--mode",
                "text",
            ]
        )
        assert rc == 2
        assert "absent.txt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "mode,flag,value",
        [
            ("text", "--st", "1.5"),
            ("text", "--st", "abc"),
            ("text", "--st", "nan"),
            ("text", "--st", "inf"),
            ("text", "--rc", "nan"),
            ("text", "--rc", "-inf"),
            ("text", "--boost", "nan"),
            ("text", "--boost", "inf"),
            ("text", "--nt", "-1"),
            ("text", "--nc", "0"),
            ("text", "--rc", "0"),
            ("text", "--workers", "0"),
            ("text", "--mode", "psychic"),
            # Citation mode does not use --boost, but still checks it.
            ("citation", "--boost", "nan"),
            ("citation", "--boost", "7"),
        ],
    )
    def test_bad_parameter_values_are_usage_errors(self, workspace, capsys, mode, flag, value):
        model = build(workspace)
        out = workspace / "out.tsv"
        rc = cli.run(
            [
                "classify",
                "--records",
                str(workspace / "test.jsonl"),
                "--model",
                str(model),
                "--citations",
                str(workspace / "citations.tsv"),
                "--memberships",
                str(workspace / "memberships.tsv"),
                "--out",
                str(out),
                "--mode",
                mode,
                flag,  # the last of a repeated --mode wins
                value,
            ]
        )
        assert rc == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_list_value_rejected_outside_sweep(self, workspace, capsys):
        model = build(workspace)
        rc = cli.run(
            [
                "classify",
                "--records",
                str(workspace / "test.jsonl"),
                "--model",
                str(model),
                "--mode",
                "text",
                "--st",
                "0.25,0.5",
            ]
        )
        assert rc == 1
        assert "single value" in capsys.readouterr().err


class TestEvaluate:
    def test_reports_per_database(self, workspace, capsys):
        model = build(workspace)
        capsys.readouterr()
        rc = cli.run(
            [
                "evaluate",
                "--records",
                str(workspace / "test.jsonl"),
                "--model",
                str(model),
                "--mode",
                "text",
                "--st",
                "0.35",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "db=astro tp=1 fp=0 fn=0 precision=1.000000 recall=1.000000" in out
        assert "db=phys" in out

    def test_db_filter(self, workspace, capsys):
        model = build(workspace)
        capsys.readouterr()
        rc = cli.run(
            [
                "evaluate",
                "--records",
                str(workspace / "test.jsonl"),
                "--model",
                str(model),
                "--mode",
                "text",
                "--db",
                "astro",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "db=astro" in out
        assert "db=phys" not in out


class TestSweep:
    def test_writes_grid_csv(self, workspace):
        model = build(workspace)
        grid = workspace / "grid.csv"
        rc = cli.run(
            [
                "sweep",
                "--records",
                str(workspace / "test.jsonl"),
                "--model",
                str(model),
                "--mode",
                "text",
                "--db",
                "astro",
                "--nt",
                "1,5",
                "--st",
                "0.25,0.75",
                "--grid-out",
                str(grid),
            ]
        )
        assert rc == 0
        lines = grid.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "mode,db,N_t,S_t,N_c,R_c,tp,fp,fn,precision,recall"
        assert len(lines) == 5
        assert lines[1].startswith("text,astro,1,0.250000,")

    @pytest.mark.parametrize("from_config", [False, True])
    def test_signed_zero_is_read_as_zero(self, workspace, monkeypatch, from_config):
        model = build(workspace)

        def grid(st_values):
            out = workspace / "grid.csv"
            argv = ["sweep", "--records", str(workspace / "test.jsonl"), "--model", str(model)]
            argv += ["--mode", "text", "--db", "astro", "--nt", "1", "--grid-out", str(out)]
            if from_config:
                config = workspace / "config.txt"
                config.write_text(f"st = {st_values}\n", encoding="utf-8")
                monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(config))
            else:
                monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
                argv.append(f"--st={st_values}")
            assert cli.run(argv) == 0
            return out.read_bytes()

        signed = grid("-0,0.25")
        assert b"-0.000000" not in signed
        assert b"text,astro,1,0.000000," in signed
        assert signed == grid("0,-0,0.25")

    @pytest.mark.parametrize("mode", ["text", "citation", "combined"])
    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    def test_unknown_db_is_data_error_before_scoring(
        self, workspace, monkeypatch, capsys, command, mode
    ):
        def fail(*args):
            raise AssertionError("a record was scored")

        monkeypatch.setattr(evalhub, "text_score_table", fail)
        monkeypatch.setattr(evalhub, "citation_score_table", fail)
        build(workspace)
        monkeypatch.chdir(workspace)
        capsys.readouterr()
        rc = cli.run(
            [
                command,
                "--records",
                "test.jsonl",
                "--model",
                "model.txt",
                "--citations",
                "citations.tsv",
                "--memberships",
                "memberships.tsv",
                "--mode",
                mode,
                "--db",
                "nope",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (
            "error: database 'nope' is not in the configured set ['astro', 'phys']\n"
        )
        assert captured.out == ""
        assert not Path("grid.csv").exists()

    @pytest.mark.parametrize(
        ("mode", "used", "unused", "columns", "defaults"),
        [
            ("text", "--nt 1,5 --st 0.25,0.75", "--nc 2,3", slice(4, 6), ["4", "0.500000"]),
            ("citation", "--nc 1,2 --rc 0.5,1", "--nt 3,7", slice(2, 4), ["5", "0.250000"]),
        ],
    )
    def test_unused_classifier_grids_multiply_rows(
        self, workspace, monkeypatch, mode, used, unused, columns, defaults
    ):
        build(workspace)
        monkeypatch.chdir(workspace)
        argv = ["sweep", "--records", "test.jsonl", "--model", "model.txt", "--mode", mode]
        argv += ["--citations", "citations.tsv", "--memberships", "memberships.tsv"]
        argv += ["--db", "astro", *used.split()]

        def rows(*extra):
            assert cli.run([*argv, *extra]) == 0
            return [line.split(",") for line in Path("grid.csv").read_text("utf-8").splitlines()[1:]]

        def without_unused(rows):
            return sorted(row[: columns.start] + row[columns.stop :] for row in rows)

        plain = rows()
        assert len(plain) == 4
        assert all(row[columns] == defaults for row in plain)
        doubled = rows(*unused.split())
        assert len(doubled) == 8
        assert sorted({row[columns.start] for row in doubled}) == unused.split()[1].split(",")
        # Each used point appears once per unused value, with the same tp, fp and fn.
        assert without_unused(doubled) == sorted(without_unused(plain) * 2)

    def test_db_is_required(self, workspace, capsys):
        model = build(workspace)
        rc = cli.run(
            [
                "sweep",
                "--records",
                str(workspace / "test.jsonl"),
                "--model",
                str(model),
                "--mode",
                "text",
            ]
        )
        assert rc == 1
        assert "--db" in capsys.readouterr().err


# Model files that parse but cannot score a record: documents summing to 0,
# no database block at all, and documents without any term.
_DEGENERATE_MODELS = {
    "no-documents": "db\tastro\t0\t2\nt\tgalaxy\t1\nt\tstar\t1\ndb\tphys\t0\t0\n",
    "no-databases": "",
    "no-terms": "db\tastro\t2\t0\ndb\tphys\t1\t0\n",
    "count-beyond-float": f"db\tastro\t1\t{10**400}\nt\tgalaxy\t{10**400}\n",
}


class TestDegenerateModel:
    @pytest.mark.parametrize(
        "command,extra",
        [
            ("classify", ["--out", "out.tsv"]),
            ("evaluate", ["--db", "astro"]),
            ("sweep", ["--db", "astro", "--grid-out", "grid.csv"]),
        ],
    )
    @pytest.mark.parametrize("mode", ["text", "combined"])
    @pytest.mark.parametrize("body", sorted(_DEGENERATE_MODELS))
    def test_is_a_data_error(self, workspace, monkeypatch, capsys, command, extra, mode, body):
        monkeypatch.chdir(workspace)
        header = "bibclass-model v1\nalpha\t1.0\n"
        Path("model.txt").write_text(header + _DEGENERATE_MODELS[body], encoding="utf-8")
        rc = cli.run(
            [
                command,
                "--records",
                "test.jsonl",
                "--model",
                "model.txt",
                "--citations",
                "citations.tsv",
                "--memberships",
                "memberships.tsv",
                "--mode",
                mode,
                *extra,
            ]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "corrupt model file" in captured.err
        assert captured.out == ""
        assert not Path("out.tsv").exists() and not Path("grid.csv").exists()


# Model files whose lines parse but whose counts or names are unusable, with
# the message each is reported under.
_CORRUPT_MODELS = {
    "duplicate-db-block": (
        "db\tastro\t1\t1\nt\tgalaxy\t1\ndb\tastro\t1\t1\nt\tstar\t1\n",
        ":5: duplicate database block",
    ),
    "negative-term-count": (
        "db\tastro\t1\t0\nt\tgalaxy\t-1\nt\tstar\t1\n",
        "negative term count in database 'astro'",
    ),
    "negative-document-count": (
        "db\tastro\t-1\t1\nt\tgalaxy\t1\ndb\tphys\t2\t1\nt\tquantum\t1\n",
        "negative totals for database 'astro'",
    ),
    "zero-term-count": (
        "db\tastro\t1\t1\nt\tgalaxy\t1\nt\tstar\t0\n",
        ":5: term 'star' has a zero count",
    ),
    "total-unlike-its-terms": (
        "db\tastro\t1\t3\nt\tgalaxy\t1\nt\tstar\t1\n",
        "total_tokens['astro'] does not match its term counts",
    ),
    "comma-in-name": (
        "db\tastro,phys\t1\t2\nt\tgalaxy\t2\ndb\t\t1\t1\nt\tstar\t1\n",
        ":3: bad database name 'astro,phys'",
    ),
    "empty-name": ("db\t\t1\t1\nt\tstar\t1\n", ":3: bad database name ''"),
    "padded-name": ("db\t astro\t1\t1\nt\tstar\t1\n", ":3: bad database name ' astro'"),
    "next-line-in-name": (
        "db\tastro\x85\t1\t1\nt\tstar\t1\n",
        ":3: bad database name 'astro\\x85'",
    ),
}


class TestCorruptModel:
    @pytest.mark.parametrize("body", sorted(_CORRUPT_MODELS))
    def test_is_a_data_error(self, workspace, monkeypatch, capsys, body):
        monkeypatch.chdir(workspace)
        lines, message = _CORRUPT_MODELS[body]
        Path("model.txt").write_text("bibclass-model v1\nalpha\t1.0\n" + lines, encoding="utf-8")
        rc = cli.run(
            ["classify", "--mode", "text", "--records", "test.jsonl", "--model", "model.txt"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "error: corrupt model file" in captured.err
        assert message in captured.err
        assert captured.out == ""
        assert not Path("assignments.tsv").exists()


class TestModelTerms:
    """A model term must be a token a scoring run could keep, or no token could equal it."""

    @pytest.mark.parametrize(
        "term",
        ["Galaxy Star", "Galaxy", "x-ray", "xray star", "caf\u00e9", "1997", "", " galaxy", "a_b"],
    )
    def test_term_no_token_can_equal_is_a_data_error(self, workspace, monkeypatch, capsys, term):
        monkeypatch.chdir(workspace)
        Path("model.txt").write_text(
            f"bibclass-model v1\nalpha\t1.0\ndb\tastro\t1\t2\nt\tgalaxy\t1\nt\t{term}\t1\n",
            encoding="utf-8",
        )
        rc = cli.run(
            ["classify", "--mode", "text", "--records", "test.jsonl", "--model", "model.txt"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == (
            f"error: corrupt model file at model.txt:5: term {term!r} is not a token\n"
        )
        assert captured.out == ""
        assert not Path("assignments.tsv").exists()

    def test_a_model_of_tokens_loads(self, workspace, monkeypatch):
        monkeypatch.chdir(workspace)
        Path("model.txt").write_text(
            "bibclass-model v1\nalpha\t1.0\ndb\tastro\t1\t3\nt\tgalaxy\t1\nt\tx2y\t1\n"
            "t\t7b\t1\ndb\tphys\t1\t1\nt\tquark\t1\n",
            encoding="utf-8",
        )
        rc = cli.run(
            ["classify", "--mode", "text", "--records", "test.jsonl", "--model", "model.txt"]
        )
        assert rc == 0

    @settings(max_examples=60, deadline=None)
    @given(
        titles=st.lists(
            st.lists(
                st.sampled_from(
                    ["Galaxy", "x-ray", "X-Ray", "caf\u00e9", "1997", "a1", "the", "et al.",
                     "\u00c5ngstr\u00f6m", "star--dust", "-lone-", "\ufb01ne", "2nd", "K\u00e4lte"]
                ),
                min_size=1,
                max_size=6,
            ),
            min_size=1,
            max_size=5,
        ),
        labels=st.lists(st.sampled_from(["astro", "phys"]), min_size=1, max_size=2),
    )
    def test_every_model_build_model_writes_loads_back_exactly(
        self, tmp_path_factory, titles, labels
    ):
        tmp = tmp_path_factory.mktemp("round-trip")
        records = tmp / "train.jsonl"
        records.write_text(
            "".join(
                json.dumps({"id": f"t{i}", "title": " ".join(words), "year": 1, "labels": labels})
                + "\n"
                for i, words in enumerate(titles)
            ),
            encoding="utf-8",
        )
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.run(["build-model", "--records", str(records), "--model", str(tmp / "m.txt")])
        if rc != 0:
            return  # every title filtered away: nothing to train on
        loaded = load_model(tmp / "m.txt")
        save_model(loaded, tmp / "again.txt")
        assert (tmp / "again.txt").read_bytes() == (tmp / "m.txt").read_bytes()


class TestMembershipFile:
    def classify(self, workspace, body):
        (workspace / "memberships.tsv").write_text(body, encoding="utf-8")
        return cli.run(
            [
                "classify",
                "--mode",
                "citation",
                "--records",
                str(workspace / "test.jsonl"),
                "--citations",
                str(workspace / "citations.tsv"),
                "--memberships",
                str(workspace / "memberships.tsv"),
                "--out",
                str(workspace / "out.tsv"),
            ]
        )

    def test_database_name_with_a_line_boundary_is_a_data_error(self, workspace, capsys):
        rc = self.classify(workspace, "c1\tastro\u2028x\nc2\tastro\n")
        assert rc == 2
        assert "malformed membership line at" in capsys.readouterr().err
        assert not (workspace / "out.tsv").exists()

    def test_file_naming_no_databases_is_a_data_error(self, workspace, capsys):
        rc = self.classify(workspace, "# no names\nc1\t\nc2\t , \n")
        assert rc == 2
        assert "error: membership file names no databases" in capsys.readouterr().err
        assert not (workspace / "out.tsv").exists()


class TestStopListFlags:
    @pytest.mark.parametrize("words", [None, "words.txt"])
    @pytest.mark.parametrize("phrases", [None, "phrases.txt"])
    def test_each_list_comes_from_its_flag_or_the_bundled_file(self, tmp_path, words, phrases):
        (tmp_path / "words.txt").write_text("# words\nGalaxy\n\nx-ray\n", encoding="utf-8")
        (tmp_path / "phrases.txt").write_text("et al.\n", encoding="utf-8")
        data = Path(bibclass.textpipe.__file__).with_name("data")
        words_path = tmp_path / words if words else data / "stopwords.txt"
        phrases_path = tmp_path / phrases if phrases else data / "stopphrases.txt"
        config = default_tokenizer_config(
            str(tmp_path / words) if words else None,
            str(tmp_path / phrases) if phrases else None,
        )
        expected = TokenizerConfig(
            frozenset(bibclass.textpipe.load_term_list(words_path)),
            frozenset(bibclass.textpipe.load_term_list(phrases_path)),
        )
        assert config == expected
        assert config.phrase_index == expected.phrase_index
        if not (words or phrases):
            assert config == bibclass.textpipe.default_tokenizer_config()


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, workspace, monkeypatch, capsys):
        model = build(workspace)
        config = workspace / "config.txt"
        config.write_text("# settings\nmode = text\nst = 0.9\n", encoding="utf-8")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(config))
        capsys.readouterr()
        rc = cli.run(
            [
                "evaluate",
                "--records",
                str(workspace / "test.jsonl"),
                "--model",
                str(model),
                "--st",
                "0.1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        # mode came from the config file; the explicit --st 0.1 beat st=0.9.
        assert "mode: text" in out
        assert "db=astro tp=1" in out

    def test_unknown_config_key_is_usage_error(self, workspace, monkeypatch, capsys):
        config = workspace / "config.txt"
        config.write_text("volume = 11\n", encoding="utf-8")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(config))
        rc = cli.run(
            [
                "classify",
                "--records",
                str(workspace / "test.jsonl"),
                "--mode",
                "citation",
                "--citations",
                str(workspace / "citations.tsv"),
                "--memberships",
                str(workspace / "memberships.tsv"),
            ]
        )
        assert rc == 1
        assert "volume" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["st = nan", "rc = inf", "boost = -inf", "alpha = nan"])
    def test_non_finite_config_value_is_usage_error(self, workspace, monkeypatch, capsys, line):
        model = build(workspace)
        config = workspace / "config.txt"
        config.write_text(line + "\n", encoding="utf-8")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(config))
        command = "build-model" if line.startswith("alpha") else "classify"
        args = ["--records", str(workspace / "train.jsonl"), "--model", str(model)]
        rc = cli.run([command, *args, *([] if command == "build-model" else ["--mode", "text"])])
        assert rc == 1
        assert "finite" in capsys.readouterr().err

    def test_malformed_config_line_is_usage_error(self, workspace, monkeypatch):
        config = workspace / "config.txt"
        config.write_text("just words\n", encoding="utf-8")
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(config))
        rc = cli.run(["classify", "--records", str(workspace / "test.jsonl")])
        assert rc == 1


class TestLibraryDefaults:
    def test_config_defaults_are_the_flag_defaults(self):
        # A library call without a config decides where a run without flags does.
        def typed(*values):
            return [(type(v), v) for v in values]

        def flag_default(name):
            flag = cli._FLAGS[name]
            return flag.parse(flag.default, cli._option(name))

        text, cite = TextClassifierConfig(), CitationClassifierConfig()
        assert typed(text.min_words, text.score_threshold, text.trigger_boost) == typed(
            *map(flag_default, ["nt", "st", "boost"])
        )
        assert typed(cite.min_citations, cite.ratio_threshold) == typed(
            *map(flag_default, ["nc", "rc"])
        )

        def keyword_default(function, name):
            return inspect.signature(function).parameters[name].default

        alpha, mode = flag_default("alpha"), flag_default("mode")
        assert typed(
            keyword_default(build_model, "alpha"),
            keyword_default(CategoryModel, "smoothing_alpha"),
        ) == typed(alpha, alpha)
        assert typed(
            keyword_default(evalhub.classify_corpus, "mode"),
            keyword_default(evalhub.evaluate, "mode"),
        ) == typed(mode, mode)


class TestInputEncoding:
    @pytest.mark.parametrize(
        "reader",
        ["records", "citations", "memberships", "model", "stopwords", "triggers", "config"],
    )
    def test_invalid_utf8_is_a_data_error(self, workspace, monkeypatch, capsys, reader):
        model = build(workspace)
        bad = workspace / "bad.bin"
        bad.write_bytes(b"ok\n\xff\n")
        argv = [
            "classify",
            "--records",
            str(workspace / "test.jsonl"),
            "--model",
            str(model),
            "--citations",
            str(workspace / "citations.tsv"),
            "--memberships",
            str(workspace / "memberships.tsv"),
            "--out",
            str(workspace / "out.tsv"),
        ]
        if reader == "config":
            monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(bad))
        else:
            argv += [f"--{reader}", str(bad)]  # the last of a repeated flag wins
        capsys.readouterr()
        assert cli.run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read")
        assert "bad.bin" in err
        assert not (workspace / "out.tsv").exists()

    @pytest.mark.parametrize("command", ["build-model", "classify", "evaluate", "sweep"])
    def test_lone_surrogate_record_is_skipped(self, workspace, capsys, command):
        model = build(workspace)
        bad = {"id": "bad\ud800", "title": "quasar galaxy star", "year": 1997, "labels": ["astro"]}
        if command == "build-model":
            bad = dict(bad, id="bad", labels=["astro\ud800"])
        clean = workspace / ("train.jsonl" if command == "build-model" else "test.jsonl")
        dirty = workspace / "dirty.jsonl"
        dirty.write_text(clean.read_text(encoding="utf-8") + json.dumps(bad) + "\n", "utf-8")
        out = workspace / "out"
        text = ["--model", str(model), "--mode", "text"]
        flags = {
            "build-model": ["--model", str(out)],
            "classify": [*text, "--out", str(out)],
            "evaluate": text,
            "sweep": [*text, "--db", "astro", "--grid-out", str(out)],
        }[command]
        runs = []
        for records in (clean, dirty):
            out.unlink(missing_ok=True)
            capsys.readouterr()
            assert cli.run([command, "--records", str(records), *flags]) == 0
            runs.append((capsys.readouterr().out, out.read_bytes() if out.exists() else None))
        (clean_stdout, clean_out), (dirty_stdout, dirty_out) = runs
        assert dirty_out == clean_out
        assert dirty_stdout == clean_stdout.replace("(0 skipped)", "(1 skipped)")

    def test_ids_with_a_tab_or_line_boundary_are_skipped(self, workspace, capsys):
        model = build(workspace)
        clean = workspace / "test.jsonl"
        dirty = workspace / "dirty.jsonl"
        bad = [
            {"id": rid, "title": "quasar galaxy star", "year": 1997, "labels": []}
            for rid in ("a\tb", "c\nd", "e\u2028f", "g\x85h")
        ]
        dirty.write_text(
            clean.read_text(encoding="utf-8") + "".join(json.dumps(r) + "\n" for r in bad),
            encoding="utf-8",
        )
        out = workspace / "out.tsv"
        runs = []
        for records in (clean, dirty):
            capsys.readouterr()
            argv = ["classify", "--records", str(records), "--model", str(model), "--mode", "text"]
            assert cli.run([*argv, "--out", str(out)]) == 0
            runs.append((capsys.readouterr().out, out.read_text(encoding="utf-8")))
        (clean_stdout, clean_out), (dirty_stdout, dirty_out) = runs
        assert dirty_out == clean_out
        assert all(line.count("\t") == 3 for line in dirty_out.splitlines())
        assert dirty_stdout == clean_stdout.replace("(0 skipped)", "(4 skipped)")

    @pytest.mark.parametrize(
        "reader,name,text",
        [
            ("records", "test.jsonl", None),
            ("citations", "citations.tsv", None),
            ("memberships", "memberships.tsv", None),
            ("model", "model.txt", None),
            # r1 has exactly five words, so dropping "quasar" puts it under N_t.
            ("stopwords", "stop.txt", "quasar\n"),
            ("triggers", "triggers.tsv", "phys\tgalaxy\n"),
            ("config", "config.txt", "nc = 1\n"),
        ],
    )
    def test_byte_order_mark_is_ignored(self, workspace, monkeypatch, capsys, reader, name, text):
        model = build(workspace)
        plain = workspace / name
        if text is not None:
            plain.write_text(text, encoding="utf-8")
        marked = workspace / ("bom-" + name)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        out = workspace / "out.tsv"
        runs = []
        for path in (plain, marked):
            argv = [
                "classify",
                "--records",
                str(workspace / "test.jsonl"),
                "--model",
                str(model),
                "--citations",
                str(workspace / "citations.tsv"),
                "--memberships",
                str(workspace / "memberships.tsv"),
                "--out",
                str(out),
            ]
            if reader == "config":
                monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(path))
            else:
                argv += [f"--{reader}", str(path)]  # the last of a repeated flag wins
            out.unlink(missing_ok=True)
            capsys.readouterr()
            assert cli.run(argv) == 0
            runs.append((capsys.readouterr().out, out.read_bytes()))
        assert runs[1] == runs[0]

    @pytest.mark.parametrize("sep", ["\x0c", "\x85", "\u2028"], ids=["ff", "nel", "ls"])
    @pytest.mark.parametrize(
        "reader,name,first,bad",
        [
            # ``first`` replaces the file's first line, with SEP where a space
            # would parse the same; ``bad`` is appended and must be reported
            # at the number of its \n-ended line (None: the reader has no error).
            (
                "records",
                "test.jsonl",
                'SEP{"id": "r0", "title": "quasar galaxy star", "year": 1997, "labels": []}',
                '{"id": "r0", "title": "again", "year": 1997, "labels": []}',
            ),
            ("citations", "citations.tsv", "c9SEP\tr1", "bad"),
            ("memberships", "memberships.tsv", "c1SEP\tastro", "bad"),
            ("model", "model.txt", "bibclass-model SEPv1", "bad"),
            ("stopwords", "stop.txt", "quasarSEPzz", None),
            ("triggers", "triggers.tsv", "physSEP\tgalaxy", "bad"),
            ("config", "config.txt", "ncSEP= 1", "bad"),
        ],
    )
    def test_only_newlines_end_a_line(
        self, workspace, monkeypatch, capsys, reader, name, first, bad, sep
    ):
        model = build(workspace)
        path = workspace / name
        rest = path.read_text(encoding="utf-8").splitlines()[1:] if path.exists() else []
        out = workspace / "out.tsv"
        argv = [
            "classify",
            "--records",
            str(workspace / "test.jsonl"),
            "--model",
            str(model),
            "--citations",
            str(workspace / "citations.tsv"),
            "--memberships",
            str(workspace / "memberships.tsv"),
            "--out",
            str(out),
        ]
        if reader == "config":
            monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(path))
        else:
            argv += [f"--{reader}", str(path)]  # the last of a repeated flag wins

        def run(char, extra=()):
            lines = [first.replace("SEP", char), *rest, *extra]
            path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))
            out.unlink(missing_ok=True)
            capsys.readouterr()
            rc = cli.run(argv)
            return rc, capsys.readouterr(), out.read_bytes() if out.exists() else None, len(lines)

        spaced, separated = run(" "), run(sep)
        assert spaced[0] == 0
        assert separated[:3] == spaced[:3]
        if bad is not None:
            rc, captured, _, lineno = run(sep, [bad])
            assert rc in (1, 2)
            assert f"{path}:{lineno}" in captured.err


# A citation-mode run of the workspace's inputs, which needs no model.
_CITATION_RUN = (
    "--mode citation --records test.jsonl --citations citations.tsv --memberships memberships.tsv"
).split()


def _run_into_unwritable(sink, unbuffered, argv, cwd):
    """Run the CLI with standard output on ``sink``; it must exit 2 with one line on stderr.

    ``sink`` is a pipe whose reader is gone or ``/dev/full``, and
    ``unbuffered`` the value of ``PYTHONUNBUFFERED``: set, a write fails at
    once, else the flush at the end.
    """
    if sink == "/dev/full" and not os.path.exists(sink):
        pytest.skip("no /dev/full on this system")
    env = {k: v for k, v in os.environ.items() if k != cli.CONFIG_ENV_VAR}
    env["PYTHONPATH"] = str(Path(bibclass.__file__).resolve().parent.parent)
    env["PYTHONUNBUFFERED"] = unbuffered
    if sink == "closed pipe":
        read_end, stdout = os.pipe()
        os.close(read_end)  # so every write fails with EPIPE
        code = errno.EPIPE
    else:
        stdout = os.open(sink, os.O_WRONLY)
        code = errno.ENOSPC
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bibclass.cli", *argv],
            cwd=cwd,
            env=env,
            stdout=stdout,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(stdout)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == (
        f"error: cannot write standard output: [Errno {code}] {os.strerror(code)}\n"
    )


class TestOneShotProcess:
    def test_hostile_record_lines_are_skipped_without_a_traceback(self, workspace, capsys):
        model = build(workspace)
        clean = workspace / "test.jsonl"
        dirty = workspace / "dirty.jsonl"
        dirty.write_text(
            clean.read_text(encoding="utf-8") + "".join(line + "\n" for line in HOSTILE_LINES),
            encoding="utf-8",
        )
        clean_out = workspace / "clean.tsv"
        argv = ["classify", "--model", str(model), "--mode", "text"]
        capsys.readouterr()
        assert cli.run([*argv, "--records", str(clean), "--out", str(clean_out)]) == 0
        clean_stdout = capsys.readouterr().out
        env = {k: v for k, v in os.environ.items() if k != cli.CONFIG_ENV_VAR}
        env["PYTHONPATH"] = str(Path(bibclass.__file__).resolve().parent.parent)
        dirty_out = workspace / "dirty.tsv"
        proc = subprocess.run(
            [sys.executable, "-m", "bibclass.cli", *argv, "--records", str(dirty)]
            + ["--out", str(dirty_out)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("skipping malformed record line") == 2
        assert dirty_out.read_bytes() == clean_out.read_bytes()
        assert proc.stdout.replace(str(dirty_out), str(clean_out)) == clean_stdout.replace(
            "(0 skipped)", "(2 skipped)"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-model", "--records", "train.jsonl", "--model", "."],
            ["classify", *_CITATION_RUN, "--out", ""],
            ["sweep", *_CITATION_RUN, "--db", "astro", "--grid-out", "/"],
            ["classify", *_CITATION_RUN, "--out", "x/"],
        ],
    )
    def test_output_path_with_no_file_name_is_a_data_error(self, workspace, argv):
        env = {k: v for k, v in os.environ.items() if k != cli.CONFIG_ENV_VAR}
        env["PYTHONPATH"] = str(Path(bibclass.__file__).resolve().parent.parent)
        before = sorted(os.listdir(workspace))
        proc = subprocess.run(
            [sys.executable, "-m", "bibclass.cli", *argv],
            cwd=workspace,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot write ")
        assert "names no file" in proc.stderr
        assert sorted(os.listdir(workspace)) == before

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
    def test_unwritable_standard_output_is_a_data_error(
        self, workspace, monkeypatch, sink, unbuffered
    ):
        argv = ["classify", *_CITATION_RUN]
        monkeypatch.chdir(workspace)
        assert cli.run([*argv, "--out", "expected.tsv"]) == 0
        _run_into_unwritable(sink, unbuffered, [*argv, "--out", "out.tsv"], workspace)
        assert Path("out.tsv").read_bytes() == Path("expected.tsv").read_bytes()

    def test_summary_standard_output_cannot_encode_is_a_data_error(self, workspace, monkeypatch):
        memberships = workspace / "memberships.tsv"
        text = memberships.read_text(encoding="utf-8")
        memberships.write_text(text.replace("astro", "astronomíe"), encoding="utf-8")
        argv = ["classify", *_CITATION_RUN]
        monkeypatch.chdir(workspace)
        assert cli.run([*argv, "--out", "expected.tsv"]) == 0
        env = {k: v for k, v in os.environ.items() if k != cli.CONFIG_ENV_VAR}
        env["PYTHONPATH"] = str(Path(bibclass.__file__).resolve().parent.parent)
        env["PYTHONIOENCODING"] = "ascii"
        proc = subprocess.run(
            [sys.executable, "-m", "bibclass.cli", *argv, "--out", "out.tsv"],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: cannot write standard output: 'ascii' codec")
        assert proc.stderr.count("\n") == 1
        assert Path("out.tsv").read_bytes() == Path("expected.tsv").read_bytes()

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    @pytest.mark.parametrize("sink", ["closed pipe", "/dev/full"])
    @pytest.mark.parametrize("argv", [["--help"], ["classify", "--help"]])
    def test_help_to_unwritable_standard_output_is_a_data_error(
        self, workspace, sink, unbuffered, argv
    ):
        _run_into_unwritable(sink, unbuffered, argv, workspace)

    def test_collector_finds_nothing_that_grows_with_the_input(self, bench, tmp_path):
        # main() turns the cyclic collector off, which is sound only while a
        # run leaves no per-record reference cycles behind.
        paths = bench["paths"]
        model = tmp_path / "model.txt"
        assert cli.run(["build-model", "--records", str(paths["train"]), "--model", str(model)]) == 0
        lines = paths["test"].read_text(encoding="utf-8").splitlines()
        argv = ["classify", "--model", str(model), "--citations", str(paths["citations"])]
        argv += ["--memberships", str(paths["memberships"]), "--out", str(tmp_path / "out.tsv")]
        found = []
        for size in (10, 1000):
            records = tmp_path / f"records{size}.jsonl"
            malformed = ["not json", *HOSTILE_LINES]
            records.write_text("".join(f"{x}\n" for x in lines[:size] + malformed), "utf-8")
            gc.collect()
            gc.disable()
            try:
                assert cli.run([*argv, "--records", str(records)]) == 0
                found.append(gc.collect())
            finally:
                gc.enable()
        assert found[0] == found[1]


# The flags of each mode's input files, and the arguments each scoring
# command adds, all relative to the workspace.
_MODE_FILES = {
    "text": "--mode text --model model.txt --triggers triggers.tsv",
    "citation": "--mode citation --citations citations.tsv --memberships memberships.tsv",
    "combined": "--model model.txt --triggers triggers.tsv "
    "--citations citations.tsv --memberships memberships.tsv",
}
_COMMAND_ARGS = {
    "classify": "--out out.tsv",
    "evaluate": "--db astro",
    "sweep": "--db astro --nt 1,5 --nc 1,4 --grid-out out.tsv",
}


class TestModeReadsOnlyItsFiles:
    @pytest.fixture()
    def scoring_run(self, workspace, monkeypatch, capsys):
        """Run a scoring command in the workspace; returns its status, streams and file."""
        build(workspace)
        (workspace / "triggers.tsv").write_text("astro\tquasar\n", encoding="utf-8")
        monkeypatch.chdir(workspace)

        def scoring_run(command, mode, *extra):
            capsys.readouterr()
            argv = [command, "--records", "test.jsonl", *_MODE_FILES[mode].split()]
            rc = cli.run([*argv, *_COMMAND_ARGS[command].split(), *extra])
            out = Path("out.tsv")
            written = out.read_bytes() if out.exists() else None
            out.unlink(missing_ok=True)
            return rc, capsys.readouterr(), written

        return scoring_run

    @pytest.mark.parametrize(
        ("mode", "unused"),
        [
            ("text", ["--citations", "--memberships"]),
            ("citation", ["--model", "--triggers", "--stopwords", "--stopphrases"]),
        ],
    )
    @pytest.mark.parametrize("command", ["classify", "evaluate", "sweep"])
    def test_files_the_mode_does_not_use_are_never_opened(
        self, scoring_run, command, mode, unused
    ):
        expected = scoring_run(command, mode)
        assert expected[0] == 0
        assert (expected[2] is None) == (command == "evaluate")
        missing = [arg for flag in unused for arg in (flag, f"missing/{flag[2:]}.txt")]
        assert scoring_run(command, mode, *missing) == expected

    @pytest.mark.parametrize(
        ("mode", "flag"),
        [
            *[("text", flag) for flag in ("--model", "--triggers")],
            *[("citation", flag) for flag in ("--citations", "--memberships")],
            *[("combined", f) for f in ("--model", "--triggers", "--citations", "--memberships")],
        ],
    )
    @pytest.mark.parametrize("command", ["classify", "evaluate", "sweep"])
    def test_a_missing_file_the_mode_uses_is_a_data_error(self, scoring_run, command, mode, flag):
        rc, captured, written = scoring_run(command, mode, flag, "missing.txt")
        assert rc == 2
        assert captured.err.startswith("error: cannot read ")
        assert "missing.txt" in captured.err
        assert captured.out == ""
        assert written is None


class TestWarnings:
    def test_classify_prints_each_warning_once_on_stderr(self, workspace):
        model = build(workspace)
        records = workspace / "test.jsonl"
        lines = records.read_text(encoding="utf-8").splitlines()
        records.write_text("\n".join([lines[0], "not json", *lines[1:]]) + "\n", "utf-8")
        citations = workspace / "citations.tsv"
        citations.write_text("c1\tr1\nr2\tr2\n" + citations.read_text("utf-8"), "utf-8")
        env = {k: v for k, v in os.environ.items() if k != cli.CONFIG_ENV_VAR}
        env["PYTHONPATH"] = str(Path(bibclass.__file__).resolve().parent.parent)
        argv = ["classify", "--records", "test.jsonl", "--model", str(model)]
        argv += ["--citations", "citations.tsv", "--memberships", "memberships.tsv"]
        proc = subprocess.run(
            [sys.executable, "-m", "bibclass.cli", *argv, "--out", "out.tsv"],
            cwd=workspace,
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == (
            "WARNING: test.jsonl:2: skipping malformed record line\n"
            "WARNING: test.jsonl: skipped 1 malformed line(s)\n"
            "WARNING: citations.tsv:2: dropping self-citation 'r2'\n"
        )
        assert "records: 3 (1 skipped)" in proc.stdout


class TestWorkers:
    def test_worker_count_never_changes_output(self, bench, bench_model, tmp_path):
        model = tmp_path / "model.txt"
        save_model(bench_model, model)
        paths = bench["paths"]
        argv = ["classify", "--records", str(paths["test"]), "--model", str(model)]
        argv += ["--citations", str(paths["citations"]), "--memberships", str(paths["memberships"])]
        outputs = []
        for workers in ("1", "64"):
            out = tmp_path / f"out{workers}.tsv"
            assert cli.run([*argv, "--workers", workers, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert cli.run([*argv, "--workers", "0", "--out", str(tmp_path / "out0.tsv")]) == 1
        assert not (tmp_path / "out0.tsv").exists()


class TestHugeValues:
    @pytest.mark.parametrize("command", ["classify", "sweep"])
    @pytest.mark.parametrize("flag", ["--workers", "--nt", "--nc"])
    def test_a_400_digit_integer_is_taken(self, workspace, capsys, flag, command):
        model = build(workspace)
        huge = "9" * 400
        grid = workspace / "grid.csv"
        argv = [command, "--records", str(workspace / "test.jsonl"), "--model", str(model)]
        argv += ["--citations", str(workspace / "citations.tsv")]
        argv += ["--memberships", str(workspace / "memberships.tsv"), flag, huge]
        if command == "sweep":
            argv += ["--db", "astro", "--grid-out", str(grid)]
        else:
            argv += ["--out", str(workspace / "out.tsv")]
        capsys.readouterr()
        assert cli.run(argv) == 0
        assert capsys.readouterr().err == ""
        if command == "sweep" and flag != "--workers":
            column = {"--nt": 2, "--nc": 4}[flag]
            rows = grid.read_text(encoding="utf-8").splitlines()[1:]
            assert {row.split(",")[column] for row in rows} == {huge}


class TestTriggers:
    def test_trigger_file_parses_and_applies(self, workspace):
        model = build(workspace)
        triggers = workspace / "triggers.tsv"
        triggers.write_text("# db\tterm\nastro\tX-ray\n", encoding="utf-8")
        loaded = load_triggers(triggers, ("astro", "phys"), TokenizerConfig())
        assert loaded == {"astro": frozenset({"xray"})}
        rc = cli.run(
            [
                "classify",
                "--records",
                str(workspace / "test.jsonl"),
                "--model",
                str(model),
                "--mode",
                "text",
                "--triggers",
                str(triggers),
                "--out",
                str(workspace / "out.tsv"),
            ]
        )
        assert rc == 0

    def test_trigger_for_unknown_database_is_data_error(self, workspace):
        triggers = workspace / "triggers.tsv"
        triggers.write_text("mystery\tterm\n", encoding="utf-8")
        with pytest.raises(DataError, match="mystery"):
            load_triggers(triggers, ("astro",), TokenizerConfig())

    def test_filtered_out_trigger_is_data_error(self, workspace):
        triggers = workspace / "triggers.tsv"
        triggers.write_text("astro\t1997\n", encoding="utf-8")
        with pytest.raises(DataError, match="1997"):
            load_triggers(triggers, ("astro",), TokenizerConfig())

    @pytest.mark.parametrize("term", ["X-ray", "x-RAY", "xray"])
    def test_trigger_whose_joined_form_is_filtered_is_data_error(self, workspace, term):
        # The parts survive the filters, but the trigger is the joined form:
        # it must not fall back to "x".
        triggers = workspace / "triggers.tsv"
        triggers.write_text(f"# a comment\nastro\t{term}\n", encoding="utf-8")
        config = TokenizerConfig(stop_words=frozenset({"xray"}))
        with pytest.raises(
            DataError, match=re.escape(f"{triggers}:2 is removed by token filtering")
        ):
            load_triggers(triggers, ("astro",), config)

    @pytest.mark.parametrize("term", ["black hole", "galaxy,star", "x/ray", "x--ray"])
    def test_multi_word_trigger_is_data_error(self, workspace, term):
        triggers = workspace / "triggers.tsv"
        triggers.write_text(f"# a comment\nastro\t{term}\n", encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{triggers}:2 must be a single word")):
            load_triggers(triggers, ("astro",), TokenizerConfig())


class TestEmitAssignments:
    def test_exact_line_format(self, tmp_path):
        path = tmp_path / "a.tsv"
        cli.emit_assignments(
            [
                Assignment("id", frozenset({"astro"}), frozenset()),
                Assignment("other", frozenset(), frozenset()),
            ],
            ("astro", "phys"),
            path,
        )
        assert path.read_text(encoding="utf-8") == "id\tastro\tastro\t\nother\t\t\t\n"

    def test_configured_order_not_alphabetical(self, tmp_path):
        path = tmp_path / "a.tsv"
        cli.emit_assignments(
            [Assignment("id", frozenset({"astro", "zeta"}), frozenset({"zeta"}))],
            ("zeta", "astro"),
            path,
        )
        assert path.read_text(encoding="utf-8") == "id\tzeta,astro\tzeta,astro\tzeta\n"

    def test_unwritable_path_is_data_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("file").write_text("sentinel\n", encoding="utf-8")
        # A missing directory, a regular file as the directory, a name longer
        # than the file system allows, and paths that name no file.
        unwritable = (tmp_path / "missing" / "a.tsv", "file/a.tsv", "n" * 256)
        for path in (*unwritable, "", ".", "/", "x/", "x/."):
            with pytest.raises(DataError, match="cannot write assignments file"):
                cli.emit_assignments([], ("astro",), path)
        assert [p.name for p in tmp_path.iterdir()] == ["file"]
        assert Path("file").read_text(encoding="utf-8") == "sentinel\n"

    def test_a_long_name_the_file_system_takes_is_written(self, tmp_path):
        path = tmp_path / ("n" * 250)
        cli.emit_assignments(
            [Assignment("id", frozenset({"astro"}), frozenset())], ("astro",), path
        )
        assert path.read_text(encoding="utf-8") == "id\tastro\tastro\t\n"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_failed_replace_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "a.tsv"
        path.write_text("sentinel\n", encoding="utf-8")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(DataError, match="disk full"):
            cli.emit_assignments(
                [Assignment("id", frozenset({"astro"}), frozenset())], ("astro",), path
            )
        assert path.read_text(encoding="utf-8") == "sentinel\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.tsv"]


_DB_POOL = ["zeta", "astro", "phys", "bio"]


class TestEmitAssignmentsProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        databases=st.lists(st.sampled_from(_DB_POOL), unique=True, min_size=1).map(tuple),
        rows=st.lists(
            st.tuples(
                st.text(st.characters(blacklist_categories=("Cs",)), max_size=4),
                st.frozensets(st.sampled_from(_DB_POOL)),
                st.frozensets(st.sampled_from(_DB_POOL)),
            ),
            max_size=12,
        ),
    )
    @example(
        databases=("zeta", "astro", "phys"),
        rows=[
            ("r1", frozenset({"astro", "zeta"}), frozenset({"zeta"})),
            ("r2", frozenset(), frozenset({"astro"})),
            ("r3", frozenset({"astro", "zeta"}), frozenset({"zeta"})),
            ("r4", frozenset(), frozenset()),
        ],
    )
    def test_bytes_equal_the_per_record_three_join_rule(self, databases, rows):
        assignments = [Assignment(*row) for row in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "a.tsv"
            cli.emit_assignments(assignments, databases, path)
            written = path.read_bytes()
        assert written == oracles.assignment_rows_reference(rows, databases).encode("utf-8")


# A model whose databases are not in alphabetical order.
_SUMMARY_MODEL = (
    "bibclass-model v1\nalpha\t1.0\n"
    "db\tphys\t2\t4\nt\tboson\t2\nt\tquark\t2\n"
    "db\tastro\t2\t4\nt\tgalaxy\t2\nt\tstar\t2\n"
    "db\tbio\t1\t2\nt\tcell\t2\n"
)


class TestClassifySummaryProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        titles=st.lists(
            st.lists(
                st.sampled_from(["quark", "boson", "galaxy", "star", "cell", "note"]), max_size=5
            ),
            min_size=1,
            max_size=10,
        ),
        memberships=st.lists(st.frozensets(st.sampled_from(["phys", "astro", "bio"])), max_size=5),
        edges=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 9)), max_size=25),
        point=st.tuples(
            st.integers(0, 3),
            st.sampled_from(["0.2", "0.34", "0.5"]),
            st.integers(1, 2),
            st.sampled_from(["0.3", "0.5", "1"]),
        ),
    )
    def test_counts_equal_per_record_counts_over_the_assignments_file(
        self, titles, memberships, edges, point
    ):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "model.txt").write_text(_SUMMARY_MODEL, encoding="utf-8")
            (tmp / "test.jsonl").write_text(
                "".join(
                    json.dumps({"id": f"r{i}", "title": " ".join(words) or "x", "year": 1,
                                "labels": []}) + "\n"
                    for i, words in enumerate(titles)
                ),
                encoding="utf-8",
            )
            (tmp / "memberships.tsv").write_text(
                "".join(f"c{j}\t{','.join(sorted(dbs))}\n" for j, dbs in enumerate(memberships)),
                encoding="utf-8",
            )
            (tmp / "citations.tsv").write_text(
                "".join(f"c{j}\tr{i}\n" for j, i in edges), encoding="utf-8"
            )
            nt, st_, nc, rc = point
            argv = ["classify", "--mode", "combined", "--out", str(tmp / "a.tsv")]
            for flag in ("records", "model", "citations", "memberships"):
                name = {"records": "test.jsonl", "model": "model.txt"}.get(flag, f"{flag}.tsv")
                argv += [f"--{flag}", str(tmp / name)]
            argv += ["--nt", str(nt), "--st", st_, "--nc", str(nc), "--rc", rc]
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.run(argv) == 0
            rows = [line.split("\t") for line in (tmp / "a.tsv").read_text("utf-8").splitlines()]
        printed = out.getvalue().splitlines()
        assigned = sum(1 for row in rows if row[1])
        expected = [f"records: {len(rows)} (0 skipped)"]
        expected.append(f"assigned: {assigned} (unassigned: {len(rows) - assigned})")
        for db in ("phys", "astro", "bio"):
            count = sum(1 for row in rows if db in row[1].split(","))
            expected.append(f"assigned to {db}: {count}")
        assert printed[1:-1] == expected


class TestHelp:
    def test_help_exits_zero_and_lists_flags(self, capsys):
        assert cli.run(["classify", "--help"]) == 0
        out = capsys.readouterr().out
        for flag in ("--records", "--model", "--mode", "--st", "--workers"):
            assert flag in out
        assert "0.25" in out

    def test_top_level_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0
        assert "build-model" in capsys.readouterr().out

    # Each command's flags, in the order --help lists them.
    @pytest.mark.parametrize(
        "command,flags",
        [
            ("build-model", "--records --model --stopwords --stopphrases --alpha"),
            (
                "classify",
                "--records --model --citations --memberships --triggers --stopwords "
                "--stopphrases --mode --nt --st --nc --rc --boost --out --workers",
            ),
            (
                "evaluate",
                "--records --model --citations --memberships --triggers --stopwords "
                "--stopphrases --mode --db --nt --st --nc --rc --boost --workers",
            ),
            (
                "sweep",
                "--records --model --citations --memberships --triggers --stopwords "
                "--stopphrases --mode --db --nt --st --nc --rc --boost --grid-out --workers",
            ),
        ],
    )
    def test_each_command_lists_exactly_its_flags(self, capsys, command, flags):
        assert cli.run([command, "--help"]) == 0
        options = capsys.readouterr().out.split("\noptions:\n")[1]
        listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", options, flags=re.M)
        assert listed == ["--help", *flags.split()]


# How each numeric flag reads a value and the range an accepted value lies in.
_NUMERIC_FLAGS = {
    "nt": (int, lambda x: x >= 0),
    "st": (float, lambda x: 0 <= x <= 1),
    "nc": (int, lambda x: x >= 1),
    "rc": (float, lambda x: 0 < x <= 1),
    "alpha": (float, lambda x: x > 0),
    "boost": (float, lambda x: 0 <= x <= 1),
    "workers": (int, lambda x: x >= 1),
}
_LISTABLE = ("nt", "st", "nc", "rc")


def _in_range(flag, text):
    kind, ok = _NUMERIC_FLAGS[flag]
    try:
        value = kind(text)
    except ValueError:
        return False
    return math.isfinite(value) and ok(value)


_VALUE_TEXT = st.one_of(
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.sampled_from(
        ["nan", "-nan", "inf", "-inf", "1e309", "-0", "-0.0", "1_0", "0x1", "1e-400"]
        + [" 1 ", "\t0.5\u2003", "\u0661", "\uff11", "\u0665\u0660", "\u00b2", "1,2", "0.5,"]
    ),
)


class TestValueProperty:
    @settings(max_examples=300, deadline=None)
    @example(flag="workers", command="classify", value="--", from_config=False)
    @example(flag="nc", command="sweep", value="--", from_config=False)
    @example(flag="st", command="evaluate", value="--", from_config=False)
    @given(
        flag=st.sampled_from(sorted(_NUMERIC_FLAGS)),
        command=st.sampled_from(["classify", "evaluate", "sweep"]),
        value=_VALUE_TEXT,
        from_config=st.booleans(),
    )
    def test_value_is_checked_before_any_input(
        self, tmp_path_factory, flag, command, value, from_config
    ):
        if flag == "alpha":
            command = "build-model"
        argv = [command, "--model", "absent.txt", *(["--db", "x"] if command == "sweep" else [])]
        with pytest.MonkeyPatch.context() as mp:
            if from_config:
                assume("\n" not in value and "\r" not in value)
                config = tmp_path_factory.getbasetemp() / "value-property-config.txt"
                config.write_text(f"{flag} = {value}\n", encoding="utf-8")
                mp.setenv(cli.CONFIG_ENV_VAR, str(config))
                value = value.strip()
            else:
                mp.delenv(cli.CONFIG_ENV_VAR, raising=False)
                argv.append(f"--{flag}={value}")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.run(argv)
        items = value.split(",")
        single = len(items) == 1 or (command == "sweep" and flag in _LISTABLE)
        accepted = single and all(_in_range(flag, item) for item in items)
        assert rc == 1
        if accepted:
            assert err.getvalue() == f"{command} requires --records\n"
        else:
            assert f"--{flag}" in err.getvalue()


# The config field that owns each decision flag's value: the flag's rule is
# an early copy of that field's rule, so a bad value is named by its flag
# before any input file is read.
_OWNERS = {
    "nt": (TextClassifierConfig, "min_words"),
    "st": (TextClassifierConfig, "score_threshold"),
    "nc": (CitationClassifierConfig, "min_citations"),
    "rc": (CitationClassifierConfig, "ratio_threshold"),
    "boost": (TextClassifierConfig, "trigger_boost"),
}
_NUMBER_TEXT = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats().map(repr),
    st.sampled_from(
        ["-0", "-0.0", "1e-400", "1e309", "-1e309", "nan", "-inf", " 1 ", "1_0", "\u0661"]
        + ["5e-324", "-5e-324", "1.0000000000000002", "0.9999999999999999", "1e-9", "+1"]
    ),
)


class TestFlagRangesMatchTheConfigs:
    @settings(max_examples=500, deadline=None)
    @given(name=st.sampled_from(sorted(_OWNERS)), text=_NUMBER_TEXT)
    def test_flag_accepts_exactly_what_its_config_accepts(self, name, text):
        kind, _ = _NUMERIC_FLAGS[name]
        try:
            value = kind(text)
        except ValueError:
            value = None
        assume(value is not None)
        owner, field = _OWNERS[name]
        try:
            owner(**{field: value})
        except ValueError:
            config_accepts = False
        else:
            config_accepts = True
        try:
            parsed = cli._FLAGS[name].parse(text, cli._option(name))
        except UsageError as exc:
            assert not config_accepts, f"{cli._option(name)} refuses {text!r}: {exc}"
            assert cli._option(name) in str(exc)
        else:
            assert config_accepts, f"{cli._option(name)} accepts {text!r}"
            assert (type(parsed), parsed) == (kind, value)


class TestFlagsAskTheirConfigs:
    # A value each owning config takes, given as its flag's text.
    @pytest.mark.parametrize(
        "name,text", [("nt", "3"), ("st", "0.5"), ("nc", "3"), ("rc", "0.75"), ("boost", "0.5")]
    )
    def test_flag_refuses_what_its_config_is_made_to_refuse(self, monkeypatch, name, text):
        owner, field = _OWNERS[name]
        kind, _ = _NUMERIC_FLAGS[name]
        flag, option = cli._FLAGS[name], cli._option(name)
        assert flag.parse(text, option) == kind(text)
        build_config = owner.__init__

        def refusing(self, **kwargs):
            if kwargs.get(field) == kind(text):
                raise ValueError(f"{field} {text} is refused here")
            build_config(self, **kwargs)

        monkeypatch.setattr(owner, "__init__", refusing)
        with pytest.raises(UsageError) as refused:
            flag.parse(text, option)
        assert str(refused.value) == f"{option}: {field} {text} is refused here"
