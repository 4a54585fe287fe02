import pickle
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bibclass.textpipe
import oracles
from bibclass.errors import DataError
from bibclass.textpipe import (
    TokenizerConfig,
    default_tokenizer_config,
    filter_tokens,
    is_token,
    load_term_list,
    tokenize,
)


# Hyphens and dashes; combining marks and characters NFKD folds, expands or
# drops; underscore, ASCII control and whitespace; characters outside the BMP.
_TRICKY = ["-", "--", "\u2013", "\u0301", "\u0308", "\u00e9", "\ufb01", "\u00df", "\u0130"]
_TRICKY += ["\u212a", "_", "\x00", "\x1f", "\x7f", "\t", "\n", "\r", " ", "\u00a0"]
_TRICKY += ["\U0001d400", "\U0001f600"]
# Every ASCII code point between word characters, and on either side of a
# hyphen inside, before and after a compound: the tokenizer maps text byte by
# byte, so each byte is pinned.
_ASCII = [chr(c) for c in range(128)]
_BETWEEN_WORDS = " ".join(f"a{c}b Q{c}9" for c in _ASCII)
_BY_HYPHENS = " ".join(f"x-{c}y z{c}-w {c}-u v-{c}" for c in _ASCII)
_IN_COMPOUNDS = " ".join(f"k-m{c}n-p {c}r-s-t{c}" for c in _ASCII)
_TEXT_PIECES = st.one_of(
    st.sampled_from(_TRICKY),
    st.text(alphabet="abzXYZ0189", min_size=1, max_size=4),
    st.characters(),
)


class TestTokenize:
    def test_lowercases_and_splits_on_punctuation(self):
        assert tokenize("The Quick, brown FOX!") == ["the", "quick", "brown", "fox"]

    def test_hyphen_compound_emits_joined_form_then_parts(self):
        assert tokenize("X-ray") == ["xray", "x", "ray"]

    def test_multi_hyphen_compound(self):
        assert tokenize("signal-to-noise") == ["signaltonoise", "signal", "to", "noise"]

    def test_diacritics_fold_to_ascii(self):
        assert tokenize("Érosion naïve") == ["erosion", "naive"]

    def test_non_ascii_symbols_vanish(self):
        # Unmappable symbols are dropped in place, joining their neighbors.
        assert tokenize("flux ≥ 10µJy") == ["flux", "10jy"]

    def test_digits_survive_tokenization(self):
        assert tokenize("ngc 4258") == ["ngc", "4258"]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \t\n ") == []

    @given(st.lists(_TEXT_PIECES, max_size=40).map("".join))
    @example("-x-ray-")
    @example("a--b x-ray\u2013burst -")
    @example("E\u0301-\u212a \ufb01-\u00df-\u0130")
    @example(_BETWEEN_WORDS)
    @example(_BY_HYPHENS)
    @example(_IN_COMPOUNDS)
    @example("".join(_ASCII))
    @settings(max_examples=500, deadline=None)
    def test_matches_reference_tokenizer(self, text):
        assert tokenize(text) == oracles.tokenize_reference(text)


class TestFilterTokens:
    def test_drops_stop_words_and_digits(self):
        config = TokenizerConfig(stop_words=frozenset({"the"}))
        assert filter_tokens(["the", "galaxy", "1997", "x"], config) == ["galaxy", "x"]

    def test_keeps_alphanumeric_mixes(self):
        assert filter_tokens(["ngc4258", "4258"], TokenizerConfig()) == ["ngc4258"]

    def test_phrase_removed_wherever_it_occurs(self):
        config = TokenizerConfig(stop_phrases=frozenset({"book review"}))
        tokens = ["book", "review", "of", "stars", "book", "review"]
        assert filter_tokens(tokens, config) == ["of", "stars"]

    def test_word_filter_can_expose_new_phrase(self):
        # Dropping the stop word makes the phrase contiguous; the second
        # phrase pass must still remove it.
        config = TokenizerConfig(
            stop_words=frozenset({"the"}), stop_phrases=frozenset({"book review"})
        )
        assert filter_tokens(["book", "the", "review"], config) == []

    def test_phrase_removal_can_cascade(self):
        config = TokenizerConfig(stop_phrases=frozenset({"x y"}))
        # Removing the inner "x y" joins the outer pair, which must go too.
        assert filter_tokens(["x", "x", "y", "y"], config) == []

    def test_single_word_phrase_acts_like_stop_word(self):
        config = TokenizerConfig(stop_phrases=frozenset({"erratum"}))
        assert filter_tokens(["erratum", "galaxy"], config) == ["galaxy"]

    def test_stop_lists_normalized_to_lowercase(self):
        config = TokenizerConfig(stop_words=frozenset({"THE"}))
        assert filter_tokens(["the"], config) == []

    def test_stop_entries_are_tokenized_like_text(self):
        config = TokenizerConfig(
            stop_words=frozenset({"caf\u00e9", "x-ray", "--", "Na\u00efve"}),
            stop_phrases=frozenset({"x-ray survey", "et al.", "  Book   REVIEW "}),
        )
        assert config.stop_words == {"cafe", "naive"}
        assert config.stop_phrases == {"xray x ray survey", "et al", "book review", "xray x ray"}
        assert config.phrase_index["xray"] == (
            ("xray", "x", "ray", "survey"),
            ("xray", "x", "ray"),
        )

    @pytest.mark.parametrize(
        "text,kept",
        [
            ("An X-ray survey of stars", ["an", "of", "stars"]),
            ("see et al. here", ["see", "here"]),
            ("Caf\u00e9 au lait", ["au", "lait"]),
            ("X-ray flux of an x ray xray", ["flux", "of", "an", "x", "ray", "xray"]),
            ("a naive Na\u00efve book-review", ["a", "bookreview"]),
        ],
    )
    def test_stop_entries_match_the_tokens_of_their_text(self, text, kept):
        config = TokenizerConfig(
            stop_words=frozenset({"caf\u00e9", "x-ray", "Na\u00efve"}),
            stop_phrases=frozenset({"x-ray survey", "et al.", "Book Review"}),
        )
        assert filter_tokens(tokenize(text), config) == kept

    def test_bundled_entries_are_already_in_token_form(self):
        # So the bundled lists filter exactly as their lines read.
        data = Path(bibclass.textpipe.__file__).with_name("data")
        words = load_term_list(data / "stopwords.txt")
        phrases = load_term_list(data / "stopphrases.txt")
        config = default_tokenizer_config()
        assert config.stop_words == set(words)
        assert config.stop_phrases == set(phrases)

    def test_overlapping_phrases_match_longest_first(self):
        config = TokenizerConfig(
            stop_phrases=frozenset({"in brief", "news in brief", "x y", "x y z", "x w"})
        )
        assert config.phrase_index == {
            "in": (("in", "brief"),),
            "news": (("news", "in", "brief"),),
            "x": (("x", "y", "z"), ("x", "w"), ("x", "y")),
        }
        assert filter_tokens(["news", "in", "brief", "in", "brief", "q"], config) == ["q"]
        assert filter_tokens(["x", "y", "z", "q"], config) == ["q"]

    def test_deep_cascade_is_removed_completely(self):
        # Each removal exposes the next "x y"; the two filter passes alone
        # would stop after two levels.
        config = TokenizerConfig(stop_phrases=frozenset({"x y"}))
        assert filter_tokens(["x"] * 4 + ["y"] * 4 + ["q"], config) == ["q"]

    def test_phrase_index_stays_out_of_equality_and_repr(self):
        a = TokenizerConfig(stop_phrases=frozenset({"Book Review"}))
        b = TokenizerConfig(stop_phrases=frozenset({"book review"}))
        assert a == b and hash(a) == hash(b)
        assert "phrase_index" not in repr(a)

    def test_pickle_round_trip_filters_identically(self):
        # A config sent to another process arrives pickled.
        config = default_tokenizer_config()
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config
        assert clone.phrase_index == config.phrase_index
        tokens = tokenize("News in brief: a book the review of 1997 X-ray letters to the editor")
        assert filter_tokens(tokens, clone) == filter_tokens(tokens, config)


@st.composite
def token_lists(draw):
    alphabet = st.sampled_from(["a", "b", "c", "ab", "the", "42", "galaxy", "x"])
    return draw(st.lists(alphabet, max_size=30))


@st.composite
def configs(draw):
    words = draw(st.sets(st.sampled_from(["the", "a", "of", "x"]), max_size=3))
    phrases = draw(st.sets(st.sampled_from(["a b", "b c", "galaxy c", "ab"]), max_size=3))
    return TokenizerConfig(stop_words=frozenset(words), stop_phrases=frozenset(phrases))


_BUNDLED = default_tokenizer_config()
# Bundled stop phrases plus crafted ones where one phrase is a prefix of
# another with the same first token, so only longest-first matching works.
_PHRASES = sorted(_BUNDLED.stop_phrases | {"alpha beta", "alpha beta gamma", "beta alpha"})
_PHRASE_RUNS = [tuple(p.split()) for p in _PHRASES]
_LONG_RUNS = [run for run in _PHRASE_RUNS if len(run) > 1]
_WORDS = sorted(_BUNDLED.stop_words) + ["galaxy", "quasar", "alpha", "beta", "gamma", "42", "1997"]


def _nest(inner, outer, cut):
    k = 1 + cut % (len(outer) - 1)
    return outer[:k] + inner + outer[k:]


@st.composite
def stop_list_streams(draw):
    """Token streams built from stop phrases, words and phrases nested in phrases.

    A phrase split around another phrase ("book book review review")
    becomes contiguous only after the inner one is removed, so nesting
    depth sets how many rescans a cascade needs.
    """
    pieces = st.recursive(
        st.one_of(st.sampled_from(_PHRASE_RUNS), st.sampled_from(_WORDS).map(lambda w: (w,))),
        lambda inner: st.builds(_nest, inner, st.sampled_from(_LONG_RUNS), st.integers(0, 8)),
        max_leaves=5,
    )
    return [token for piece in draw(st.lists(pieces, max_size=8)) for token in piece]


@st.composite
def stop_list_configs(draw):
    if draw(st.booleans()):
        return _BUNDLED
    return TokenizerConfig(
        stop_words=frozenset(draw(st.sets(st.sampled_from(sorted(_BUNDLED.stop_words)), max_size=8))),
        stop_phrases=frozenset(draw(st.sets(st.sampled_from(_PHRASES), max_size=12))),
    )


class TestProperties:
    @given(tokens=stop_list_streams(), config=stop_list_configs())
    # "y z" starts inside the removed "x y", so it must not match: ["z"] is left.
    @example(
        tokens=["x", "y", "z"], config=TokenizerConfig(stop_phrases=frozenset({"x y", "y z"}))
    )
    # The longest phrase wins: nothing is left, not ["gamma"].
    @example(
        tokens=["alpha", "beta", "gamma"],
        config=TokenizerConfig(stop_phrases=frozenset({"alpha beta", "alpha beta gamma"})),
    )
    @settings(max_examples=400, deadline=None)
    def test_filtering_matches_linear_scan_reference(self, tokens, config):
        want = oracles.filter_tokens_reference(tokens, config.stop_words, config.stop_phrases)
        assert filter_tokens(tokens, config) == want

    @given(text=st.text(max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_tokens_are_lowercase_ascii_words(self, text):
        for token in tokenize(text):
            assert token
            assert token == token.lower()
            assert all(c.isascii() and (c.isalnum()) for c in token)

    @given(text=st.text(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_tokenize_is_deterministic(self, text):
        assert tokenize(text) == tokenize(text)

    @given(tokens=token_lists(), config=configs())
    @settings(max_examples=300, deadline=None)
    def test_filtering_is_idempotent(self, tokens, config):
        once = filter_tokens(tokens, config)
        assert filter_tokens(once, config) == once

    @given(tokens=token_lists(), config=configs())
    @settings(max_examples=300, deadline=None)
    def test_filtering_only_removes(self, tokens, config):
        kept = filter_tokens(tokens, config)
        remaining = list(tokens)
        for token in kept:
            assert token in remaining
            remaining.remove(token)


class TestTermLists:
    def test_loads_terms_skipping_comments_and_blanks(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\n The \n\nof\n", encoding="utf-8")
        assert load_term_list(path) == ["The", "of"]

    def test_missing_file_is_a_data_error(self, tmp_path):
        with pytest.raises(DataError):
            load_term_list(tmp_path / "absent.txt")

    def test_default_config_ships_stop_lists(self):
        config = default_tokenizer_config()
        assert "the" in config.stop_words
        assert "obituary" in config.stop_phrases
        assert any(" " in p for p in config.stop_phrases)


class TestIsToken:
    @settings(max_examples=500)
    @given(
        term=st.lists(st.sampled_from(["a", "z", "Q", "0", "9", " ", *_TRICKY]), max_size=6).map(
            "".join
        )
        | st.text(max_size=6)
    )
    @example(term="")
    @example(term="1997")
    @example(term="a1")
    @example(term="\u00b2")
    @example(term="\ufb01")
    def test_is_a_token_tokenize_gives_back_and_the_filter_keeps(self, term):
        assert is_token(term) == (tokenize(term) == [term] and not term.isdigit())

    @pytest.mark.parametrize("term", ["galaxy", "a1", "x2y", "7b"])
    def test_words_are_tokens(self, term):
        assert is_token(term)

    @pytest.mark.parametrize(
        "term", ["", "Galaxy", "galaxy star", "x-ray", "caf\u00e9", "1997", " galaxy", "a_b"]
    )
    def test_other_strings_are_not(self, term):
        assert not is_token(term)
