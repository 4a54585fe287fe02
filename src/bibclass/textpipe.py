"""Turn raw title/abstract text into the token stream the classifiers consume.

The tokenizer is deliberately simple and deterministic: lowercase, fold
diacritics to ASCII, split on whitespace and punctuation, and expand
hyphenated compounds into the joined form plus their parts.  What matters
for classification is that model building and scoring see the exact same
tokens, so the behaviour is pinned down by the test suite.

The per-character work runs in C: after the NFKD fold one byte table
lowercases the text and blanks every byte that cannot be part of a word,
and ``split`` cuts the words out.  The Python loop over the words does
more than append only for a word holding a hyphen, to expand the compound.

Stop lists are read once per :class:`TokenizerConfig`: its constructor
tokenizes every stop word and phrase as text is tokenized, and indexes the
phrases by their first token.  A phrase pass finds the positions holding
some phrase's first token with one C loop over the stream and tries only
their phrases there, and a record with no phrase's first token skips
phrase matching altogether.
"""

from __future__ import annotations

from itertools import compress, count
from pathlib import Path
from unicodedata import normalize

from bibclass.errors import read_entries
from bibclass.values import Value

# A translate table that lowercases ASCII letters and turns every other byte
# outside [a-z0-9-] into a space, so splitting on whitespace leaves the words.
_WORD_CHARS = b"abcdefghijklmnopqrstuvwxyz0123456789-"
_WORD_BYTES = bytes(
    b + 32 if 65 <= b <= 90 else b if b in _WORD_CHARS else 32 for b in range(256)
)

# The bundled stop lists, read where no other list is given.
BUNDLED_STOPWORDS = Path(__file__).with_name("data") / "stopwords.txt"
BUNDLED_STOPPHRASES = Path(__file__).with_name("data") / "stopphrases.txt"


class TokenizerConfig(Value):
    """Filtering rules applied to the raw token stream.

    Every stop word and phrase is read with :func:`tokenize` on
    construction, so an entry matches the tokens its own text would give:
    ``Café`` removes ``cafe``, and ``et al.`` the tokens ``et al``.  A
    phrase is stored as its tokens joined by single spaces.  A stop word is
    its one token; one that gives several tokens, such as ``x-ray``, is
    stored and matched as that phrase, and one that gives none is dropped.
    The derived ``phrase_index`` maps a phrase's first token to the phrases
    starting with it, longest first and then lexicographic, so greedy
    matching prefers the longest phrase; it takes no part in equality or
    hashing.
    """

    __slots__ = ("stop_words", "stop_phrases", "phrase_index")
    _fields = ("stop_words", "stop_phrases")

    def __init__(
        self, stop_words: frozenset[str] = frozenset(), stop_phrases: frozenset[str] = frozenset()
    ):
        words = [tokenize(w) for w in stop_words]
        runs = [tokenize(p) for p in stop_phrases] + [w for w in words if len(w) > 1]
        stop_phrases = frozenset(" ".join(r) for r in runs if r)
        phrases = sorted((tuple(p.split()) for p in stop_phrases), key=lambda p: (-len(p), p))
        index: dict[str, list[tuple[str, ...]]] = {}
        for phrase in phrases:
            index.setdefault(phrase[0], []).append(phrase)
        self.stop_words = frozenset(w[0] for w in words if len(w) == 1)
        self.stop_phrases = stop_phrases
        self.phrase_index = {first: tuple(group) for first, group in index.items()}


def tokenize(text: str) -> list[str]:
    """Split text into lowercase ASCII tokens, preserving order.

    A word is a run of ASCII letters and digits; words joined by single
    hyphens form a compound, which contributes the joined form followed by
    the parts, so "X-ray" yields ["xray", "x", "ray"].  Any other character,
    a run of two or more hyphens included, separates words.
    """
    folded = normalize("NFKD", text).encode("ascii", "ignore").translate(_WORD_BYTES)
    tokens: list[str] = []
    # With double hyphens gone, a chunk's hyphens are single: a compound's
    # joints, or strays at either end.
    for chunk in folded.replace(b"--", b" ").decode("ascii").split():
        if "-" not in chunk:
            tokens.append(chunk)
            continue
        word = chunk.strip("-")
        if "-" in word:
            tokens.append(word.replace("-", ""))
            tokens.extend(word.split("-"))
        elif word:
            tokens.append(word)
    return tokens


def is_token(term: str) -> bool:
    """True for a token a scoring run could keep, stop lists aside.

    That is a string that :func:`tokenize` gives back as exactly itself
    and that is not digit-only: one or more of ``[a-z0-9]`` holding at
    least one letter.
    """
    return term.isascii() and term.isalnum() and term.islower()


def filter_tokens(tokens: list[str], config: TokenizerConfig) -> list[str]:
    """Drop digit-only tokens, stop words and stop phrases.

    Phrase removal runs before and after the per-token filters: removing a
    token can make a phrase contiguous, and rescanning keeps the result
    stable under repeated application.  Dropping tokens never brings in a
    phrase's first token, so a stream holding none skips both phrase passes.
    """
    index = config.phrase_index
    stop_words = config.stop_words
    phrased = not index.keys().isdisjoint(tokens)
    kept = [
        t
        for t in (_drop_phrases(tokens, index) if phrased else tokens)
        if not t.isdigit() and t not in stop_words
    ]
    return _drop_phrases(kept, index) if phrased else kept


def _drop_phrases(
    tokens: list[str], index: dict[str, tuple[tuple[str, ...], ...]]
) -> list[str]:
    """Remove stop phrases greedily, longest first, until a pass removes nothing.

    A removal can join a new phrase, hence the repeated passes.  A pass
    visits only the positions holding some phrase's first token, skips
    those inside a phrase it just removed, and copies the tokens between
    removed phrases as slices.
    """
    starts = index.__contains__
    while True:
        out: list[str] = []
        done = 0  # tokens[:done] are either copied to out or removed
        for i in compress(count(), map(starts, tokens)):
            if i < done:
                continue
            for phrase in index[tokens[i]]:
                end = i + len(phrase)
                if tuple(tokens[i:end]) == phrase:
                    out += tokens[done:i]
                    done = end
                    break
        if not done:
            return tokens
        out += tokens[done:]
        tokens = out


def load_term_list(path: str | Path) -> list[str]:
    """Read one term (or phrase) per line; blank lines and # comments ignored.

    Terms are returned as written, stripped of surrounding whitespace;
    :class:`TokenizerConfig` normalizes them.
    """
    return [line.strip() for _, line in read_entries(path, "term list")]


def default_tokenizer_config() -> TokenizerConfig:
    """Tokenizer config backed by the packaged stop word and phrase lists."""
    return TokenizerConfig(
        stop_words=frozenset(load_term_list(BUNDLED_STOPWORDS)),
        stop_phrases=frozenset(load_term_list(BUNDLED_STOPPHRASES)),
    )
