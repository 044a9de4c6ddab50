"""URL tokenisation, exactly as specified in Section 3.1 of the paper.

    "Each URL is split into a sequence of strings of letters at any
    punctuation marks, numbers or other non-letter characters.  Resulting
    strings of length less than 2 and special words, namely, 'www',
    'index', 'html', 'htm', 'http' and 'https' are removed.  We refer to
    a single valid string as a token."

Example from the paper: ``http://www.internetwordstats.com/africa2.htm``
tokenises to ``['internetwordstats', 'com', 'africa']``.
"""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterator, Sequence
from functools import lru_cache

#: Words removed from every token stream (Section 3.1).
SPECIAL_WORDS: frozenset[str] = frozenset(
    {"www", "index", "html", "htm", "http", "https"}
)

#: :data:`SPECIAL_WORDS` as byte strings, for the byte-level fast path.
SPECIAL_WORDS_BYTES: frozenset[bytes] = frozenset(
    word.encode("ascii") for word in SPECIAL_WORDS
)

#: Minimum token length; strings shorter than this are dropped.
MIN_TOKEN_LENGTH = 2

_LETTER_RUN = re.compile(r"[a-z]+")
_LETTER_RUN_BYTES = re.compile(rb"[a-z]+")


def tokenize(url: str, *, keep_special: bool = False) -> list[str]:
    """Split ``url`` into the paper's tokens.

    Splitting happens at every non-letter character; runs of letters
    shorter than :data:`MIN_TOKEN_LENGTH` and the :data:`SPECIAL_WORDS`
    are dropped (unless ``keep_special`` is set, which retains the
    special words — useful for diagnostics).

    The paper's URLs are effectively ASCII; uppercase letters are folded
    to lowercase before splitting so ``NewYork`` yields ``newyork``.
    """
    tokens = _LETTER_RUN.findall(url.lower())
    min_length = MIN_TOKEN_LENGTH
    if keep_special:
        return [token for token in tokens if len(token) >= min_length]
    special = SPECIAL_WORDS
    return [
        token
        for token in tokens
        if len(token) >= min_length and token not in special
    ]


def encode_lowered(url: str) -> bytes:
    """Lowercase ``url`` and encode it to one UTF-8 byte buffer.

    The encoded buffer is what the byte-level fast path slides over.
    Lowercasing happens on the *string* first so that the handful of
    Unicode code points whose lowercase form is ASCII (e.g. the Kelvin
    sign ``K`` → ``k``) fold exactly as the string path folds them;
    ``surrogatepass`` keeps lone surrogates encodable so adversarial
    inputs cannot crash the fast path.
    """
    return url.lower().encode("utf-8", "surrogatepass")


def tokenize_bytes(url: str) -> list[bytes]:
    """Byte-level :func:`tokenize` (default options), token-for-token.

    ASCII letters occupy ``0x61..0x7a``, and every byte of a multi-byte
    UTF-8 sequence is ``>= 0x80``, so the ``[a-z]+`` runs of the encoded
    buffer are exactly the ``[a-z]+`` runs of the lowered string — the
    fused extraction path (:meth:`repro.features.indexer.FeatureIndexer
    .rows_fused`) relies on this, through :func:`tokenize_batch_bytes`,
    and never materialises ``str`` tokens for in-vocabulary features.
    """
    tokens = _LETTER_RUN_BYTES.findall(encode_lowered(url))
    min_length = MIN_TOKEN_LENGTH
    special = SPECIAL_WORDS_BYTES
    return [
        token
        for token in tokens
        if len(token) >= min_length and token not in special
    ]


#: The item between two URLs' tokens in a :func:`tokenize_batch_bytes`
#: stream.  The byte ``0xff`` never occurs in UTF-8 (``surrogatepass``
#: included), so no URL can produce it.
BATCH_SEPARATOR = b"\xff"

# Byte translation for the batch tokeniser: a-z and the separator map to
# themselves, every other byte to a space.
_LETTERS_ONLY = bytes(
    byte if byte in range(0x61, 0x7B) or byte == 0xFF else 0x20
    for byte in range(256)
)


def tokenize_batch_bytes(urls: Sequence[str]) -> list[bytes]:
    """Letter runs of a whole batch, from one buffer in two C passes.

    The URLs are lowered and encoded into one buffer joined by
    :data:`BATCH_SEPARATOR`; one ``translate`` turns every non-letter
    byte into a space and one ``split`` cuts the runs out.  The stream
    holds every URL's ``[a-z]+`` runs in order, with one separator
    between consecutive URLs, so the row of an item is the number of
    separators before it.  Unlike :func:`tokenize_bytes` it *keeps*
    runs shorter than :data:`MIN_TOKEN_LENGTH` and the
    :data:`SPECIAL_WORDS_BYTES`; the fused extractor drops them while
    interning (:data:`DROPPED_RUNS`).

    Each URL goes through :func:`encode_lowered`, so every code point
    lowers exactly as the string path lowers it (the Kelvin sign).
    """
    buffer = b" \xff ".join(map(encode_lowered, urls))
    return buffer.translate(_LETTERS_ONLY).split()


#: Letter runs :func:`tokenize` never returns as tokens: the special
#: words and every run shorter than :data:`MIN_TOKEN_LENGTH`.
DROPPED_RUNS: frozenset[bytes] = SPECIAL_WORDS_BYTES | frozenset(
    bytes(letters)
    for length in range(1, MIN_TOKEN_LENGTH)
    for letters in itertools.product(range(0x61, 0x7B), repeat=length)
)


#: Entries kept by each memoized tokenizer.  Crawler frontiers and the
#: benchmark harness re-tokenise the same URLs many times.
TOKEN_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=TOKEN_CACHE_SIZE)
def tokenize_cached(url: str) -> tuple[str, ...]:
    """Memoized :func:`tokenize` (default options) returning a tuple.

    The tuple is shared between callers — treat it as immutable.  Use
    :func:`clear_token_cache` to drop the memo (tests, memory pressure).
    """
    return tuple(tokenize(url))


@lru_cache(maxsize=TOKEN_CACHE_SIZE)
def tokenize_bytes_cached(url: str) -> tuple[bytes, ...]:
    """Memoized :func:`tokenize_bytes` returning a shared tuple.

    A *separate* memo from :func:`tokenize_cached`.  The fused
    extraction path does not use it: it tokenises whole batches with
    :func:`tokenize_batch_bytes`, and the interned-row memo above it
    catches every repeated URL.
    """
    return tuple(tokenize_bytes(url))


def clear_token_cache() -> None:
    """Drop all memoized token streams (both string and byte memos)."""
    tokenize_cached.cache_clear()
    tokenize_bytes_cached.cache_clear()


def iter_tokens(url: str) -> Iterator[str]:
    """Iterator variant of :func:`tokenize` with default options."""
    lowered = url.lower()
    for match in _LETTER_RUN.finditer(lowered):
        token = match.group()
        if len(token) >= MIN_TOKEN_LENGTH and token not in SPECIAL_WORDS:
            yield token


def tokenize_text(text: str) -> list[str]:
    """Tokenise free text (page content, Section 7) with the same rules.

    Content training reuses URL tokenisation so that URL tokens and
    content terms live in one feature space, as the paper does when it
    "lengthens" the URL with the page content.
    """
    return tokenize(text)
