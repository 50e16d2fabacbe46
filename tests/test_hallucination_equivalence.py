"""``compute_hallucination`` in ``tablex.checker``, which answers cell tokens
from the set of source tokens, against the per-token scan of the raw source
it replaced (``tests/reference_hallucination.py``).

Exact ``==`` over seeded source/table pairs. Cell tokens are copies of
source tokens, slices of them, joins across a source separator (misses
unless they occur elsewhere), invented tokens, punctuation-only tokens and
non-ASCII alphanumerics; cells may be empty or whitespace only, and the
separators include the rarer characters ``str.split`` treats as
whitespace. Each ``SourceText`` is scored twice, so the second call reads
its cached ``tokens``, and ``compute_coverage`` is checked against the
pre-index checker too.
"""

from __future__ import annotations

import random

import reference_checker
from tablex.checker import compute_coverage, compute_hallucination
from tablex.model import SourceText, Table

from reference_hallucination import compute_hallucination as reference_hallucination

PAIRS = 5000

WORDS = [
    "alpha", "beta", "Revenue", "750,", "Cost:", "320", "(GO:0006412)", "2021-03-01",
    "café", "x²", "٣٤", "naïve", "Ωmega", "a-1", "www.x.org", "1,234", "42%", "ok)",
]
PUNCT = ["--", "...", "(", ")", ",", ":", "—", "%", "«»"]
INVENTED = ["xyzzy", "quux", "Zé", "٩٩٩", "³³", "frobnicate", "Q7"]
SEPARATORS = [" ", " ", " ", "  ", "\t", "\n", "\r\n", "\x1c", "\xa0", " ", "　"]


def _source(rng: random.Random) -> tuple[str, list[str]]:
    words = [rng.choice(WORDS + PUNCT) for _ in range(rng.randint(0, 12))]
    if rng.random() < 0.3:
        words = [w + rng.choice(WORDS) for w in words]  # longer tokens to slice
    raw = "".join(rng.choice(SEPARATORS) + w for w in words)
    return raw + rng.choice(["", " ", "\n"]), words


def _token(rng: random.Random, words: list[str]) -> str:
    kind = rng.randrange(7)
    if not words or kind == 0:
        return rng.choice(INVENTED)
    word = rng.choice(words)
    if kind == 1:
        return word
    if kind == 2:  # a slice of one source token
        start = rng.randrange(len(word))
        return word[start:rng.randint(start + 1, len(word))]
    if kind == 3:  # would span a separator
        i = rng.randrange(len(words))
        left, right = words[i], words[(i + 1) % len(words)]
        return left[rng.randrange(len(left)):] + right[: rng.randint(1, len(right))]
    if kind == 4:
        return rng.choice(PUNCT)
    if kind == 5:
        return rng.choice(["é", "²", "٣", "ⅷ", "ß"])
    return word + rng.choice(INVENTED)


def _cell(rng: random.Random, words: list[str]):
    if rng.random() < 0.1:
        text = rng.choice(["", " ", "\t \n", "\xa0"])
    else:
        tokens = [_token(rng, words) for _ in range(rng.randint(1, 3))]
        text = "".join(t + rng.choice(SEPARATORS) for t in tokens)
    if rng.random() < 0.05:
        return (text, rng.randint(1, 2), rng.randint(1, 2))
    return text


def _table(rng: random.Random, words: list[str]) -> Table:
    width = rng.randint(1, 4)
    body = []
    for _ in range(rng.randint(0, 6)):
        if rng.random() < 0.1:
            body.append([])
        else:
            body.append([_cell(rng, words) for _ in range(rng.randint(1, width))])
    header = [[_cell(rng, words) for _ in range(width)]] if rng.random() < 0.3 else []
    return Table.from_rows(body=body, header=header, normalized=rng.random() < 0.6)


def test_matches_reference_on_random_pairs():
    rng = random.Random(20261018)
    for _ in range(PAIRS):
        raw, words = _source(rng)
        table = _table(rng, words)
        source = SourceText(raw)
        want = reference_hallucination(SourceText(raw), table)
        assert compute_hallucination(source, table) == want, (raw, table)
        assert compute_hallucination(source, table) == want, (raw, table)
        assert compute_coverage(source, table) == reference_checker.compute_coverage(SourceText(raw), table)
        assert source.tokens == tuple(raw.split())
        assert source == SourceText(raw) and hash(source) == hash(SourceText(raw))


def test_matches_reference_on_balance_sheet(balance_sheet_source, balance_sheet_gold):
    source = SourceText(balance_sheet_source.raw)
    want = reference_hallucination(balance_sheet_source, balance_sheet_gold)
    assert compute_hallucination(source, balance_sheet_gold) == want
    assert compute_hallucination(source, balance_sheet_gold) == want


def test_spanning_token_is_a_miss():
    # "lowor" is no substring of the raw source: the space splits it
    source = SourceText("hello world")
    table = Table.from_rows(body=[["lowor", "lo wor"]])
    assert compute_hallucination(source, table) == reference_hallucination(source, table) == 0.5
