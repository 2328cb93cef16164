"""Seeded corpus and request generator for the benchmark.

Everything the program under test sees is made here from one integer
seed, with numpy's PCG64 generator, so one seed always yields
byte-identical pages and request lists:

* a Zipf vocabulary (exponent ``ZIPF_S``, ``VOCAB`` synthetic words made
  of consonant-vowel syllables that the english analyzer keeps intact);
* pages whose token counts are lognormal with mean ``MEAN_TOKENS``, each
  with a front-matter title, body text and a unique url;
* a newer duplicate crawl of every ``DUP_EVERY``-th url, so the build's
  dedup keeps one of two rows.  The most frequent words land above the
  build's ``heavy_df_ratio`` (0.25), which exercises posting salting;
* request lists: head-term ``match`` bodies for ``POST /_search``,
  long-tail term lists for ``query.bm25.topk`` (only words the index
  holds) and ``/_bulk`` batches of new and already-indexed urls.
"""

from __future__ import annotations

import hashlib
import html
import json
import re

import numpy as np

VOCAB = 100_000
ZIPF_S = 1.07
MEAN_TOKENS = 200
TOKENS_SIGMA = 0.6
DUP_EVERY = 10
SEEN_SHARE = 0.1  # share of each /_bulk batch whose urls are already indexed
BASE_TS_US = 1_735_689_600_000_000  # 2025-01-01T00:00:00Z
HOUR_US = 3_600_000_000

# ranks are 1-based positions in the Zipf order
HEAD_RANKS = (1, 2_000)  # search_hot / bulk_mixed query terms
TAIL_RANKS = (200, 50_000)  # topk_longtail query terms, if indexed

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aou"
_SYLLABLES = [c + v for c in _CONSONANTS for v in _VOWELS]


def _rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, stream): adding a stream or
    changing how many draws one makes leaves the others unchanged."""
    salt = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:8], "little")
    return np.random.default_rng([int(seed), salt])


def vocabulary(seed: int) -> list[str]:
    """``VOCAB`` distinct words in Zipf rank order (rank 1 first).

    Words are 3 or 4 syllables ending in a vowel (a, o or u), a shape
    the Porter stemmer leaves alone, so distinct words stay distinct
    terms in the index."""
    rng = _rng(seed, "vocab")
    words: dict[str, None] = {}
    syl = np.array(_SYLLABLES)
    while len(words) < VOCAB:
        n = VOCAB - len(words)
        lens = rng.integers(3, 5, size=n)
        picks = rng.integers(0, len(syl), size=(n, 4))
        for k, row in zip(lens, picks):
            words.setdefault("".join(syl[row[:k]]), None)
    return list(words)[:VOCAB]


class Corpus:
    """The seeded vocabulary plus samplers over its Zipf distribution."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.words = np.array(vocabulary(seed), dtype=object)
        w = np.arange(1, VOCAB + 1, dtype=np.float64) ** -ZIPF_S
        self.cdf = np.cumsum(w / w.sum())

    def zipf_ranks(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` 1-based ranks drawn from the Zipf distribution."""
        r = np.searchsorted(self.cdf, rng.random(n), side="right")
        return np.minimum(r, VOCAB - 1) + 1

    def text(self, rng: np.random.Generator, n_tokens: int) -> str:
        return " ".join(self.words[self.zipf_ranks(rng, n_tokens) - 1])

    def page(self, rng: np.random.Generator, url: str, ts_us: int) -> dict:
        n = int(
            np.clip(
                rng.lognormal(np.log(MEAN_TOKENS) - TOKENS_SIGMA**2 / 2, TOKENS_SIGMA),
                20,
                2_000,
            )
        )
        title = self.text(rng, 4)
        body = self.text(rng, n)
        # front matter carries the title; the extractor reads it back
        source = f"---\ntitle: {title}\n---\n\n{body}\n"
        return {
            "url": url,
            "warc_ts": ts_us,
            "html": "<html><head></head><body>"
            + html.escape(source, quote=False)
            + "</body></html>",
            "lang": "en",
        }


def pages(seed: int, n_urls: int, corpus: Corpus | None = None, prefix: str = "p") -> list[dict]:
    """``n_urls`` unique pages, plus a newer duplicate crawl of every
    ``DUP_EVERY``-th url (different body, one hour later).  Rows are
    shuffled so duplicates are not adjacent.  ``html`` is ``str``."""
    corpus = corpus or Corpus(seed)
    rng = _rng(seed, f"pages-{prefix}-{n_urls}")
    rows = []
    for i in range(n_urls):
        url = f"https://docs.test/{prefix}/{i // 100:03d}/page-{i:06d}/"
        ts = BASE_TS_US + i * 1_000_000
        rows.append(corpus.page(rng, url, ts))
        if i % DUP_EVERY == 0:
            rows.append(corpus.page(rng, url, ts + HOUR_US))
    order = rng.permutation(len(rows))
    return [rows[i] for i in order]


def pages_table(rows: list[dict]):
    """Page rows → the pyarrow table ``index.build.build_index`` reads
    (url, warc_ts, html, text, lang)."""
    import pyarrow as pa

    return pa.table(
        {
            "url": pa.array([r["url"] for r in rows], pa.string()),
            "warc_ts": pa.array(
                np.array([r["warc_ts"] for r in rows], np.int64), pa.int64()
            ).cast(pa.timestamp("us")),
            "html": pa.array([r["html"].encode() for r in rows], pa.binary()),
            "text": pa.array([""] * len(rows), pa.string()),
            "lang": pa.array([r["lang"] for r in rows], pa.string()),
        }
    )


def input_bytes(rows: list[dict]) -> int:
    """UTF-8 bytes of page html — the input side of the size ratio."""
    return sum(len(r["html"].encode()) for r in rows)


def _head_terms(corpus: Corpus, rng: np.random.Generator) -> list[str]:
    """1–3 words, Zipf-weighted within ``HEAD_RANKS``: ranks outside the
    band are drawn again."""
    k = int(rng.integers(1, 4))
    lo, hi = HEAD_RANKS
    ranks: list[int] = []
    while len(ranks) < k:
        r = corpus.zipf_ranks(rng, 4 * k)
        ranks.extend(int(x) for x in r if lo <= x <= hi)
    return [str(corpus.words[r - 1]) for r in ranks[:k]]


def search_bodies(seed: int, n: int, corpus: Corpus | None = None, stream: str = "search") -> list[dict]:
    """``POST /_search`` bodies: a ``match`` of 1–3 head terms (ranks
    ``HEAD_RANKS``, Zipf-weighted), size 10, url+title source and a
    body highlight."""
    corpus = corpus or Corpus(seed)
    rng = _rng(seed, stream)
    return [
        {
            "query": {"match": {"text": " ".join(_head_terms(corpus, rng))}},
            "size": 10,
            "_source": ["url", "title"],
            "highlight": {"fields": {"body": {}}},
        }
        for _ in range(n)
    ]


def indexed_ranks(rows: list[dict], corpus: Corpus) -> np.ndarray:
    """Sorted ranks within ``TAIL_RANKS`` of the words a build of
    ``rows`` indexes: body words of each url's newest crawl (the build's
    dedup drops the older one)."""
    newest: dict[str, dict] = {}
    for r in rows:
        if r["url"] not in newest or r["warc_ts"] > newest[r["url"]]["warc_ts"]:
            newest[r["url"]] = r
    rank = {str(w): i + 1 for i, w in enumerate(corpus.words)}
    lo, hi = TAIL_RANKS
    found = {
        rank[w]
        for r in newest.values()
        for w in re.findall(r"[a-z]+", r["html"].split("\n---\n\n", 1)[1])
        if w in rank and lo <= rank[w] <= hi
    }
    return np.array(sorted(found), dtype=np.int64)


def tail_queries(
    seed: int, n: int, ranks: np.ndarray, corpus: Corpus | None = None, stream: str = "tail"
) -> list[list[str]]:
    """Term lists of 1–3 words drawn uniformly from ``ranks`` (see
    :func:`indexed_ranks`), so every term has postings."""
    corpus = corpus or Corpus(seed)
    rng = _rng(seed, stream)
    return [
        [str(corpus.words[r - 1]) for r in rng.choice(ranks, size=int(rng.integers(1, 4)))]
        for _ in range(n)
    ]


def bulk_batches(
    seed: int,
    n_batches: int,
    batch_docs: int,
    base_urls: list[str],
    corpus: Corpus | None = None,
) -> list[list[dict]]:
    """``/_bulk`` batches of ``batch_docs`` pages each: ``SEEN_SHARE``
    of the urls already exist in the base (``base_urls``), the rest are
    new and distinct across batches."""
    corpus = corpus or Corpus(seed)
    rng = _rng(seed, "bulk")
    n_seen = int(round(batch_docs * SEEN_SHARE))
    out = []
    for b in range(n_batches):
        seen = rng.choice(len(base_urls), size=n_seen, replace=False)
        urls = [base_urls[i] for i in seen] + [
            f"https://docs.test/bulk/{b:03d}/page-{i:06d}/" for i in range(batch_docs - n_seen)
        ]
        urls = [urls[i] for i in rng.permutation(len(urls))]
        ts = BASE_TS_US + 10 * HOUR_US + b * 1_000_000
        out.append([corpus.page(rng, u, ts) for u in urls])
    return out


def bulk_body(docs: list[dict]) -> bytes:
    """NDJSON ``/_bulk`` body: an ``index`` action line per source."""
    lines = []
    for d in docs:
        lines.append('{"index": {}}')
        lines.append(json.dumps(d, sort_keys=True))
    return ("\n".join(lines) + "\n").encode()
