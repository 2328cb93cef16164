"""Windowed aggregates, sessionization, and highlighting."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from docs_indexer_ray.functions.analyzer import Analyzer
from docs_indexer_ray.ops.windows import sessionize, tumbling_window
from docs_indexer_ray.query.highlight import best_snippet, highlight, match_spans


def _events_table() -> pa.Table:
    # user 1: two sessions (gap > 30 min); user 2: one session
    base = 1_700_000_000_000_000
    rows = [
        (1, base + 0, 1.0),
        (1, base + 60_000_000, 2.0),          # +1 min  → same session
        (1, base + 10_000_000_000, 3.0),      # +2.7 h  → new session
        (2, base + 5_000_000, 10.0),
        (2, base + 1_790_000_000, 20.0),      # +29.8 min → same session
    ]
    return pa.table(
        {
            "user_id": pa.array([r[0] for r in rows], pa.int64()),
            "ts": pa.array(
                np.array([r[1] for r in rows], np.int64), pa.timestamp("us")
            ),
            "value": pa.array([r[2] for r in rows], pa.float64()),
        }
    )


def test_tumbling_window(ray_session):
    import ray.data

    out = tumbling_window(ray.data.from_arrow(_events_table()), window_s=3600)
    rows = {(r["user_id"], r["window"]): r for r in out.take_all()}
    base_win = 1_700_000_000_000_000 // 3_600_000_000
    later_win = (1_700_000_000_000_000 + 10_000_000_000) // 3_600_000_000
    assert rows[(1, base_win)]["n_events"] == 2
    assert rows[(1, base_win)]["sum_value"] == 3.0
    assert rows[(1, later_win)]["n_events"] == 1
    assert rows[(2, base_win)]["n_events"] == 2


def test_topk_per_group_drops_null_keys(ray_session):
    """Null group keys are DROPPED (the pandas-groupby semantics this
    kernel replaced) — a null key must not seed its own singleton run
    and bypass the ≤k cap."""
    import ray.data

    from docs_indexer_ray.ops.windows import topk_per_group

    t = pa.table(
        {
            "g": pa.array(["a", "a", "a", None, None, "b"], pa.string()),
            "v": pa.array([3.0, 1.0, 2.0, 9.0, 8.0, 5.0], pa.float64()),
        }
    )
    out = pa.concat_tables(
        [
            p
            for p in (
                __import__("ray").get(r)
                for r in topk_per_group(
                    ray.data.from_arrow(t).repartition(3), "g", "v", k=2
                ).to_arrow_refs()
            )
            if p.num_rows
        ]
    )
    got = sorted(zip(out["g"].to_pylist(), out["v"].to_pylist(), out["rank"].to_pylist()))
    assert got == [("a", 2.0, 2), ("a", 3.0, 1), ("b", 5.0, 1)]


def test_sessionize(ray_session):
    import ray.data

    out = sessionize(ray.data.from_arrow(_events_table()), timeout_s=1800)
    rows = {(r["user_id"], r["session_id"]): r for r in out.take_all()}
    assert rows[(1, 0)]["n_events"] == 2
    assert rows[(1, 1)]["n_events"] == 1
    assert rows[(2, 0)]["n_events"] == 2
    assert (1, 2) not in rows
    assert rows[(1, 0)]["session_end"] - rows[(1, 0)]["session_start"] == 60_000_000


def test_sessionize_partition_invariance(ray_session):
    import ray.data

    t = _events_table()
    a = sorted(map(tuple, (r.values() for r in sessionize(ray.data.from_arrow(t)).take_all())))
    b = sorted(
        map(
            tuple,
            (
                r.values()
                for r in sessionize(ray.data.from_arrow(t).repartition(5)).take_all()
            ),
        )
    )
    assert a == b


def test_highlight_marks_stemmed_matches():
    text = "The tables were scanned quickly; scanning tables is fast."
    out = highlight(text, "table scan", Analyzer("english"))
    assert "<em>tables</em>" in out
    assert "<em>scanned</em>" in out
    assert "<em>scanning</em>" in out
    assert "quickly" in out and "<em>quickly</em>" not in out


def test_best_snippet_window():
    text = ("padding words " * 50) + "the merge table scan cluster" + (" trailing" * 50)
    snip = best_snippet(text, "table scan merge", Analyzer("english"), width=60)
    assert "<em>merge</em>" in snip and "<em>table</em>" in snip and "<em>scan</em>" in snip
    assert len(snip) <= 60 + 2 + len("<em></em>") * 6  # width + ellipses + markup
    assert snip.startswith("…") and snip.endswith("…")


def test_match_spans_simple_chain():
    spans = match_spans("Alpha beta ALPHA", {"alpha"}, Analyzer("simple"))
    assert spans == [(0, 5), (11, 16)]


def test_best_snippet_match_longer_than_width():
    """A single matching token wider than the snippet window still gets
    (partial) markup — the old centering math skipped it entirely."""
    text = "start " + "a" * 200 + " end"
    snip = best_snippet(text, "a" * 200, Analyzer("standard"), width=50)
    assert "<em>" in snip and "</em>" in snip


def test_match_spans_reverse_chain():
    """Reverse-chain query terms are reversed by the analyzer; text
    tokens must be reversed too or nothing ever matches."""
    terms = set(Analyzer("reverse")("alpha"))
    assert terms == {"ahpla"}
    spans = match_spans("Alpha beta", terms, Analyzer("reverse"))
    assert spans == [(0, 5)]


def _oracle_spans(text, terms, chain):
    """The highlighter's per-token step with no memo and no term
    vector: every token occurrence re-normalized from scratch —
    tokenized with TOKEN_RE, or with SIMPLE_RE over the lowered text
    for the simple and edge chains."""
    from docs_indexer_ray.functions.analyzer import (
        SIMPLE_RE,
        TOKEN_RE,
        strip_possessive,
    )
    from docs_indexer_ray.functions.porter import porter_stem

    def norm(token):
        if chain == "english":
            return porter_stem(strip_possessive(token).lower())
        if chain == "reverse":
            return token.lower()[::-1]
        return token.lower()

    if chain in ("simple", "edge"):
        tokens = SIMPLE_RE.finditer(text.lower())
    else:
        tokens = TOKEN_RE.finditer(text)
    return [(m.start(), m.end()) for m in tokens if norm(m.group(0)) in terms]


EDGE_TEXTS = [
    ("The cluster’s nodes and the cluster's pods", "cluster pods"),
    ("start " + "y" * 300 + " end", "y" * 300),  # a match wider than width
    ("yyyy " * 80 + "tail", "yyyy"),
    ("are we there yet", "ar"),  # stopword body vs stem query
    ("Are ARE are", "are ar"),
    ("", "anything"),
    ("don't stop u.s.a 3.14 café’s", "café don't u.s.a"),
    ("see foo_bar and x.foo Foo", "foo"),  # [a-z0-9]+ splits in simple/edge
]


def _fresh_memos(monkeypatch):
    import docs_indexer_ray.functions.analyzer as an_mod

    monkeypatch.setattr(an_mod, "_ANALYSIS", {})
    monkeypatch.setattr(an_mod, "_NORMALIZE", {})
    return an_mod


def _snippet_cases():
    from docs_indexer_ray.synth import rich_pages_table

    bodies = rich_pages_table(40, dup_every=0)["text"].to_pylist()
    queries = ["node pools quota", "the cluster", "helm upgrade changelog",
               " ".join(bodies[3].split()[2:6])]
    return [(b, q) for b in bodies for q in queries] + EDGE_TEXTS


@pytest.mark.parametrize("chain", Analyzer.CHAINS)
def test_best_snippet_matches_per_token_oracle(chain, monkeypatch):
    """The highlighter is byte-identical to re-normalizing every token:
    corpus bodies and edge tokens, two widths, through ``match_spans``
    and through term vectors — built on a cold memo, then rebuilt on
    the warm one, each vector reused by every query of its text (the
    reader's cached path)."""
    import docs_indexer_ray.query.highlight as hl

    _fresh_memos(monkeypatch)
    cases = _snippet_cases()
    an = Analyzer(chain)
    assert an._norm == {}

    def through_vectors():
        vecs = {b: hl.term_vector(b, an) for b, _ in cases}
        return [
            best_snippet(b, q, an, width=w, vector=vecs[b])
            for b, q in cases for w in (40, 160)
        ]

    cold = through_vectors()
    warm = through_vectors()
    plain = [best_snippet(b, q, an, width=w) for b, q in cases for w in (40, 160)]
    monkeypatch.setattr(
        hl, "match_spans", lambda text, terms, _an: _oracle_spans(text, terms, chain)
    )
    want = [
        hl.best_snippet(b, q, Analyzer(chain), width=w)
        for b, q in cases for w in (40, 160)
    ]
    assert cold == want
    assert warm == want
    assert plain == want
    assert any("<em>" in x for x in want)


def test_highlight_stems_each_surface_token_once(monkeypatch):
    """A second highlight of the same text on the same chain stems
    nothing, whichever analyzer instance asks; the first stems each
    distinct surface token once."""
    from docs_indexer_ray.synth import rich_pages_table

    an_mod = _fresh_memos(monkeypatch)
    text = " ".join(rich_pages_table(10, dup_every=0)["text"].to_pylist())
    real, calls = an_mod.porter_stem, []
    monkeypatch.setattr(an_mod, "porter_stem", lambda t: calls.append(t) or real(t))
    an = Analyzer("english")
    terms = set(an("node pools"))
    calls.clear()
    first = best_snippet(text, "", an, terms=terms)
    assert len(calls) == len(set(an_mod.TOKEN_RE.findall(text)))
    calls.clear()
    assert best_snippet(text, "node pools", an) == first
    assert best_snippet(text, "node pools", Analyzer("english")) == first
    assert calls == []


@pytest.mark.parametrize("chain", Analyzer.CHAINS)
def test_small_memo_cap_changes_no_output(chain, monkeypatch):
    """A memo that reaches its cap is cleared, so analysis, term vectors
    and snippets are the same with a tiny cap, and no memo ever holds
    more than the cap."""
    import docs_indexer_ray.query.highlight as hl

    cases = _snippet_cases()[::7]

    def run():
        an = Analyzer(chain)
        out = []
        for b, q in cases:
            vec = hl.term_vector(b, an)
            out.append((an(b), vec, best_snippet(b, q, an, width=60),
                        best_snippet(b, q, an, width=60, vector=vec)))
            assert len(an._cache) <= an_mod._MEMO_CAP
            assert len(an._norm) <= an_mod._MEMO_CAP
        return out

    an_mod = _fresh_memos(monkeypatch)
    want = run()
    an_mod = _fresh_memos(monkeypatch)
    monkeypatch.setattr(an_mod, "_MEMO_CAP", 8)
    assert run() == want
    assert 0 < len(Analyzer(chain)._norm) <= 8


def test_highlight_memo_is_per_chain():
    """Each analyzer keeps its own normalize memo: a warm english memo
    never answers for standard (and vice versa), and the analysis memo
    (stopwords -> dropped) never answers for normalize (stopwords ->
    their stem)."""
    en, std = Analyzer("english"), Analyzer("standard")
    text = "Running are runs"
    assert match_spans(text, {"run"}, en) == [(0, 7), (12, 16)]
    assert match_spans(text, {"run"}, std) == []
    assert match_spans(text, {"running"}, std) == [(0, 7)]
    assert match_spans(text, {"running"}, en) == []
    assert en("are running") == ["run"]  # analysis drops the stopword
    assert match_spans(text, {"ar"}, en) == [(8, 11)]


@pytest.mark.parametrize("chain", ["simple", "edge"])
def test_simple_and_edge_chains_highlight_joined_tokens(chain):
    """These chains split on [a-z0-9]+, so ``foo_bar`` and ``x.foo``
    each index ``foo``; the snippet must mark both occurrences."""
    an = Analyzer(chain)
    text = "see foo_bar and x.foo"
    assert "foo" in an(text)
    assert best_snippet(text, "foo", an) == (
        "see <em>foo</em>_bar and x.<em>foo</em>"
    )


def test_suggest_unicode_and_never_echoes_input():
    """Chain tokenization keeps accented/apostrophe words whole: a
    correctly spelled 'café' must NOT trigger a did-you-mean banner
    (the old ASCII split truncated it to df-0 'caf' and proposed the
    user's own query back)."""
    import numpy as np

    from docs_indexer_ray.query.suggest import Suggester

    class FakeReader:
        chain = "english"

        def term_dictionary(self):
            return (np.array(["café", "coffee", "tea"]), np.array([5, 9, 3]))

        def term_df(self, t):
            return {"café": 5, "coffee": 9, "tea": 3}.get(t, 0)

    sug = Suggester(FakeReader())
    assert sug.suggest("café") == []
    assert sug.suggest("don't tea") == []
    got = sug.suggest("cofee")
    assert got and got[0][0] == "coffee"
    assert all(phrase != "cofee" for phrase, _ in got)


# ---- did-you-mean suggester ----------------------------------------------


def test_did_you_mean_corrects_misspellings(ray_session, tmp_path):
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.suggest import Suggester
    from docs_indexer_ray.synth import rich_pages_table

    build_index(
        ray.data.from_arrow(rich_pages_table(40, dup_every=0)),
        str(tmp_path / "idx"),
        fingerprint="s",
        num_parts=8,
        salt_heavy=False,
        chain="english",
    )
    sug = Suggester(IndexReader(str(tmp_path / "idx")))

    # single-token corrections: vocabulary contains node/pools/quota
    cands = sug.correct_token("noode")
    assert cands and cands[0][0] == "node"
    cands = sug.correct_token("quta")
    assert cands and cands[0][0] == "quota"

    # phrase surface: misspelled phrase → corrected phrase, best first
    got = sug.suggest("noode quta limit")
    assert got and got[0][0] == "node quota limit"
    # a clean query produces NO banner
    assert sug.suggest("node quota") == []


def test_prefix_terms_dictionary_shape(ray_session, tmp_path):
    """prefix_terms via the loaded dictionary matches a brute scan."""
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table

    build_index(
        ray.data.from_arrow(rich_pages_table(30, dup_every=0)),
        str(tmp_path / "idx2"),
        fingerprint="p",
        num_parts=8,
        salt_heavy=True,
        heavy_df_ratio=0.2,
        n_salt_runs=4,
        chain="english",
    )
    reader = IndexReader(str(tmp_path / "idx2"))
    terms, dfs = reader.term_dictionary()
    want = sorted(
        ((t, int(d)) for t, d in zip(terms, dfs) if t.startswith("po")),
        key=lambda kv: (-kv[1], kv[0]),
    )[:10]
    assert reader.prefix_terms("po", limit=10) == want
    # df is summed across a salted term's runs: every df must equal the
    # true document frequency (≤ n_docs)
    assert (dfs <= reader.n_docs).all()


def test_did_you_mean_transposition_fallback(ray_session, tmp_path):
    """Transposed short words share no trigram with their correction —
    the edit-distance fallback must still find them."""
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.fuzzy import edit_distance
    from docs_indexer_ray.query.suggest import Suggester
    from docs_indexer_ray.synth import rich_pages_table

    assert edit_distance("hsah", "hash", cap=3) == 1  # one transposition
    assert edit_distance("abc", "xyz", cap=3) == 3
    # plain-Levenshtein mode (the SQL-oracle mode): transposition costs 2
    assert edit_distance("hsah", "hash", cap=3, transpositions=False) == 2

    build_index(
        ray.data.from_arrow(rich_pages_table(40, dup_every=0)),
        str(tmp_path / "tidx"),
        fingerprint="t",
        num_parts=8,
        salt_heavy=False,
        chain="simple",
        field="body",
    )
    sug = Suggester(IndexReader(str(tmp_path / "tidx")))
    cands = sug.correct_token("opols")  # transposition of "pools"
    assert cands and cands[0][0] == "pools"


def _fleet_phrase_ids(svc, q: str) -> list[int]:
    """The doc ids of a DSL ``match_phrase`` through the fleet's query
    phase (``("ids",)`` op)."""
    _, _, (ids,) = svc.query_phase(
        {"match_phrase": {"body": q}}, True, ops=[("ids",)]
    )
    return ids.tolist()


def test_query_service_matches_local_reader(ray_session, tmp_path):
    """A one-shard fleet with two replicas, and the in-process one-shard
    service over the local reader, return exactly the local reader's
    results for topk, phrase and the assembled search."""
    import ray.data

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.bm25 import topk
    from docs_indexer_ray.query.phrase import match_phrase
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.served import ShardedQueryService, page_rank
    from docs_indexer_ray.synth import rich_pages_table

    build_index(
        ray.data.from_arrow(rich_pages_table(50, dup_every=0)),
        str(tmp_path / "sidx"),
        fingerprint="s",
        num_parts=8,
        salt_heavy=False,
        chain="english",
        store_positions=True,
    )
    svc = ShardedQueryService(str(tmp_path / "sidx"), n_shards=1, n_replicas=2)
    try:
        reader = IndexReader(str(tmp_path / "sidx"))
        an = Analyzer("english")
        queries = ["node pools", "quota namespace limit", "helm upgrade", "page"]
        for q in queries:
            assert svc.topk(q, k=10) == topk(reader, an(q), k=10), q
        # phrase round-trips through both replicas
        ph = match_phrase(reader, an("node pools"))
        for _ in range(2):
            assert ph and _fleet_phrase_ids(svc, "node pools") == [d for d, _ in ph]
        # assembled _search response from a replica ≡ the local one
        from docs_indexer_ray.query.search import search_response

        resp = svc.search("node pools", k=5, highlight_field="body", syntax=True)
        want = search_response(
            reader, "node pools", k=5, highlight_field="body", syntax=True
        )
        assert resp.to_pylist() == want.to_pylist()
        assert "<em>" in resp["snippet"][0].as_py()
        # the REST local backend: same protocol, one in-process shard
        local = ShardedQueryService.in_process(reader)
        assert local.n_shards == 1 and local.revive() == 0
        for q in queries:
            page, total, _ = local.query_phase(q, True, rank=page_rank(5))
            got = local.fetch_phase(
                page, q, ("url", "title"), "body", 160, True
            )
            want, want_total = search_response(
                reader, q, k=5, highlight_field="body", syntax=True,
                with_total=True,
            )
            assert got.to_pylist() == want.to_pylist(), q
            assert total == want_total, q
    finally:
        svc.shutdown()


@pytest.mark.parametrize("n_shards", [2, 3, 5])
def test_sharded_service_matches_local_reader(ray_session, tmp_path, n_shards):
    """Doc-range-sharded serving ≡ the local reader, exactly — global
    statistics make per-shard scores globally comparable, and the
    top-k merge is (score desc, doc asc), same as _rank_top.  Salted
    heavy terms included (their runs span shard boundaries)."""
    import ray.data

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.bm25 import score_topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.served import ShardedQueryService
    from docs_indexer_ray.synth import rich_pages_table

    build_index(
        ray.data.from_arrow(rich_pages_table(60, dup_every=0)),
        str(tmp_path / "shidx"),
        fingerprint="sh",
        num_parts=8,
        salt_heavy=True,
        heavy_df_ratio=0.2,
        n_salt_runs=4,
        chain="english",
    )
    svc = ShardedQueryService(str(tmp_path / "shidx"), n_shards=n_shards)
    try:
        reader = IndexReader(str(tmp_path / "shidx"))
        an = Analyzer("english")
        queries = ["node pools", "quota namespace limit", "helm upgrade", "page",
                   "the cluster"]
        for q in queries:
            assert svc.topk(q, k=10) == score_topk(reader, an(q), k=10), q
        # k larger than any single shard's hit count still merges right
        assert svc.topk("page", k=50) == score_topk(reader, an("page"), k=50)
    finally:
        svc.shutdown()


@pytest.mark.parametrize("n_shards", [2, 5])
def test_sharded_phrase_matches_local_reader(ray_session, tmp_path, n_shards):
    """Sharded exact phrase ≡ local match_phrase (positional matching
    is per-doc local; disjoint ranges concatenate) — with salted heavy
    terms spanning shard boundaries, and with a tombstone applied."""
    import ray.data

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.index.deletes import add_deletes
    from docs_indexer_ray.query.phrase import match_phrase
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.served import ShardedQueryService
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path / "spidx")
    build_index(
        ray.data.from_arrow(rich_pages_table(60, dup_every=0)),
        root,
        fingerprint="sp",
        num_parts=8,
        salt_heavy=True,
        heavy_df_ratio=0.2,
        n_salt_runs=4,
        chain="simple",
        field="body",
        store_positions=True,
    )
    an = Analyzer("simple")
    queries = ["node pools", "per namespace", "the node pools", "node"]

    def shard_readers():
        n = IndexReader(root).n_docs
        edges = np.linspace(0, n, n_shards + 1).astype(int)
        return [
            IndexReader(root, doc_range=(int(lo), int(hi)))
            for lo, hi in zip(edges[:-1], edges[1:])
        ]

    def check_phrases(svc, reader, shards):
        # the fleet's DSL match_phrase ids, and match_phrase on shard
        # readers concatenated (freqs included), equal the full reader's
        for q in queries:
            want = match_phrase(reader, an(q))
            assert _fleet_phrase_ids(svc, q) == [d for d, _ in want], q
            got = [hit for shard in shards for hit in match_phrase(shard, an(q))]
            assert got == want, q

    reader, shards = IndexReader(root), shard_readers()
    local = match_phrase(reader, an("node pools"))
    assert local  # non-trivial

    # unordered spans: a DSL span_near through the fleet's query phase
    # matches the full reader's span_near docs, and span_near on shard
    # readers concatenates to the full reader's output, windows included
    from docs_indexer_ray.query.phrase import span_near

    svc = ShardedQueryService(root, n_shards=n_shards)
    try:
        check_phrases(svc, reader, shards)
        for terms, slop in [(["node", "pools"], 2), (["per", "namespace"], 0)]:
            want = span_near(reader, an(" ".join(terms)), slop=slop)
            assert want  # non-trivial
            dsl = {"span_near": {
                "clauses": [{"span_term": {"body": t}} for t in terms],
                "slop": slop, "in_order": False,
            }}
            _, _, (ids,) = svc.query_phase(dsl, True, ops=[("ids",)])
            assert ids.tolist() == [d for d, _ in want]
            got = [
                hit for shard in shards
                for hit in span_near(shard, an(" ".join(terms)), slop=slop)
            ]
            assert got == want
    finally:
        svc.shutdown()

    # tombstone a hit: both tiers drop it identically
    victim = local[0][0]
    add_deletes(root, [victim])
    svc = ShardedQueryService(root, n_shards=n_shards)
    try:
        reader = IndexReader(root)
        assert victim not in {d for d, _ in match_phrase(reader, an("node pools"))}
        check_phrases(svc, reader, shard_readers())
    finally:
        svc.shutdown()


@pytest.mark.parametrize("n_shards", [2, 4])
def test_sharded_search_matches_local_response(ray_session, tmp_path, n_shards):
    """Two-phase query-then-fetch on the fleet ≡ the local
    search_response assembly (plain-match mode), including stored
    fields and per-hit snippets — and the query_string path highlights
    only POSITIVE terms."""
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.search import search_response
    from docs_indexer_ray.query.served import ShardedQueryService
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path / "sridx")
    build_index(
        ray.data.from_arrow(rich_pages_table(90, dup_every=0)),
        root,
        fingerprint="sr",
        num_parts=6,
        chain="simple",
        field="body",
        store_positions=True,
    )
    reader = IndexReader(root)
    local = search_response(
        reader, "node pools quota", k=7, fields=("url", "title"),
        highlight_field="body", syntax=False,
    )
    assert local.column_names == ["rank", "doc_id", "score", "url", "title", "snippet"]
    assert local.num_rows == 7
    assert "<em>" in local["snippet"][0].as_py()

    svc = ShardedQueryService(root, n_shards=n_shards, chain="simple")
    try:
        sharded = svc.search(
            "node pools quota", k=7, fields=("url", "title"), highlight_field="body"
        )
        assert sharded.to_pylist() == local.to_pylist()
        # no-hit query → empty response, stable schema
        empty = svc.search("zzzunseen", k=5, fields=("url",))
        assert empty.num_rows == 0
        assert empty.column_names == ["rank", "doc_id", "score", "url"]
        # empty pages keep the STORE's column types (non-string fields
        # included) so they concat with non-empty pages and match the
        # local assembly's schema — the zero-hit path must not
        # hardcode pa.string()
        fields_t = ("url", "warc_ts")
        empty_t = svc.search("zzzunseen", k=5, fields=fields_t)
        local_t = search_response(
            reader, "zzzunseen", k=5, fields=fields_t, syntax=False
        )
        assert empty_t.schema == local_t.schema
        nonempty_t = svc.search("node", k=2, fields=fields_t)
        import pyarrow as pa

        both = pa.concat_tables([empty_t, nonempty_t])
        assert both.num_rows == 2
    finally:
        svc.shutdown()

    # query_string mode: the prohibited term never lights up
    qs = search_response(
        reader, '+node -quota "node pools"', k=5, fields=("url",),
        highlight_field="body",
    )
    assert qs.num_rows == 5
    for snip in qs["snippet"].to_pylist():
        assert "<em>quota</em>" not in snip
    # fetch is rank-aligned: doc order matches the hit order
    assert qs["rank"].to_pylist() == [1, 2, 3, 4, 5]

    # syntax mode on the fleet ≡ the local query_string assembly
    svc = ShardedQueryService(root, n_shards=n_shards, chain="simple")
    try:
        sh = svc.search(
            '+node -quota "node pools"', k=5, fields=("url",),
            highlight_field="body", syntax=True,
        )
        assert sh.to_pylist() == qs.to_pylist()
    finally:
        svc.shutdown()


def test_replicated_sharded_service_matches_local(ray_session, tmp_path):
    """n_replicas > 1 (OpenSearch primary+replica read scaling): every
    fan-out picks one replica per doc range round-robin — results stay
    exactly the local reader's across repeated calls landing on
    different replicas."""
    import ray.data

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.bm25 import score_topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.served import ShardedQueryService
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path / "repidx")
    build_index(
        ray.data.from_arrow(rich_pages_table(60, dup_every=0)),
        root,
        fingerprint="rp",
        num_parts=4,
        chain="simple",
        field="body",
        store_positions=True,
    )
    reader = IndexReader(root)
    an = Analyzer("simple")
    svc = ShardedQueryService(root, n_shards=3, n_replicas=2)
    try:
        assert len(svc._groups) == 3 and all(len(g) == 2 for g in svc._groups)
        want = score_topk(reader, an("node pools"), k=10)
        # several calls rotate replicas; all must agree
        for _ in range(4):
            assert svc.topk("node pools", k=10) == want
        assert _fleet_phrase_ids(svc, "node pools") and svc.query_phase("node")[1] > 0
        resp = svc.search("node pools", k=3, highlight_field="body")
        assert resp.num_rows == 3 and "<em>" in resp["snippet"][0].as_py()
    finally:
        svc.shutdown()
