"""``/_termvectors`` — per-doc term statistics (query/termvectors.py
+ the HTTP routes): on-the-fly re-analysis must agree with the
Analyzer chains term-for-term, statistics with the reader."""

import json
import urllib.error
import urllib.parse
import urllib.request

import pytest

from docs_indexer_ray.functions.analyzer import Analyzer
from docs_indexer_ray.query.termvectors import analyze_with_spans

TEXTS = [
    "The quick brown fox's jumps over the lazy dog and the dog sleeps",
    "node pools scale; Node POOLS scale again (v1.2.3) — u.s.a. rules",
    "",
    "stopwords the and of are gone but positions advance",
]


@pytest.mark.parametrize(
    "chain", ["english", "standard", "simple", "trigram", "reverse", "edge"]
)
def test_spans_agree_with_analyzer(chain):
    an = Analyzer(chain)
    for text in TEXTS:
        spans = analyze_with_spans(text, chain)
        assert [t for t, *_ in spans] == an(text), (chain, text)
        # offsets point at real text (lowered text for simple/edge)
        hay = text.lower() if chain in ("simple", "edge") else text
        for term, _pos, s, e in spans:
            assert 0 <= s < e <= len(hay)
            if chain in ("simple", "standard"):
                assert hay[s:e].lower() == term


def test_english_spans_stem_through_the_chain_memo(monkeypatch):
    """The english twin shares the chain's per-process stem memo: from
    a reset memo the first call stems each distinct surface form once,
    a repeat call (and the Analyzer on the same text) stems nothing."""
    import docs_indexer_ray.functions.analyzer as an_mod

    monkeypatch.setattr(an_mod, "_ANALYSIS", {})
    real, calls = an_mod.porter_stem, []
    monkeypatch.setattr(an_mod, "porter_stem", lambda t: calls.append(t) or real(t))
    text = TEXTS[0]
    distinct = {
        tok for tok in an_mod.TOKEN_RE.findall(text)
        if an_mod.strip_possessive(tok).lower() not in an_mod.STOPWORDS_EN
    }
    first = analyze_with_spans(text, "english")
    assert len(calls) == len(distinct) > 0
    calls.clear()
    assert analyze_with_spans(text, "english") == first
    assert Analyzer("english")(text) == [t for t, *_ in first]
    assert calls == []


def test_english_positions_gap_at_stopwords():
    spans = analyze_with_spans("the dog and the cat", "english")
    # positions 0('the') 1(dog) 2(and) 3('the') 4(cat): gaps survive
    assert [(t, p) for t, p, *_ in spans] == [("dog", 1), ("cat", 4)]


def test_trigram_shingle_spans():
    text = "alpha beta gamma"
    spans = analyze_with_spans(text, "trigram")
    d = {t: (p, s, e) for t, p, s, e in spans}
    assert d["alpha beta"] == (0, 0, len("alpha beta"))
    assert d["beta gamma"] == (1, 6, len(text))
    assert d["alpha beta gamma"] == (0, 0, len(text))


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path_factory.mktemp("tvidx") / "idx")
    build_index(
        ray.data.from_arrow(rich_pages_table(60, dup_every=0)),
        root,
        fingerprint="tv",
        num_parts=4,
        chain="simple",
        field="body",
        extra_chains=["trigram"],
    )
    return root


def _req(port, path, body=None, **params):
    url = f"http://127.0.0.1:{port}{path}"
    if params:
        url += "?" + urllib.parse.urlencode(params)
    data = None if body is None else json.dumps(body).encode()
    try:
        with urllib.request.urlopen(url, data=data) as r:
            return r.status, json.loads(r.read())
    except urllib.error.HTTPError as e:
        return e.code, json.loads(e.read())


def test_termvectors_http(built, ray_session):
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.serve_http import SearchServer

    reader = IndexReader(built)
    an = Analyzer("simple")
    body_text = reader.fetch_docs([7], ["body"])["body"][0].as_py()
    toks = an(body_text)
    srv = SearchServer(built, backend="local").start()
    try:
        code, out = _req(srv.port, "/_termvectors", id=7,
                         term_statistics=1)
        assert code == 200 and out["found"] and out["_id"] == 7
        tv = out["term_vectors"]["body"]
        terms = tv["terms"]
        # every analyzed term present with its exact in-doc frequency
        assert set(terms) == set(toks)
        for t in set(toks):
            e = terms[t]
            assert e["term_freq"] == toks.count(t)
            assert e["doc_freq"] == reader.term_df(t) >= 1
            assert e["ttf"] >= e["term_freq"]
            # token positions index the analyzed stream; offsets
            # point at the surface form in the lowered text
            for tok in e["tokens"]:
                lo, hi = tok["start_offset"], tok["end_offset"]
                assert body_text.lower()[lo:hi] == t
                assert toks[tok["position"]] == t
        fs = tv["field_statistics"]
        assert fs["doc_count"] == reader.n_docs
        assert fs["sum_ttf"] == int(reader.doclens.sum())
        _, dfs = reader.term_dictionary()
        assert fs["sum_doc_freq"] == int(dfs.sum())

        # filter: top-2 terms by tf, and min_doc_freq screens rares
        code, out = _req(srv.port, "/_termvectors", id=7, max_num_terms=2)
        got = out["term_vectors"]["body"]["terms"]
        assert len(got) == 2
        top_tf = max(toks.count(t) for t in set(toks))
        assert max(e["term_freq"] for e in got.values()) == top_tf

        # flags off: lean response
        code, out = _req(srv.port, "/_termvectors", id=7, positions=0,
                         offsets=0, field_statistics=0)
        tv = out["term_vectors"]["body"]
        assert "field_statistics" not in tv
        first = next(iter(tv["terms"].values()))
        assert "tokens" not in first and "doc_freq" not in first

        # artificial document (POST {"doc": ...}); stats still real
        code, out = _req(srv.port, "/_termvectors", body={
            "doc": {"body": "node pools and node quota"},
            "term_statistics": True,
        })
        assert code == 200 and "_id" not in out
        terms = out["term_vectors"]["body"]["terms"]
        assert terms["node"]["term_freq"] == 2
        assert terms["node"]["doc_freq"] == reader.term_df("node")
        assert [t["position"] for t in terms["node"]["tokens"]] == [0, 3]

        # subfield spelling: body.trigram re-analyzes with the extra
        # chain and reports that chain's statistics
        code, out = _req(srv.port, "/_termvectors", body={
            "id": 7, "fields": ["body.trigram"], "term_statistics": True,
        })
        assert code == 200
        tvt = out["term_vectors"]["body.trigram"]
        tri = Analyzer("trigram")(body_text)
        assert set(tvt["terms"]) == set(tri)
        rt = IndexReader(built, chain="trigram")
        some_shingle = next(t for t in tri if " " in t)
        assert tvt["terms"][some_shingle]["doc_freq"] == rt.term_df(
            some_shingle
        )

        # two fields in one call
        code, out = _req(srv.port, "/_termvectors", id=7,
                         fields="body,title")
        assert set(out["term_vectors"]) == {"body", "title"}

        # errors: missing doc, both/neither of id+doc
        code, out = _req(srv.port, "/_termvectors", id=10_000)
        assert code == 200 and out["found"] is False
        code, _ = _req(srv.port, "/_termvectors")
        assert code == 400
        code, _ = _req(srv.port, "/_termvectors", body={
            "id": 1, "doc": {"body": "x"}})
        assert code == 400
        code, _ = _req(srv.port, "/_termvectors", body={"doc": "scalar"})
        assert code == 400
    finally:
        srv.stop()


def test_cli_termvectors(built, ray_session, capsys):
    from docs_indexer_ray import cli

    rc = cli.main(["termvectors", "--index", built, "--doc", "7",
                   "--max-terms", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert lines[0].startswith("doc 7 field 'body'")
    assert len(lines) == 4  # header + 3 terms
    assert all("df=" in ln and "ttf=" in ln for ln in lines[1:])
    rc = cli.main(["termvectors", "--index", built, "--doc", "99999"])
    assert rc == 2
