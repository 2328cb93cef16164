"""Extent-algebra `intervals` rules (round 5): all_of nesting and the
interval filter relations — unit kernels, end-to-end over a positions
index vs brute-force, fleet ≡ local, and lowering totality."""

import html as _html

import numpy as np
import pyarrow as pa
import pytest

from docs_indexer_ray.query.extents import (
    ExtAllOf,
    ExtAnyOf,
    ExtFilter,
    ExtMatch,
    ExtTerm,
)
from extents_oracle import _doc_intervals

# crafted token sequences — positions are the word index
_BODIES = [
    "alpha beta gamma delta epsilon",            # 0: a@0 b@1 g@2 d@3
    "alpha x x beta gamma",                      # 1: a@0 b@3 g@4
    "beta alpha gamma",                          # 2: b@0 a@1 g@2
    "alpha beta alpha beta gamma",               # 3: repeats
    "delta epsilon zeta",                        # 4: no alpha/beta
    "gamma x alpha x x beta",                    # 5: g@0 a@2 b@5
    "alpha gamma beta delta alpha beta",         # 6
    "x x x alpha x beta x gamma x",              # 7: a@3 b@5 g@7
]


def _pos(body):
    toks = body.split()
    return lambda t: np.array(
        [i for i, x in enumerate(toks) if x == t], np.int64
    )


def _pd(body, *terms):
    p = _pos(body)
    return {t: p(t) for t in terms}


def _ivs(rule, body, *terms):
    return [tuple(r) for r in _doc_intervals(rule, _pd(body, *terms))]


def test_term_and_ordered_match_intervals():
    assert _ivs(ExtTerm("alpha"), _BODIES[3], "alpha") == [(0, 0), (2, 2)]
    # ordered match: minimal chains, gaps = width - n_terms
    r = ExtMatch(["alpha", "beta"], ordered=True, max_gaps=-1)
    assert _ivs(r, _BODIES[0], "alpha", "beta") == [(0, 1)]
    assert _ivs(r, _BODIES[1], "alpha", "beta") == [(0, 3)]
    assert _ivs(r, _BODIES[2], "alpha", "beta") == []  # wrong order
    # max_gaps prunes the wide chain
    tight = ExtMatch(["alpha", "beta"], ordered=True, max_gaps=0)
    assert _ivs(tight, _BODIES[1], "alpha", "beta") == []
    assert _ivs(tight, _BODIES[0], "alpha", "beta") == [(0, 1)]
    # repeats: each start gets its own minimal chain
    assert _ivs(r, _BODIES[3], "alpha", "beta") == [(0, 1), (2, 3)]


def test_unordered_match_and_minimality():
    r = ExtMatch(["alpha", "beta"], ordered=False, max_gaps=-1)
    assert _ivs(r, _BODIES[2], "alpha", "beta") == [(0, 1)]
    # any_of: union pruned to minimal — (0,1) absorbs (0,3)-style spans
    a = ExtAnyOf([
        ExtMatch(["alpha", "beta"], ordered=True, max_gaps=-1),
        ExtTerm("gamma"),
    ])
    assert _ivs(a, _BODIES[0], "alpha", "beta", "gamma") == [(0, 1), (2, 2)]


def test_all_of_ordered_and_unordered():
    # ordered: one interval per sub, strictly after the previous
    r = ExtAllOf(
        [ExtMatch(["alpha", "beta"], ordered=True, max_gaps=-1),
         ExtTerm("gamma")],
        ordered=True, max_gaps=-1,
    )
    assert _ivs(r, _BODIES[0], "alpha", "beta", "gamma") == [(0, 2)]
    # gamma BEFORE the phrase → ordered all_of fails, unordered matches
    assert _ivs(r, _BODIES[5], "alpha", "beta", "gamma") == []
    u = ExtAllOf(
        [ExtMatch(["alpha", "beta"], ordered=True, max_gaps=-1),
         ExtTerm("gamma")],
        ordered=False, max_gaps=-1,
    )
    assert _ivs(u, _BODIES[5], "alpha", "beta", "gamma") == [(0, 5)]
    # ordered gap accounting: alpha@3..beta@5 then gamma@7 → one gap
    g1 = ExtAllOf(
        [ExtMatch(["alpha", "beta"], ordered=True, max_gaps=-1),
         ExtTerm("gamma")],
        ordered=True, max_gaps=1,
    )
    assert _ivs(g1, _BODIES[7], "alpha", "beta", "gamma") == [(3, 7)]
    g0 = ExtAllOf(
        [ExtMatch(["alpha", "beta"], ordered=True, max_gaps=-1),
         ExtTerm("gamma")],
        ordered=True, max_gaps=0,
    )
    assert _ivs(g0, _BODIES[7], "alpha", "beta", "gamma") == []
    # unordered gap = uncovered positions inside the window:
    # window (0,5) on body 5 covers g@0, a@2..b@5 → gaps = 1 (pos 1)
    u1 = ExtAllOf(
        [ExtMatch(["alpha", "beta"], ordered=True, max_gaps=-1),
         ExtTerm("gamma")],
        ordered=False, max_gaps=1,
    )
    assert _ivs(u1, _BODIES[5], "alpha", "beta", "gamma") == [(0, 5)]
    u0 = ExtAllOf(
        [ExtMatch(["alpha", "beta"], ordered=True, max_gaps=-1),
         ExtTerm("gamma")],
        ordered=False, max_gaps=0,
    )
    assert _ivs(u0, _BODIES[5], "alpha", "beta", "gamma") == []


def test_filter_relations():
    body = _BODIES[0]  # alpha@0 beta@1 gamma@2 delta@3 epsilon@4
    span = ExtMatch(["alpha", "gamma"], ordered=True, max_gaps=-1)  # (0,2)
    terms = ("alpha", "beta", "gamma", "delta", "epsilon")
    assert _ivs(ExtFilter(span, "containing", ExtTerm("beta")),
                body, *terms) == [(0, 2)]
    assert _ivs(ExtFilter(span, "containing", ExtTerm("delta")),
                body, *terms) == []
    assert _ivs(ExtFilter(span, "not_containing", ExtTerm("delta")),
                body, *terms) == [(0, 2)]
    wide = ExtMatch(["alpha", "epsilon"], ordered=True, max_gaps=-1)  # (0,4)
    assert _ivs(ExtFilter(ExtTerm("beta"), "contained_by", wide),
                body, *terms) == [(1, 1)]
    assert _ivs(ExtFilter(ExtTerm("beta"), "not_contained_by", span),
                body, *terms) == []
    assert _ivs(ExtFilter(span, "overlapping", ExtMatch(
        ["gamma", "delta"], ordered=True, max_gaps=-1)), body, *terms) == [(0, 2)]
    assert _ivs(ExtFilter(span, "not_overlapping", ExtMatch(
        ["gamma", "delta"], ordered=True, max_gaps=-1)), body, *terms) == []
    assert _ivs(ExtFilter(ExtTerm("alpha"), "before", ExtTerm("gamma")),
                body, *terms) == [(0, 0)]
    assert _ivs(ExtFilter(ExtTerm("gamma"), "before", ExtTerm("alpha")),
                body, *terms) == []
    assert _ivs(ExtFilter(ExtTerm("epsilon"), "after", ExtTerm("delta")),
                body, *terms) == [(4, 4)]
    assert _ivs(ExtFilter(ExtTerm("alpha"), "after", ExtTerm("delta")),
                body, *terms) == []


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import BASE_URL

    rows_url, rows_ts, rows_html, rows_text = [], [], [], []
    for i, body in enumerate(_BODIES * 4):  # 32 docs, bodies repeat
        rows_url.append(f"{BASE_URL}/ext/page-{i:04d}/")
        rows_ts.append(1735689600000000 + i * 1000000)
        rows_html.append(
            b"<html><body>" + _html.escape(body).encode() + b"</body></html>"
        )
        rows_text.append(body)
    pages = pa.table({
        "url": pa.array(rows_url, pa.string()),
        "warc_ts": pa.array(
            np.array(rows_ts, np.int64), pa.timestamp("us")
        ),
        "html": pa.array(rows_html, pa.binary()),
        "text": pa.array(rows_text, pa.string()),
        "lang": pa.array(["en"] * len(rows_url), pa.string()),
    })
    root = str(tmp_path_factory.mktemp("extidx") / "idx")
    build_index(
        ray.data.from_arrow(pages),
        root,
        fingerprint="ext",
        num_parts=3,
        chain="simple",
        field="body",
        store_positions=True,
    )
    return IndexReader(root)


def _brute(reader, rule, terms):
    """Independent per-doc recomputation from the stored bodies."""
    out = set()
    for r in reader.fetch_docs(list(range(reader.n_docs)),
                               ["doc_id", "body"]).to_pylist():
        toks = (r["body"] or "").lower().split()
        pos = {
            t: np.array([i for i, x in enumerate(toks) if x == t], np.int64)
            for t in terms
        }
        if len(_doc_intervals(rule, pos)):
            out.add(r["doc_id"])
    return out


def test_intervals_all_of_end_to_end(built, ray_session):
    """all_of + filter through the FULL query path: DSL lowering →
    _IntervalsExpr → eval; match set ≡ an independent per-doc brute
    force; fleet ≡ local."""
    import os

    from docs_indexer_ray.query.qstring import query_string_topk
    from docs_indexer_ray.query.served import ShardedQueryService

    reader = built
    cases = [
        ({"intervals": {"body": {"all_of": {"intervals": [
            {"match": {"query": "alpha beta", "ordered": True}},
            {"match": {"query": "gamma"}},
        ], "ordered": True}}}},
         ExtAllOf([ExtMatch(["alpha", "beta"], ordered=True, max_gaps=-1),
                   ExtTerm("gamma")], ordered=True, max_gaps=-1),
         ("alpha", "beta", "gamma")),
        ({"intervals": {"body": {"all_of": {"intervals": [
            {"match": {"query": "alpha beta", "ordered": True}},
            {"match": {"query": "gamma"}},
        ], "ordered": False, "max_gaps": 1}}}},
         ExtAllOf([ExtMatch(["alpha", "beta"], ordered=True, max_gaps=-1),
                   ExtTerm("gamma")], ordered=False, max_gaps=1),
         ("alpha", "beta", "gamma")),
        ({"intervals": {"body": {"match": {
            "query": "alpha gamma", "ordered": True,
            "filter": {"containing": {"match": {"query": "beta"}}}}}}},
         ExtFilter(ExtMatch(["alpha", "gamma"], ordered=True, max_gaps=-1),
                   "containing", ExtTerm("beta")),
         ("alpha", "beta", "gamma")),
        ({"intervals": {"body": {"match": {
            "query": "alpha", "filter":
            {"before": {"match": {"query": "gamma"}}}}}}},
         ExtFilter(ExtTerm("alpha"), "before", ExtTerm("gamma")),
         ("alpha", "gamma")),
        ({"intervals": {"body": {"match": {
            "query": "alpha gamma", "ordered": True, "filter":
            {"not_containing": {"match": {"query": "beta"}}}}}}},
         ExtFilter(ExtMatch(["alpha", "gamma"], ordered=True, max_gaps=-1),
                   "not_containing", ExtTerm("beta")),
         ("alpha", "beta", "gamma")),
    ]
    for dsl, rule, terms in cases:
        got = {d for d, _ in query_string_topk(reader, dsl, k=1000)}
        want = _brute(reader, rule, terms)
        assert got == want, (dsl, got ^ want)
        assert want, f"degenerate case (matches nothing): {dsl}"

    svc = ShardedQueryService(os.path.dirname(reader.index_dir),
                              n_shards=3, chain="simple")
    try:
        for dsl, _, _ in cases:
            assert svc.query_string(dsl, k=10) == query_string_topk(
                reader, dsl, k=10), dsl
    finally:
        svc.shutdown()


def test_intervals_extended_lowering_and_refusals(built):
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node
    from docs_indexer_ray.query.qstring import _IntervalsExpr

    an = Analyzer("simple")
    n = dsl_to_node({"intervals": {"body": {"all_of": {"intervals": [
        {"match": {"query": "alpha"}}, {"match": {"query": "beta"}},
    ]}}}}, an)
    assert isinstance(n, _IntervalsExpr)
    assert isinstance(n.rule, ExtAllOf) and not n.rule.ordered

    # boost carries
    n = dsl_to_node({"intervals": {"body": {"all_of": {"intervals": [
        {"match": {"query": "alpha"}}, {"match": {"query": "beta"}},
    ]}, "boost": 2.5}}}, an)
    assert n.boost == 2.5

    # stopword-analyzed sub inside all_of → a MATCH-NOTHING node (an
    # empty _Bool — NOT None, which would drop the clause from an
    # enclosing bool and widen the query; review fix, pinned
    # end-to-end in test_never_matching_intervals_do_not_widen_bools)
    from docs_indexer_ray.query.qstring import _Bool

    en = Analyzer("english")
    nv = dsl_to_node({"intervals": {"body": {"all_of": {"intervals": [
        {"match": {"query": "the"}}, {"match": {"query": "alpha"}},
    ]}}}}, en)
    assert isinstance(nv, _Bool) and not nv.must and not nv.should

    # empty-analysis POSITIVE filter → never matches; NEGATIVE → kept
    nv2 = dsl_to_node({"intervals": {"body": {"match": {
        "query": "alpha", "filter": {"containing": {"match": {
            "query": "the"}}}}}}}, en)
    assert isinstance(nv2, _Bool) and not nv2.must and not nv2.should
    kept = dsl_to_node({"intervals": {"body": {"match": {
        "query": "alpha", "filter": {"not_containing": {"match": {
            "query": "the"}}}}}}}, en)
    # stays on the extents path (constant-score), filter dropped as
    # vacuously true
    assert isinstance(kept, _IntervalsExpr)
    assert isinstance(kept.rule, ExtTerm) and kept.rule.term == "alpha"

    for bad in (
        {"intervals": {"body": {"all_of": {"intervals": []}}}},
        {"intervals": {"body": {"all_of": {}}}},
        {"intervals": {"body": {"match": {"query": "a",
                                          "filter": {"before": {}}}}}},
        {"intervals": {"body": {"match": {"query": "a",
                                          "filter": {"script": {"source": "x"}}}}}},
        {"intervals": {"body": {"match": {"query": "a",
                                          "filter": {"nonsense": {"match": {"query": "b"}}}}}}},
        {"intervals": {"body": {"match": {"query": "a", "filter": "x"}}}},
        {"intervals": {"body": {"all_of": {"intervals": [
            {"wat": {}}]}}}},
    ):
        with pytest.raises(DslError):
            dsl_to_node(bad, an)


def test_segmented_evaluator_equals_per_doc():
    """The vectorized segmented evaluator must agree with the scalar
    per-doc `_doc_intervals` oracle on every rule shape, over
    randomized corpora (seeded)."""
    import numpy as np

    from docs_indexer_ray.query.extents import _seg_eval

    rng = np.random.RandomState(11)
    vocab = ["a", "b", "c", "d"]
    rules = [
        ExtTerm("a"),
        ExtMatch(["a", "b"], ordered=True, max_gaps=-1),
        ExtMatch(["a", "b", "c"], ordered=True, max_gaps=1),
        ExtAnyOf([ExtMatch(["a", "b"], ordered=True, max_gaps=-1),
                  ExtTerm("c")]),
        ExtAllOf([ExtMatch(["a", "b"], ordered=True, max_gaps=-1),
                  ExtTerm("c")], ordered=True, max_gaps=-1),
        ExtAllOf([ExtTerm("a"), ExtTerm("b"), ExtTerm("c")],
                 ordered=True, max_gaps=2),
        ExtFilter(ExtMatch(["a", "c"], ordered=True, max_gaps=-1),
                  "containing", ExtTerm("b")),
        ExtFilter(ExtMatch(["a", "c"], ordered=True, max_gaps=-1),
                  "not_containing", ExtTerm("b")),
        ExtFilter(ExtTerm("b"), "contained_by",
                  ExtMatch(["a", "c"], ordered=True, max_gaps=-1)),
        ExtFilter(ExtTerm("b"), "not_contained_by",
                  ExtMatch(["a", "c"], ordered=True, max_gaps=-1)),
        ExtFilter(ExtMatch(["a", "b"], ordered=True, max_gaps=-1),
                  "overlapping", ExtMatch(["b", "c"], ordered=True,
                                          max_gaps=-1)),
        ExtFilter(ExtMatch(["a", "b"], ordered=True, max_gaps=-1),
                  "not_overlapping", ExtMatch(["b", "c"], ordered=True,
                                              max_gaps=-1)),
        ExtFilter(ExtTerm("a"), "before", ExtTerm("d")),
        ExtFilter(ExtTerm("d"), "after", ExtTerm("a")),
        ExtFilter(ExtAllOf([ExtTerm("a"), ExtTerm("b")], ordered=True,
                           max_gaps=-1),
                  "containing",
                  ExtAnyOf([ExtTerm("c"), ExtTerm("d")])),
        # m=2 UNORDERED combines (the merge-path kernel)
        ExtMatch(["a", "b"], ordered=False, max_gaps=-1),
        ExtMatch(["a", "b"], ordered=False, max_gaps=1),
        ExtAllOf([ExtMatch(["a", "b"], ordered=True, max_gaps=-1),
                  ExtTerm("c")], ordered=False, max_gaps=-1),
        ExtAllOf([ExtMatch(["a", "b"], ordered=True, max_gaps=-1),
                  ExtTerm("c")], ordered=False, max_gaps=2),
        ExtAllOf([ExtMatch(["a", "b"], ordered=False, max_gaps=3),
                  ExtMatch(["c", "d"], ordered=False, max_gaps=3)],
                 ordered=False, max_gaps=4),
        # m>=3 unordered (the generalized merge-path kernel)
        ExtAllOf([ExtTerm("a"), ExtTerm("b"), ExtTerm("c")],
                 ordered=False, max_gaps=-1),
        ExtAllOf([ExtMatch(["a", "b"], ordered=True, max_gaps=-1),
                  ExtTerm("c"), ExtTerm("d")],
                 ordered=False, max_gaps=3),
        ExtMatch(["a", "b", "c", "d"], ordered=False, max_gaps=2),
        ExtFilter(ExtAllOf([ExtTerm("a"), ExtTerm("b"), ExtTerm("c")],
                           ordered=False, max_gaps=4),
                  "containing", ExtTerm("d")),
        ExtFilter(ExtAllOf([ExtTerm("a"), ExtTerm("b")],
                           ordered=False, max_gaps=2),
                  "containing", ExtTerm("c")),
    ]
    # an unknown rule type is refused by the segmented evaluator
    with pytest.raises(TypeError):
        _seg_eval(object(), {})

    for trial in range(10):
        docs = [
            [vocab[i] for i in rng.randint(0, len(vocab), rng.randint(0, 14))]
            for _ in range(40)
        ]
        # per-term (rank, position) segment arrays over ALL docs
        term_ivs = {}
        for t in vocab:
            rk, ps = [], []
            for d, toks in enumerate(docs):
                for i, x in enumerate(toks):
                    if x == t:
                        rk.append(d)
                        ps.append(i)
            term_ivs[t] = (np.array(rk, np.int64), np.array(ps, np.int64))
        for rule in rules:
            rks, ss, es = _seg_eval(rule, term_ivs)
            got = {}
            for r_, s_, e_ in zip(rks.tolist(), ss.tolist(), es.tolist()):
                got.setdefault(r_, []).append((s_, e_))
            for d, toks in enumerate(docs):
                pos = {
                    t: np.array([i for i, x in enumerate(toks) if x == t],
                                np.int64)
                    for t in vocab
                }
                want = [tuple(r_) for r_ in _doc_intervals(rule, pos)]
                assert got.get(d, []) == want, (trial, rule, d, toks,
                                                got.get(d, []), want)


def test_intervals_lowering_totality_fuzz():
    """Any JSON-shaped intervals body either lowers (node or None) or
    raises DslError — no other exception class escapes (the serving
    tier's 400 contract for the round-5 extent surface)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.dsl import DslError, dsl_to_node

    an = Analyzer("simple")
    keys = st.sampled_from([
        "match", "any_of", "all_of", "filter", "intervals", "query",
        "ordered", "max_gaps", "boost", "containing", "contained_by",
        "not_containing", "not_contained_by", "overlapping",
        "not_overlapping", "before", "after", "script", "x",
    ])
    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(-3, 9),
        st.sampled_from(["alpha beta", "gamma", "", "the", "²", "a b c"]),
    )
    json_obj = st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(keys, inner, max_size=3),
        ),
        max_leaves=12,
    )

    @settings(max_examples=300, deadline=None)
    @given(json_obj)
    def probe(body):
        try:
            dsl_to_node({"intervals": {"body": body}}, an)
        except DslError:
            pass

    probe()


def test_never_matching_intervals_do_not_widen_bools(built):
    """Review fix: an all_of with an empty-analysis leg (or a positive
    filter whose filter source analyzes to nothing) must lower to a
    MATCH-NOTHING node, not None — None would drop the clause from an
    enclosing bool must and silently widen the query."""
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.query.qstring import _eval, query_string_topk
    from docs_indexer_ray.query.dsl import dsl_to_node

    en = Analyzer("english")
    reader = built
    never = {"intervals": {"body": {"all_of": {"intervals": [
        {"match": {"query": "the"}},       # stopword → empty analysis
        {"match": {"query": "alpha"}},
    ]}}}}
    node = dsl_to_node(never, en)
    assert node is not None  # NOT dropped

    # inside a bool must, the conjunction must kill every match
    bool_q = {"bool": {"must": [
        {"match": {"body": "alpha"}}, never,
    ]}}
    got = query_string_topk(reader, bool_q, k=100)
    assert got == []

    # same for a positive filter with an empty-analysis filter source
    never2 = {"intervals": {"body": {"match": {
        "query": "alpha", "filter": {"containing": {"match": {
            "query": "the"}}}}}}}
    assert dsl_to_node(never2, en) is not None
    got2 = query_string_topk(reader, {"bool": {"must": [
        {"match": {"body": "alpha"}}, never2,
    ]}}, k=100)
    assert got2 == []


def test_dataset_histogram_rejects_zero_interval(built, ray_session):
    import ray.data

    from docs_indexer_ray.query.facets import histogram

    ds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array([0, 1], pa.int64()),
        "v": pa.array([1.0, 2.0]),
    }))
    with pytest.raises(ValueError, match="> 0"):
        histogram(ds, np.array([0, 1], np.int64), "v", 0)


def test_eval_intervals_randomized_end_to_end(ray_session, tmp_path_factory):
    """Randomized rules × a random corpus, through the FULL
    `eval_intervals` path (kernel prefilter exact short-circuits,
    segmented evaluator, per-doc fallback) ≡ the scalar brute force
    over the stored bodies — this is what pins the load-bearing
    claims that the slop-walk/span-near kernels' doc-level semantics
    coincide with the extent algebra's leaf rules."""
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.extents import eval_intervals
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import BASE_URL

    rng = np.random.RandomState(23)
    vocab = ["aa", "bb", "cc", "dd"]
    bodies = [
        " ".join(vocab[i] for i in rng.randint(0, len(vocab),
                                               rng.randint(1, 16)))
        for _ in range(80)
    ]
    pages = pa.table({
        "url": pa.array([f"{BASE_URL}/rnd/p-{i:04d}/"
                         for i in range(len(bodies))], pa.string()),
        "warc_ts": pa.array(
            np.arange(len(bodies), dtype=np.int64) * 1000000
            + 1735689600000000, pa.timestamp("us")),
        "html": pa.array(
            [b"<html><body>" + b.encode() + b"</body></html>"
             for b in bodies], pa.binary()),
        "text": pa.array(bodies, pa.string()),
        "lang": pa.array(["en"] * len(bodies), pa.string()),
    })
    root = str(tmp_path_factory.mktemp("rndidx") / "idx")
    build_index(ray.data.from_arrow(pages), root, fingerprint="rnd",
                num_parts=3, chain="simple", field="body",
                store_positions=True)
    reader = IndexReader(root)

    def rand_rule(depth=0):
        kinds = ["term", "match_o", "match_u"]
        if depth < 2:
            kinds += ["any_of", "all_of_o", "all_of_u", "filter"]
        k = kinds[rng.randint(0, len(kinds))]
        if k == "term":
            return ExtTerm(vocab[rng.randint(0, len(vocab))])
        if k in ("match_o", "match_u"):
            n = rng.randint(2, 4)
            terms = list(rng.choice(vocab, size=n, replace=(k == "match_o")))
            gaps = int(rng.choice([-1, 0, 1, 3]))
            return ExtMatch([str(t) for t in terms],
                            ordered=(k == "match_o"), max_gaps=gaps)
        if k == "any_of":
            return ExtAnyOf([rand_rule(depth + 1)
                             for _ in range(rng.randint(2, 4))])
        if k in ("all_of_o", "all_of_u"):
            return ExtAllOf(
                [rand_rule(depth + 1) for _ in range(rng.randint(2, 4))],
                ordered=(k == "all_of_o"),
                max_gaps=int(rng.choice([-1, 0, 2, 5])),
            )
        rels = ["containing", "contained_by", "not_containing",
                "not_contained_by", "overlapping", "not_overlapping",
                "before", "after"]
        return ExtFilter(rand_rule(depth + 1),
                         rels[rng.randint(0, len(rels))],
                         rand_rule(depth + 1))

    n_nonempty = 0
    for trial in range(40):
        rule = rand_rule()
        got = set(eval_intervals(reader, rule).tolist())
        want = _brute(reader, rule, tuple(vocab))
        assert got == want, (trial, rule, got ^ want)
        n_nonempty += bool(want)
    assert n_nonempty >= 10  # the sample isn't degenerate
