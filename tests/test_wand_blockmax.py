"""Block-max WAND must equal exact TAAT when posting lists span many
blocks — regression for the BMW skip bound (advancing past the pivot
set's minimum block boundary, never an iterator's own).

``block_size=8`` over a 300-doc corpus forces multi-block posting
lists (df ≈ docs for the template vocabulary), heavy score ties, and
real block skips at every k.
"""

from __future__ import annotations

import pytest

from docs_indexer_ray.functions.analyzer import Analyzer
from docs_indexer_ray.index.build import build_index
from docs_indexer_ray.query.bm25 import score_topk, wand_topk
from docs_indexer_ray.query.reader import IndexReader
from docs_indexer_ray.synth import rich_pages_table

QUERIES = [
    "node pools",
    "quota namespace limit cpu ram",
    "helm upgrade changelog rollout",
    "worker nodes immutable",
    "page paragraphs text",
    "stub redirects",
]


@pytest.fixture(scope="module")
def small_block_index(ray_session, tmp_path_factory):
    import ray.data

    out = str(tmp_path_factory.mktemp("bmw"))
    pages = ray.data.from_arrow(rich_pages_table(300, dup_every=0))
    build_index(
        pages,
        out,
        fingerprint="bmw",
        block_size=8,
        salt_heavy=True,
        heavy_df_ratio=0.15,
    )
    return IndexReader(out)


def test_multiblock_wand_equals_exact(small_block_index):
    reader = small_block_index
    an = Analyzer("english")
    assert reader.n_docs == 300
    for q in QUERIES:
        terms = an(q)
        for k in (1, 2, 5, 10, 50, 200):
            exact = score_topk(reader, terms, k=k)
            wand = wand_topk(reader, terms, k=k)
            assert [(d, round(s, 10)) for d, s in exact] == [
                (d, round(s, 10)) for d, s in wand
            ], (q, k)


def test_multiblock_posting_lists_actually_multiblock(small_block_index):
    tp = small_block_index.postings("page")
    assert tp is not None and tp.n_blocks > 3


# ---- positions build + phrase matching -----------------------------------


def test_match_phrase_vs_bruteforce(ray_session, tmp_path):
    import re

    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.phrase import match_phrase, phrase_topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table

    pages = rich_pages_table(50, dup_every=0)
    build_index(
        ray.data.from_arrow(pages),
        str(tmp_path / "pidx"),
        fingerprint="p",
        num_parts=8,
        salt_heavy=True,
        heavy_df_ratio=0.2,
        n_salt_runs=4,
        chain="simple",
        field="body",
        store_positions=True,
    )
    reader = IndexReader(str(tmp_path / "pidx"))

    # brute force over the stored docs
    import pyarrow.dataset as pads
    import os

    from docs_indexer_ray.index import manifest as mf

    docs = pads.dataset(
        os.path.join(mf.current_build(str(tmp_path / "pidx")), "docs"),
        partitioning="hive",
    ).to_table(columns=["doc_id", "body"])
    tok = re.compile(r"[a-z0-9]+")

    def brute(phrase):
        want = []
        for did, body in zip(docs["doc_id"].to_pylist(), docs["body"].to_pylist()):
            toks = tok.findall((body or "").lower())
            n = sum(
                1
                for i in range(len(toks) - len(phrase) + 1)
                if toks[i : i + len(phrase)] == phrase
            )
            if n:
                want.append((int(did), n))
        return sorted(want)

    for phrase in (["node", "pools"], ["per", "namespace"], ["the", "changelog"]):
        assert match_phrase(reader, phrase) == brute(phrase), phrase

    # scored variant: deterministic, ranks by BM25 pseudo-term recipe
    hits = phrase_topk(reader, ["node", "pools"], k=5)
    assert hits == sorted(hits, key=lambda h: (-h[1], h[0]))
    assert {d for d, _ in hits} <= {d for d, _ in brute(["node", "pools"])}

    # sloppy phrase: slop=0 ≡ exact; slop=k ≡ ordered-chain brute force
    from docs_indexer_ray.query.phrase import match_phrase_slop

    def brute_slop(phrase, slop):
        want = []
        for did, body in zip(docs["doc_id"].to_pylist(), docs["body"].to_pylist()):
            toks = tok.findall((body or "").lower())
            pos = {t: [i for i, x in enumerate(toks) if x == t] for t in phrase}
            n = 0
            for p1 in pos[phrase[0]]:
                cur, ok = p1, True
                for t in phrase[1:]:
                    nxt = [p for p in pos[t] if p > cur]
                    if not nxt:
                        ok = False
                        break
                    cur = nxt[0]
                if ok and cur - p1 - (len(phrase) - 1) <= slop:
                    n += 1
            if n:
                want.append((int(did), n))
        return sorted(want)

    for phrase in (["node", "pools"], ["per", "namespace"], ["the", "node", "pools"]):
        assert match_phrase_slop(reader, phrase, slop=0) == match_phrase(
            reader, phrase
        ), phrase
        for slop in (1, 2, 5):
            assert match_phrase_slop(reader, phrase, slop) == brute_slop(
                phrase, slop
            ), (phrase, slop)
    # widening slop can only add matches
    n0 = len(match_phrase_slop(reader, ["node", "pools"], 0))
    n5 = len(match_phrase_slop(reader, ["node", "pools"], 5))
    assert n5 >= n0
    # single term degenerates to the postings tf
    one = match_phrase_slop(reader, ["node"], 3)
    assert one and all(f >= 1 for _, f in one)

    # an index built WITHOUT positions refuses phrase queries loudly
    build_index(
        ray.data.from_arrow(pages),
        str(tmp_path / "npidx"),
        fingerprint="np",
        num_parts=8,
        salt_heavy=False,
        chain="simple",
        field="body",
    )
    import pytest as _pytest

    with _pytest.raises(ValueError, match="positions"):
        match_phrase(IndexReader(str(tmp_path / "npidx")), ["node", "pools"])


def test_span_near_vs_bruteforce(ray_session, tmp_path):
    import itertools
    import os
    import re

    import pyarrow.dataset as pads
    import ray.data

    from docs_indexer_ray.index import manifest as mf
    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.phrase import span_near
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table

    pages = rich_pages_table(50, dup_every=0)
    build_index(
        ray.data.from_arrow(pages),
        str(tmp_path / "snidx"),
        fingerprint="sn",
        num_parts=8,
        chain="simple",
        field="body",
        store_positions=True,
    )
    reader = IndexReader(str(tmp_path / "snidx"))
    docs = pads.dataset(
        os.path.join(mf.current_build(str(tmp_path / "snidx")), "docs"),
        partitioning="hive",
    ).to_table(columns=["doc_id", "body"])
    tok = re.compile(r"[a-z0-9]+")

    def brute(terms, slop):
        # minimal window over all one-position-per-term combos
        want = []
        for did, body in zip(docs["doc_id"].to_pylist(), docs["body"].to_pylist()):
            toks = tok.findall((body or "").lower())
            pos = {t: [i for i, x in enumerate(toks) if x == t] for t in terms}
            if any(not pos[t] for t in terms):
                continue
            best = min(
                max(c) - min(c) + 1
                for c in itertools.product(*(pos[t] for t in terms))
            )
            if best - len(terms) <= slop:
                want.append((int(did), best))
        return sorted(want)

    for terms in (["node", "pools"], ["node", "pools", "quota"], ["per", "the"]):
        for slop in (0, 1, 3, 8):
            assert span_near(reader, terms, slop) == brute(terms, slop), (terms, slop)

    # unordered: reversed term order gives the identical result
    assert span_near(reader, ["pools", "node"], 2) == span_near(
        reader, ["node", "pools"], 2
    )
    # widening slop can only add docs
    assert len(span_near(reader, ["node", "quota"], 8)) >= len(
        span_near(reader, ["node", "quota"], 0)
    )
    # duplicate query terms collapse to the distinct set
    assert span_near(reader, ["node", "node", "pools"], 2) == span_near(
        reader, ["node", "pools"], 2
    )
    # missing term -> no matches
    assert span_near(reader, ["node", "zzznotaterm"], 50) == []


def test_vectorized_walks_equal_scalar_reference():
    """The segmented-key vectorized phrase/slop kernels (which replaced
    a ~5 s-p50 per-doc Python loop at 500k docs) against the scalar
    per-doc walks they replaced, over randomized posting shapes."""
    import random

    import numpy as np

    from docs_indexer_ray.query.phrase import _phrase_walk, _slop_walk

    def scalar_phrase(decoded):
        common = decoded[0][0]
        for ids, _, _ in decoded[1:]:
            common = np.intersect1d(common, ids, assume_unique=True)
        out = []
        for doc in common:
            cur = None
            for i, (ids, flat, offs) in enumerate(decoded):
                j = int(np.searchsorted(ids, doc))
                pos = flat[offs[j]:offs[j + 1]].astype(np.int64) - i
                cur = pos if cur is None else np.intersect1d(
                    cur, pos, assume_unique=True
                )
                if len(cur) == 0:
                    break
            if cur is not None and len(cur):
                out.append((int(doc), len(cur)))
        return out

    def scalar_slop(decoded, m, slop):
        common = decoded[0][0]
        for ids, _, _ in decoded[1:]:
            common = np.intersect1d(common, ids, assume_unique=True)
        out = []
        for doc in common:
            ids0, flat0, offs0 = decoded[0]
            j0 = int(np.searchsorted(ids0, doc))
            starts = flat0[offs0[j0]:offs0[j0 + 1]].astype(np.int64)
            cur = starts
            ok = np.ones(len(starts), bool)
            for ids, flat, offs in decoded[1:]:
                j = int(np.searchsorted(ids, doc))
                pl = flat[offs[j]:offs[j + 1]].astype(np.int64)
                idx = np.searchsorted(pl, cur + 1)
                ok &= idx < len(pl)
                cur = pl[np.minimum(idx, len(pl) - 1)]
            f = int((ok & (cur - starts - (m - 1) <= slop)).sum())
            if f:
                out.append((int(doc), f))
        return out

    rng = random.Random(7)
    for trial in range(150):
        m = rng.randint(1, 4)
        n_docs = rng.randint(1, 30)
        decoded = []
        for _ in range(m):
            docs = sorted(rng.sample(range(n_docs), rng.randint(1, n_docs)))
            flat, offs = [], [0]
            for _d in docs:
                ps = sorted(rng.sample(range(0, 15), rng.randint(1, 5)))
                flat += ps
                offs.append(len(flat))
            decoded.append(
                (
                    np.array(docs, np.uint64),
                    np.array(flat, np.uint64),
                    np.array(offs, np.int64),
                )
            )
        assert _phrase_walk(decoded) == scalar_phrase(decoded), trial
        slop = rng.randint(0, 4)
        assert _slop_walk(decoded, m, slop) == scalar_slop(decoded, m, slop), trial


def test_span_first_vs_bruteforce(ray_session, tmp_path):
    import os
    import re

    import pyarrow.dataset as pads
    import ray.data

    from docs_indexer_ray.index import manifest as mf
    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.phrase import span_first
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table

    pages = rich_pages_table(50, dup_every=0)
    root = str(tmp_path / "sfidx")
    build_index(
        ray.data.from_arrow(pages), root, fingerprint="sf",
        num_parts=8, chain="simple", field="body", store_positions=True,
    )
    reader = IndexReader(root)
    docs = pads.dataset(
        os.path.join(mf.current_build(root), "docs"), partitioning="hive"
    ).to_table(columns=["doc_id", "body"])
    tok = re.compile(r"[a-z0-9]+")

    def brute(term, end):
        want = []
        for did, body in zip(docs["doc_id"].to_pylist(), docs["body"].to_pylist()):
            c = sum(
                1 for i, x in enumerate(tok.findall((body or "").lower()))
                if x == term and i < end
            )
            if c:
                want.append((int(did), c))
        return sorted(want)

    for term in ("node", "the", "quota", "zzzmissing"):
        for end in (1, 3, 10, 1000):
            assert sorted(span_first(reader, term, end)) == brute(term, end), (
                term, end
            )
    assert span_first(reader, "node", 0) == []


def test_wand_duplicate_terms_bitexact_vs_dense(small_block_index, ray_session):
    """WAND must reproduce score_topk bit-exactly for queries with
    repeated terms (idf×multiplicity folds round differently from
    per-occurrence addition at multiplicity ≥ 3) and for mixed-order
    duplicates."""
    from docs_indexer_ray.query.bm25 import score_topk, wand_topk

    reader = small_block_index
    for q in (
        ["node", "node", "node"],
        ["node", "pools", "node", "node"],
        ["pools", "node", "pools"],
        ["node", "pools", "quota"],
    ):
        a = score_topk(reader, q, k=10)
        b = wand_topk(reader, q, k=10)
        assert a == b, q  # ids AND float-exact scores


def test_explain_duplicate_terms_sums_to_score(small_block_index, ray_session):
    """explain emits one row per query occurrence so sum(weight)
    reproduces the dense score exactly, even with repeated terms."""
    from docs_indexer_ray.query.bm25 import bm25_scores_dense, explain

    reader = small_block_index
    q = ["node", "node", "pools"]
    dense = bm25_scores_dense(reader, q)
    doc = int(dense.argmax())
    t = explain(reader, q, doc)
    assert abs(sum(t["weight"].to_pylist()) - float(dense[doc])) == 0.0
    assert t["term"].to_pylist().count("node") == 2


def test_score_topk_range_excludes_tombstones(ray_session, tmp_path):
    from docs_indexer_ray.index import manifest as mf
    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.index.deletes import add_deletes
    from docs_indexer_ray.query.bm25 import score_topk, score_topk_range
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table
    import ray.data

    root = str(tmp_path / "rgdel")
    build_index(ray.data.from_arrow(rich_pages_table(40, dup_every=0)),
                root, fingerprint="rd", num_parts=4, chain="simple",
                field="body")
    full = IndexReader(root)
    top = score_topk(full, ["node"], k=5)
    victim = top[0][0]
    add_deletes(mf.current_build(root), [victim])
    shard = IndexReader(root, doc_range=(0, full.n_docs))
    got = score_topk_range(shard, ["node"], k=5)
    assert victim not in {d for d, _ in got}


def test_rerank_and_rescore_drop_tombstones(ray_session, tmp_path):
    """Retrieve-then-rerank and rescore retrieve through the planner,
    so a tombstoned top hit never comes back from either."""
    from docs_indexer_ray.index.deletes import add_deletes
    from docs_indexer_ray.query.phrase import rescore_topk
    from docs_indexer_ray.query.rerank import CrossEncoderStub, rerank_topk
    import ray.data

    root = str(tmp_path / "rrdel")
    build_index(ray.data.from_arrow(rich_pages_table(40)), root,
                fingerprint="rr", num_parts=4, chain="simple", field="body",
                store_positions=True)
    terms = ["node", "pools"]
    victim = score_topk(IndexReader(root), terms, k=1)[0][0]
    add_deletes(root, [victim])
    reader = IndexReader(root)
    stub = CrossEncoderStub(fake=True)
    for hits in (
        rerank_topk(reader, terms, stub, window=20, k=20),
        rescore_topk(reader, terms, terms, window=20, k=20),
    ):
        assert hits and victim not in {d for d, _ in hits}


def test_reader_ignores_stale_tmp_segment_files(ray_session, tmp_path):
    """A crashed encode task's '<file>.parquet.tmp-<pid>' leftovers
    must not be read as segment data (truncated → reader crash;
    complete → double-counted df)."""
    import os

    import ray.data

    from docs_indexer_ray.index import manifest as mf
    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path / "tmpidx")
    build_index(ray.data.from_arrow(rich_pages_table(30, dup_every=0)),
                root, fingerprint="tm", num_parts=2, chain="simple",
                field="body")
    clean = IndexReader(root)
    want_df = clean.term_df("node")
    seg_dir = os.path.join(mf.current_build(root), "segments")
    # drop a truncated tmp beside a real dl file and a COPY of a real
    # seg file under a tmp name (the double-count case)
    with open(os.path.join(seg_dir, "dl-00000.parquet.tmp-999"), "wb") as f:
        f.write(b"truncated garbage")
    real_seg = next(x for x in sorted(os.listdir(seg_dir)) if x.startswith("seg-"))
    import shutil

    shutil.copy(os.path.join(seg_dir, real_seg),
                os.path.join(seg_dir, real_seg + ".tmp-999"))
    dirty = IndexReader(root)
    assert dirty.term_df("node") == want_df
    assert dirty.match_all_count() == clean.match_all_count()


def test_wand_range_equals_dense_range(small_block_index, tmp_path_factory):
    """wand_topk(doc_range) ≡ score_topk_range on SHARD readers —
    bit-identical floats (the exact-replay contract), every range and
    k, selective AND dense queries — so a fleet mixing WAND and TAAT
    shards still merges exactly."""
    from docs_indexer_ray.query.bm25 import score_topk_range

    root = small_block_index.index_dir
    n = small_block_index.n_docs
    ranges = [(0, n), (0, 97), (97, 201), (201, n), (150, 151), (n, n)]
    for lo, hi in ranges:
        shard = IndexReader(root, doc_range=(lo, hi))
        for q in QUERIES:
            terms = Analyzer("english")(q)
            for k in (1, 5, 20):
                dense = score_topk_range(shard, terms, k=k)
                wand = wand_topk(shard, terms, k=k, doc_range=(lo, hi))
                assert dense == wand, (q, k, lo, hi)
    # full-range doc_range ≡ the plain local wand
    for q in QUERIES:
        terms = Analyzer("english")(q)
        assert wand_topk(small_block_index, terms, k=10) == wand_topk(
            small_block_index, terms, k=10, doc_range=(0, n)
        )


def test_shard_planner_picks_wand_for_selective(ray_session, tmp_path, monkeypatch):
    """``bm25.topk`` is the one WAND/TAAT planner, on a full reader and
    on every shard of a fleet: WAND when ``Σdf · (hi − lo) / n_docs ≤
    (hi − lo) // 1024``, dense TAAT otherwise, and dense for a range
    holding a tombstone or under an ``after`` cursor.  Every plan
    returns ``score_topk``'s hits."""
    import numpy as np
    import pyarrow as pa
    import ray.data

    from docs_indexer_ray.index.deletes import add_deletes
    from docs_indexer_ray.query import bm25
    from docs_indexer_ray.query.served import ShardedQueryService, ShardQueryActor

    # 2,048 docs, a word in two of them: Σdf = 2 fits the full reader's
    # cut-off (2,048 // 1024) and each 1,024-doc shard's (1 expected)
    t = rich_pages_table(2048, dup_every=0)
    html, text = t["html"].to_pylist(), t["text"].to_pylist()
    for i in (100, 1500):
        html[i] = html[i].replace(b"</body>", b"<p>zyzzyva</p></body>")
        text[i] += "\nzyzzyva\n"
    t = t.set_column(t.schema.get_field_index("html"), "html", pa.array(html, pa.binary()))
    t = t.set_column(t.schema.get_field_index("text"), "text", pa.array(text))
    root = str(tmp_path / "plan")
    build_index(ray.data.from_arrow(t), root, fingerprint="pl", num_parts=2,
                chain="simple", field="body")

    plans = []
    wand, dense = bm25.wand_topk, bm25.score_topk_range
    monkeypatch.setattr(bm25, "wand_topk",
                        lambda *a, **kw: plans.append("wand") or wand(*a, **kw))
    monkeypatch.setattr(bm25, "score_topk_range",
                        lambda *a, **kw: plans.append("dense") or dense(*a, **kw))

    def planned(run):
        plans.clear()
        return run(), list(plans)

    def fleet(n_shards):
        # in-process shards, so their planner calls run under the spies
        svc = ShardedQueryService.in_process(IndexReader(root))
        svc._bounds = np.linspace(0, svc._bounds[-1], n_shards + 1).astype(np.int64)
        svc._groups = [[ShardQueryActor(root, int(lo), int(hi))]
                       for lo, hi in zip(svc._bounds[:-1], svc._bounds[1:])]
        return svc

    full = IndexReader(root)
    assert full.n_docs == 2048 and full.term_df("zyzzyva") == 2
    svc = fleet(2)
    for q, plan in (("zyzzyva", "wand"), ("node pools", "dense")):
        want = score_topk(full, q.split(), k=10)
        assert want
        assert planned(lambda: bm25.topk(full, q.split(), k=10)) == (want, [plan])
        assert planned(lambda: svc.topk(q, k=10)) == (want, [plan, plan])
    # an after cursor forces dense on every range
    first, second = score_topk(full, ["zyzzyva"], k=2)
    after = (first[1], first[0])
    assert planned(lambda: bm25.topk(full, ["zyzzyva"], k=5, after=after)) == (
        [second], ["dense"])
    assert planned(lambda: svc.topk("zyzzyva", k=5, after=after)) == (
        [second], ["dense", "dense"])

    # a tombstone forces dense on the range that holds it, only there
    victim = second[0]
    add_deletes(root, [victim])
    full, svc = IndexReader(root), fleet(2)
    assert score_topk(full, ["zyzzyva"], k=10) == [first]
    assert planned(lambda: bm25.topk(full, ["zyzzyva"], k=10)) == ([first], ["dense"])
    want_plans = ["dense" if lo <= victim < hi else "wand"
                  for lo, hi in zip(svc._bounds[:-1], svc._bounds[1:])]
    assert "wand" in want_plans
    assert planned(lambda: svc.topk("zyzzyva", k=10)) == ([first], want_plans)

    # the Ray fleet merges the same pages
    ray_svc = ShardedQueryService(root, n_shards=2)
    try:
        for q in ("zyzzyva", "node pools", "zyzzyva node"):
            assert ray_svc.topk(q, k=10) == score_topk(full, q.split(), k=10), q
    finally:
        ray_svc.shutdown()
