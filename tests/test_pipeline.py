"""End-to-end pipeline tests: build → segments → query conformance.

Covers SURVEY §5's rebuild test plan: query-conformance oracle
(rank-identical (doc_id, score) top-k vs an independent in-memory
BM25), parallelism-invariance of doc ids, dedup determinism, salted
heavy terms, resume-from-checkpoint, and the lifecycle state machine
(CURRENT swap / short-circuit / gc) mirroring the reference
(`/root/reference/hugo.py:378-385,424-427,464-483`).
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow.dataset as pads
import pytest

from docs_indexer_ray.functions.analyzer import Analyzer
from docs_indexer_ray.index import manifest as mf
from docs_indexer_ray.index.build import build_index
from docs_indexer_ray.query.bm25 import score_topk, wand_topk
from docs_indexer_ray.query.oracle import MemoryBM25
from docs_indexer_ray.query.reader import IndexReader
from docs_indexer_ray.synth import rich_pages_table

QUERIES = [
    "node pools",
    "quota namespace limit",
    "helm upgrade changelog",
    "worker nodes configuration",
    "stub page redirects",
    "release rollout",
    "page",
    "nonexistentterm",
]


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data

    out = str(tmp_path_factory.mktemp("idx"))
    pages = ray.data.from_arrow(rich_pages_table(80))
    res = build_index(
        pages, out, fingerprint="t1", heavy_df_ratio=0.2, salt_heavy=True
    )
    reader = IndexReader(out)
    from docs_indexer_ray.stages.extract import synthesize_text

    docs = pads.dataset(
        os.path.join(res.index_dir, "docs"), partitioning="hive"
    ).to_table(columns=["doc_id", "url", "title", "body", "uri", "breadcrumb"])
    # the store doesn't persist the derivable catch-all — re-derive it
    docs = synthesize_text(docs).select(["doc_id", "text", "url", "title", "body"])
    mem = MemoryBM25()
    for d, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        mem.add(d, t)
    return out, res, reader, docs, mem


def test_docs_dense_ids_sorted_by_url(built):
    _, res, reader, docs, _ = built
    ids = np.sort(np.asarray(docs["doc_id"]))
    assert ids.tolist() == list(range(res["n_docs"]))
    order = np.argsort(np.asarray(docs["doc_id"]))
    urls = np.asarray(docs["url"].to_pylist(), dtype=object)[order]
    assert list(urls) == sorted(urls)


def test_dedup_kept_latest(built):
    # every 9th rich page has a newer duplicate whose body ends 'Revised.'
    _, _, _, docs, _ = built
    by_url = dict(zip(docs["url"].to_pylist(), docs["body"].to_pylist()))
    revised = [b for b in by_url.values() if b.rstrip().endswith("Revised.")]
    assert len(revised) == 9  # ceil(80/9)
    assert len(by_url) == 80


def test_stats_match_oracle(built):
    _, res, reader, _, mem = built
    assert reader.n_docs == mem.n_docs
    assert reader.avgdl == pytest.approx(mem.avgdl, rel=1e-12)


def test_topk_rank_identical_to_oracle(built):
    _, _, reader, _, mem = built
    an = Analyzer("english")
    for q in QUERIES:
        got = score_topk(reader, an(q), k=10)
        want = mem.search(q, k=10)
        assert [d for d, _ in got] == [d for d, _ in want], q
        for (d1, s1), (d2, s2) in zip(got, want):
            assert s1 == pytest.approx(s2, rel=1e-12), (q, d1)


def test_wand_equals_exact(built):
    _, _, reader, _, _ = built
    an = Analyzer("english")
    for q in QUERIES:
        terms = an(q)
        for k in (1, 3, 10, 100):
            exact = score_topk(reader, terms, k=k)
            wand = wand_topk(reader, terms, k=k)
            assert [(d, round(s, 10)) for d, s in exact] == [
                (d, round(s, 10)) for d, s in wand
            ], (q, k)


def test_heavy_terms_salted_and_stitched(built):
    _, res, reader, _, mem = built
    assert res["heavy_terms"], "rich corpus must trigger salting"
    for term in res["heavy_terms"][:5]:
        tp = reader.postings(term)
        ids, tfs = tp.decode_all()
        want = mem.postings[term]
        assert ids.tolist() == sorted(want)
        assert [int(t) for t in tfs] == [want[d] for d in sorted(want)]
        assert tp.df == len(want)


def test_postings_roundtrip_all_terms(built):
    _, _, reader, _, mem = built
    for term, want in list(mem.postings.items())[::7]:
        tp = reader.postings(term)
        assert tp is not None, term
        ids, tfs = tp.decode_all()
        assert ids.tolist() == sorted(want), term
        assert list(np.sort(ids)) == list(ids)  # strictly sorted
        assert tp.df == len(want)


def test_match_all_and_fetch_docs(built):
    _, res, reader, _, _ = built
    assert reader.match_all_count() == res["n_docs"]
    t = reader.fetch_docs([0, 5, 7], columns=["doc_id", "url", "title"])
    assert sorted(t["doc_id"].to_pylist()) == [0, 5, 7]


def test_parallelism_invariance(ray_session, tmp_path):
    """Same input at different parallelism → identical doc ids + top-k."""
    import ray.data

    results = []
    for j, parts in enumerate((3, 13)):
        out = str(tmp_path / f"p{parts}")
        pages = ray.data.from_arrow(rich_pages_table(40)).repartition(parts)
        res = build_index(
            pages, out, fingerprint=f"x{j}", num_parts=5 + j * 7, salt_heavy=True,
            heavy_df_ratio=0.2,
        )
        reader = IndexReader(out)
        docs = pads.dataset(
            os.path.join(res.index_dir, "docs"), partitioning="hive"
        ).to_table(columns=["doc_id", "url"])
        mapping = sorted(zip(docs["url"].to_pylist(), docs["doc_id"].to_pylist()))
        an = Analyzer("english")
        top = {q: score_topk(reader, an(q), 10) for q in QUERIES}
        results.append((mapping, top))
    (m1, t1), (m2, t2) = results
    assert m1 == m2
    for q in QUERIES:
        assert [(d, round(s, 9)) for d, s in t1[q]] == [
            (d, round(s, 9)) for d, s in t2[q]
        ], q


def test_resume_skips_existing_segments(ray_session, tmp_path):
    import ray.data

    out = str(tmp_path / "r")
    pages = ray.data.from_arrow(rich_pages_table(30))
    res1 = build_index(pages, out, fingerprint="r1", salt_heavy=False)
    assert not any(p["resumed"] for p in res1["partitions"])

    # delete CURRENT (not the data) → rerun resumes every partition
    docs_files = sorted(
        os.path.join(dp, f)
        for dp, _, fs in os.walk(os.path.join(res1.index_dir, "docs"))
        for f in fs
    )
    mtimes_before = [os.path.getmtime(f) for f in docs_files]
    os.remove(os.path.join(out, "CURRENT"))
    res2 = build_index(pages, out, fingerprint="r1", salt_heavy=False)
    assert all(p["resumed"] for p in res2["partitions"])
    assert res2["n_docs"] == res1["n_docs"]
    # the extraction phase was NOT re-run: docs store untouched
    assert [os.path.getmtime(f) for f in docs_files] == mtimes_before

    # a killed run: remove half the segment files → only those rebuild
    seg_dir = os.path.join(res2.index_dir, "segments")
    segs = sorted(f for f in os.listdir(seg_dir) if f.startswith("seg-"))
    for f in segs[: len(segs) // 2]:
        os.remove(os.path.join(seg_dir, f))
        os.remove(os.path.join(seg_dir, f.replace("seg-", "dl-").replace(".postings", ".parquet")))
    os.remove(os.path.join(out, "CURRENT"))
    res3 = build_index(pages, out, fingerprint="r1", salt_heavy=False)
    resumed = [p for p in res3["partitions"] if p["resumed"]]
    rebuilt = [p for p in res3["partitions"] if not p["resumed"]]
    assert resumed and rebuilt
    reader = IndexReader(out)
    an = Analyzer("english")
    assert score_topk(reader, an("node pools"), 5)


def test_resume_with_changed_num_parts_rebuilds_clean(ray_session, tmp_path):
    """Cross-config resume regression: an interrupted build at one
    cluster size (num_parts is derived from CPUs) must NOT be resumed
    partition-by-partition at another — stale old-scheme segment files
    would be skipped-over AND left behind for the reader's listdir,
    inflating some dfs and dropping other docs entirely.  The phase
    config guard wipes the mismatched partial instead."""
    import ray.data

    out = str(tmp_path / "np")
    pages = ray.data.from_arrow(rich_pages_table(40))

    # "interrupted" 16-part run: completes segments, never publishes
    res1 = build_index(
        pages, out, fingerprint="n1", num_parts=16, salt_heavy=False, publish=False
    )
    seg_dir = os.path.join(res1.index_dir, "segments")
    n_seg_16 = len([f for f in os.listdir(seg_dir) if f.startswith("seg-")])

    # retry on a smaller cluster → 8 partitions, same fingerprint/bdir
    res2 = build_index(
        pages, out, fingerprint="n1", num_parts=8, salt_heavy=False
    )
    assert not any(p["resumed"] for p in res2["partitions"])  # wiped, not mixed
    segs = [f for f in os.listdir(seg_dir) if f.startswith("seg-")]
    assert len(segs) <= 8 < n_seg_16  # no stale 16-scheme files remain

    # ground truth: a fresh 8-part build elsewhere must agree exactly
    ref = build_index(
        pages, str(tmp_path / "ref"), fingerprint="n1", num_parts=8, salt_heavy=False
    )
    r_mixed, r_ref = IndexReader(out), IndexReader(str(tmp_path / "ref"))
    t1 = r_mixed.term_dictionary()
    t2 = r_ref.term_dictionary()
    assert t1[0].tolist() == t2[0].tolist()
    assert t1[1].tolist() == t2[1].tolist()
    assert res2["n_docs_with_terms"] == ref["n_docs_with_terms"]
    assert res2["total_tokens"] == ref["total_tokens"]


def test_lifecycle_short_circuit_and_gc(ray_session, tmp_path):
    import ray.data

    out = str(tmp_path / "lc")
    pages = ray.data.from_arrow(rich_pages_table(20))
    res1 = build_index(pages, out, fingerprint="v1")
    # throughput + per-partition lineage metrics in the manifest
    tm = res1["timings_s"]
    assert tm["docs_per_sec"] > 0 and tm["total"] >= tm["index"]
    assert all(
        {"rpart", "n_terms", "bytes", "resumed", "wall_s"} <= set(p)
        for p in res1["partitions"]
    )
    # up-to-date short-circuit (check_index semantics, hugo.py:424-427)
    res2 = build_index(pages, out, fingerprint="v1")
    assert res2.get("resumed_current")

    res3 = build_index(pages, out, fingerprint="v2")
    assert mf.current_build(out).endswith("docs-v2")
    removed = mf.gc(out)
    assert removed == ["docs-v1"]
    assert os.path.isdir(res3.index_dir)


def test_snapshot_restore_lifecycle(ray_session, tmp_path):
    """snapshot → wipe → restore → identical queries; corrupt
    snapshots are refused; double-restore is refused; hardlinks make
    same-filesystem snapshots metadata-cheap."""
    import shutil

    import ray.data

    from docs_indexer_ray.index import manifest as mf
    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.index.snapshot import (
        list_snapshots,
        restore_index,
        snapshot_index,
    )
    from docs_indexer_ray.query.bm25 import wand_topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path / "root")
    build_index(
        ray.data.from_arrow(rich_pages_table(60, dup_every=0)),
        root,
        fingerprint="s1",
        num_parts=4,
        chain="simple",
        field="body",
    )
    cur = mf.current_build(root)
    want = wand_topk(IndexReader(cur), ["node", "pools"], k=10)
    want_count = IndexReader(cur).match_all_count()

    snapdir = str(tmp_path / "snaps")
    snap = snapshot_index(root, snapdir, name="nightly")
    snaps = list_snapshots(snapdir)
    assert len(snaps) == 1
    assert snaps[0]["name"] == "nightly"
    assert snaps[0]["build"] == os.path.basename(cur)
    assert snaps[0]["n_files"] > 3

    shutil.rmtree(root)  # the disaster
    restored = restore_index(snap, root)
    r = IndexReader(mf.current_build(root))
    assert mf.current_build(root) == restored
    assert wand_topk(r, ["node", "pools"], k=10) == want
    assert r.match_all_count() == want_count

    # restore refuses to clobber an existing build
    with pytest.raises(FileExistsError):
        restore_index(snap, root)

    # corruption (size mismatch) is detected before publish
    shutil.rmtree(root)
    seg_files = [
        os.path.join(dp, f)
        for dp, _, fs in os.walk(snap)
        for f in fs
        if f != "snapshot.json"
    ]
    victim = sorted(seg_files)[0]
    os.remove(victim)  # break the hardlink before truncating
    with open(victim, "wb") as f:
        f.write(b"x")
    with pytest.raises(IOError):
        restore_index(snap, root)


def test_corpus_export_shards_resume_and_determinism(ray_session, tmp_path):
    """write_corpus_shards: deterministic shard contents across
    parallelism (manifest sha256 identical), atomic files, and resume
    that rewrites ONLY the missing shard."""
    import os
    import time

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data

    from docs_indexer_ray.sinks import read_manifest, write_corpus_shards

    t = pa.table(
        {
            "doc_id": pa.array(np.arange(200, dtype=np.int64)),
            "text": pa.array([f"doc {i} body words" for i in range(200)]),
        }
    )
    out1 = str(tmp_path / "exp1")
    m1 = write_corpus_shards(ray.data.from_arrow(t).repartition(7), out1, num_shards=5)
    assert set(m1["shards"]) == {"0", "1", "2", "3", "4"}
    assert sum(v["n_rows"] for v in m1["shards"].values()) == 200
    # every shard file readable, rows sorted by doc_id
    for v in m1["shards"].values():
        tt = pq.read_table(os.path.join(out1, v["file"]))
        ids = tt["doc_id"].to_pylist()
        assert ids == sorted(ids)

    # parallelism invariance: different partitioning -> same digests
    out2 = str(tmp_path / "exp2")
    m2 = write_corpus_shards(ray.data.from_arrow(t).repartition(2), out2, num_shards=5)
    assert {k: v["sha256"] for k, v in m1["shards"].items()} == {
        k: v["sha256"] for k, v in m2["shards"].items()
    }

    # resume: delete one shard, re-export -> only that file rewritten
    victim = m1["shards"]["3"]["file"]
    os.remove(os.path.join(out1, victim))
    mtimes = {
        v["file"]: os.path.getmtime(os.path.join(out1, v["file"]))
        for k, v in m1["shards"].items()
        if k != "3"
    }
    time.sleep(0.05)
    m3 = write_corpus_shards(ray.data.from_arrow(t).repartition(7), out1, num_shards=5)
    assert m3["shards"]["3"]["sha256"] == m1["shards"]["3"]["sha256"]
    for f, old in mtimes.items():
        assert os.path.getmtime(os.path.join(out1, f)) == old  # untouched
    # manifest on disk matches the returned one
    assert read_manifest(out1) == m3


def test_corpus_export_resume_partitioning_guard(ray_session, tmp_path):
    """A resume with a different num_shards (or id_col) must FAIL —
    the old hash%old_n files do not cover the new hash%new_n space,
    so skipping 'done' shards would silently drop rows."""
    import pyarrow as pa
    import ray.data

    from docs_indexer_ray.sinks import write_corpus_shards

    t = pa.table({"doc_id": pa.array(range(100), pa.int64()),
                  "v": pa.array([f"x{i}" for i in range(100)], pa.string())})
    out = str(tmp_path / "shards")
    write_corpus_shards(ray.data.from_arrow(t), out, num_shards=4)
    with pytest.raises(ValueError, match="num_shards mismatch"):
        write_corpus_shards(ray.data.from_arrow(t), out, num_shards=8)
    with pytest.raises(ValueError, match="id_col mismatch"):
        write_corpus_shards(ray.data.from_arrow(t), out, num_shards=4, id_col="v")
    # same partitioning resumes fine
    m = write_corpus_shards(ray.data.from_arrow(t), out, num_shards=4)
    assert sum(v["n_rows"] for v in m["shards"].values()) == 100


def test_snapshot_ignores_stale_tmp(ray_session, tmp_path, built_pipeline=None):
    """A crashed prior snapshot leaves <name>.tmp behind; the retry
    must start clean, not publish the leftovers alongside the new
    build's files."""
    import os

    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.index.snapshot import snapshot_index
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path / "snapidx")
    build_index(ray.data.from_arrow(rich_pages_table(20, dup_every=0)),
                root, fingerprint="sp", num_parts=2, chain="simple",
                field="body")
    snaps = str(tmp_path / "snaps")
    stale = os.path.join(snaps, "weekly.tmp")
    os.makedirs(os.path.join(stale, "ghost"))
    with open(os.path.join(stale, "ghost", "leftover.bin"), "wb") as f:
        f.write(b"stale build debris")
    snap = snapshot_index(root, snaps, name="weekly")
    assert not os.path.exists(os.path.join(snap, "ghost"))
    assert os.path.exists(os.path.join(snap, "MANIFEST.json")) or any(
        x for x in os.listdir(snap)
    )
