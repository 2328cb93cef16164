"""CLI, multi-chain builds, the blog recipe, and source adapters."""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from docs_indexer_ray.index.build import build_index
from docs_indexer_ray.query.reader import IndexReader
from docs_indexer_ray.stages.extract import ExtractAssemble
from docs_indexer_ray.synth import rich_pages_table, wrap_html


# ---- multi-chain (D8) -----------------------------------------------------

@pytest.fixture(scope="module")
def multi_index(ray_session, tmp_path_factory):
    import ray.data

    out = str(tmp_path_factory.mktemp("multi"))
    pages = ray.data.from_arrow(rich_pages_table(40, dup_every=0))
    res = build_index(
        pages,
        out,
        fingerprint="mc",
        extra_chains=["trigram", "reverse"],
        salt_heavy=False,
    )
    return out, res


def test_multi_chain_build_and_read(multi_index):
    out, res = multi_index
    assert set(res["chains"]) == {"trigram", "reverse"}

    main = IndexReader(out)
    tri = IndexReader(out, chain="trigram")
    rev = IndexReader(out, chain="reverse")
    assert main.n_docs == tri.n_docs == rev.n_docs == 40

    # the trigram table holds shingles the english table doesn't
    assert tri.postings("node pools") is not None
    assert main.postings("node pools") is None
    # the reverse table holds reversed tokens
    assert rev.postings("sloop") is not None  # 'pools' reversed

    with pytest.raises(KeyError):
        IndexReader(out, chain="simple")


def test_multi_chain_suggesters(multi_index):
    out, _ = multi_index
    tri = IndexReader(out, chain="trigram")
    top = tri.prefix_terms("node ", limit=5)
    assert top and all(t.startswith("node ") for t, _ in top)

    rev = IndexReader(out, chain="reverse")
    # suffix query 'les' → terms ending in 'sel'? use real data: tokens
    # ending with 'es' → reversed prefix 'se'
    suf = rev.prefix_terms("se", limit=10)
    assert suf and all(t.startswith("se") for t, _ in suf)


# ---- blog recipe (T5) -----------------------------------------------------

def test_blog_recipe_assembly():
    body = "---\ntitle: Release notes\n---\nToday we shipped v2.\n"
    batch = pa.table(
        {
            "url": pa.array(["https://blog.test/v2/"]),
            "warc_ts": pa.array([1_700_000_000_000_000], pa.timestamp("us")),
            "html": pa.array([wrap_html(body)], pa.binary()),
            "text": pa.array([body]),
            "lang": pa.array(["en"]),
        }
    )
    out = ExtractAssemble(recipe="blog")(batch)
    row = out.to_pylist()[0]
    assert row["type"] == "post"
    assert row["breadcrumb"] == ["blog"]
    assert row["breadcrumb_1"] == "blog"
    assert row["uri"] == "https://blog.test/v2/"
    assert row["title"] == "Release notes"
    assert row["body"] == "Today we shipped v2."
    # blog catch-all: f"{title}\n\n{body}" (blog.py:91)
    assert row["text"] == "Release notes\n\nToday we shipped v2."
    # id / image_uri exist (stored keywords, mappings/blog.json) and
    # are null when the source lacks them
    assert row["id"] is None and row["image_uri"] is None

    hugo = ExtractAssemble(recipe="hugo")(batch).to_pylist()[0]
    assert hugo["type"] == "page"
    assert hugo["text"] != row["text"]
    assert "id" not in hugo and "image_uri" not in hugo

    # API payload columns pass through (blog.py:80 'id', :88
    # 'featuredImage' → image_uri)
    batch2 = batch.append_column("id", pa.array([12345], pa.int64()))
    batch2 = batch2.append_column(
        "featured_image", pa.array(["https://img.test/v2.png"])
    )
    row2 = ExtractAssemble(recipe="blog")(batch2).to_pylist()[0]
    assert row2["id"] == "12345"
    assert row2["image_uri"] == "https://img.test/v2.png"


# ---- sources --------------------------------------------------------------

def test_read_pages_pushdown(ray_session, tmp_path):
    import numpy as np

    from docs_indexer_ray.sources import read_pages

    t = rich_pages_table(30, dup_every=0)
    langs = ["en" if i % 3 else "de" for i in range(t.num_rows)]
    t = t.set_column(t.schema.get_field_index("lang"), "lang", pa.array(langs))
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)

    ds = read_pages(path, columns=["url", "lang"], lang="de")
    rows = ds.take_all()
    assert rows and all(r["lang"] == "de" for r in rows)
    assert set(rows[0]) == {"url", "lang"}

    since = np.datetime64("2025-01-01T00:00:10", "us")
    ds2 = read_pages(path, columns=["url", "warc_ts"], since=since)
    assert 0 < ds2.count() < t.num_rows


def test_read_paged_api(ray_session):
    from docs_indexer_ray.sources import read_paged_api

    calls = {"n": 0}

    def fetch(cursor):
        calls["n"] += 1
        if calls["n"] == 2 and cursor == 1:  # fail once → retried
            raise ConnectionError("flaky")
        rows = [
            {"id": cursor * 10 + i, "state": "PUBLISHED" if i % 2 else "DRAFT", "v": i}
            for i in range(4)
        ]
        return rows, (cursor + 1 if cursor < 3 else None)

    ds = read_paged_api(fetch, state_filter=("state", "PUBLISHED"))
    rows = sorted(r["id"] for r in ds.take_all())
    # 4 pages (cursor 0..3) × ids i∈{1,3} published
    assert rows == sorted(c * 10 + i for c in range(4) for i in (1, 3))


def test_read_paged_api_windowed_blocks_and_schema_drift(ray_session):
    """Pages become blocks in rows_per_block windows (no whole-stream
    driver concat) and later-page-only keys null-pad earlier blocks
    (one unified schema across all blocks)."""
    from docs_indexer_ray.sources import read_paged_api

    def fetch(cursor):
        rows = [{"id": cursor * 10 + i} for i in range(5)]
        if cursor >= 3:  # later pages grow a new key
            for r in rows:
                r["extra"] = f"x{r['id']}"
        return rows, (cursor + 1 if cursor < 5 else None)

    ds = read_paged_api(fetch, rows_per_block=10)
    # 6 pages × 5 rows, 10-row windows → 3 blocks (the conform step is
    # lazy per-block, so count blocks on the materialized result)
    assert ds.materialize().num_blocks() == 3
    got = sorted(ds.take_all(), key=lambda r: r["id"])
    assert len(got) == 30
    assert got[0]["extra"] is None and got[-1]["extra"] == "x54"


def test_http_page_fetch_rate_limit_and_paging():
    """Offset paging over a fake urlopen; a 429 with Retry-After is
    honored (sleep + retry same page) per hugo.py:87-101."""
    import io
    import urllib.error

    from docs_indexer_ray.sources import http_page_fetch, read_paged_api

    state = {"calls": 0, "limited": False}
    total = 7

    def fake_urlopen(req, timeout=None):
        state["calls"] += 1
        url = req.full_url
        offset = int(url.split("offset=")[1].split("&")[0])
        if offset == 3 and not state["limited"]:
            state["limited"] = True
            raise urllib.error.HTTPError(
                url, 429, "rate limited", {"Retry-After": "0"}, io.BytesIO(b"")
            )
        objs = [{"id": i, "state": "PUBLISHED"} for i in range(offset, min(offset + 3, total))]
        body = json.dumps({"objects": objs, "total": total}).encode()

        class _Resp(io.BytesIO):
            def __enter__(self):
                return self

            def __exit__(self, *a):
                return False

        return _Resp(body)

    fetch = http_page_fetch(
        "https://api.test/posts?offset={offset}&limit={limit}",
        page_size=3,
        urlopen=fake_urlopen,
    )
    ds = read_paged_api(fetch)
    assert sorted(r["id"] for r in ds.take_all()) == list(range(total))
    assert state["limited"]  # the 429 path ran and was retried in-place


# ---- CLI ------------------------------------------------------------------

def test_cli_end_to_end(ray_session, tmp_path, capsys):
    from docs_indexer_ray.cli import main

    t = rich_pages_table(25, dup_every=0)
    pages_path = str(tmp_path / "pages.parquet")
    pq.write_table(t, pages_path)
    out = str(tmp_path / "idx")

    assert main(["build", "--input", pages_path, "--out", out, "--fingerprint", "cli1"]) == 0
    built = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert built["n_docs"] == 25

    runs = []
    for shards in ("0", "2"):  # one in-process shard, then the actor fleet
        assert main(["query", "--index", out, "--q", "node pools", "-k", "3",
                     "--shards", shards]) == 0
        runs.append(
            [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
        )
    lines = runs[0]
    assert lines and lines[0]["rank"] == 1 and lines[0]["url"]
    assert runs[1] == lines

    assert main(["search", "--index", out, "--q", "node pools", "-k", "3",
                 "--highlight", "body"]) == 0
    hits = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    assert hits[0]["rank"] == 1 and "<em>" in hits[0]["snippet"] and hits[0]["url"]

    assert main(["search", "--index", out, "--q", "+node -quota pools", "--syntax",
                 "--shards", "2", "--highlight", "body", "-k", "3"]) == 0
    sh = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    assert sh and sh[0]["rank"] == 1 and "<em>" in sh[0]["snippet"]
    assert "<em>quota</em>" not in sh[0]["snippet"]

    assert main(["stats", "--index", out]) == 0
    man = json.loads(capsys.readouterr().out)
    assert man["n_docs"] == 25

    assert main(["gc", "--root", out]) == 0
    assert json.loads(capsys.readouterr().out)["removed"] == []

    # analyze + aggregations
    assert main(["analyze", "--chain", "simple", "--text", "Node POOLS 42!"]) == 0
    toks = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    assert [t["token"] for t in toks] == ["node", "pools", "42"]

    assert main(["agg", "--index", out, "--q", "node pools", "--kind", "terms",
                 "--field", "lang"]) == 0
    buckets = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert buckets and all("value" in b and "n_docs" in b for b in buckets)

    assert main(["agg", "--index", out, "--q", "node pools",
                 "--kind", "significant"]) == 0
    sig = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sig and "term" in sig[0] and "score" in sig[0]

    assert main(["agg", "--index", out, "--q", "node pools", "--kind", "stats",
                 "--field", "body"]) == 0
    st = json.loads(capsys.readouterr().out.strip().splitlines()[-1])[0]
    assert st["n_docs"] >= 1 and st["max_v"] >= st["min_v"]

    # lifecycle: delete_by_query → compact → reindex
    assert main(["delete", "--index", out, "--query", "node pools"]) == 0
    deleted = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert deleted["deleted"] >= 1
    assert deleted["total_tombstones"] == deleted["deleted"]

    comp = str(tmp_path / "compacted")
    assert main(["compact", "--index", out, "--out", comp]) == 0
    cres = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert cres["n_docs"] == 25 - deleted["deleted"]

    re_out = str(tmp_path / "reidx")
    assert (
        main(["reindex", "--index", comp, "--out", re_out, "--chain", "simple"]) == 0
    )
    rres = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rres["analyzer"] == "simple" and rres["n_docs"] == cres["n_docs"]


def test_warc_source_roundtrip_and_build(ray_session, tmp_path):
    """WARC/WET archives round-trip through read_warc into the exact
    pages shape, and an index built from WARC input reproduces the
    Parquet-path build (same stats + top-k)."""
    import gzip

    import numpy as np
    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.query.bm25 import wand_topk
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.sources.warc import (
        parse_warc_records,
        read_warc,
        synth_warc_bytes,
    )
    from docs_indexer_ray.synth import rich_pages_table

    pages = rich_pages_table(40, dup_every=0)

    # two shards, as a crawl would ship them
    half = pages.num_rows // 2
    shards = [pages.slice(0, half), pages.slice(half)]
    for i, shard in enumerate(shards):
        (tmp_path / f"crawl-{i}.warc.gz").write_bytes(synth_warc_bytes(shard))

    got = (
        read_warc([str(tmp_path / f"crawl-{i}.warc.gz") for i in range(2)])
        .to_pandas()
        .sort_values("url", ignore_index=True)
    )
    want = pages.to_pandas().sort_values("url", ignore_index=True)
    assert got["url"].tolist() == want["url"].tolist()
    assert got["warc_ts"].tolist() == want["warc_ts"].tolist()
    # html round-trips byte-identical (bytes in, bytes out)
    for g, w in zip(got["html"], want["html"]):
        wb = w.encode() if isinstance(w, str) else (w or b"")
        assert g == wb
    # response records carry no text/lang (WARC has no such headers)
    assert got["text"].isna().all()

    # WET variant: conversion records carry the text payload
    (tmp_path / "crawl.wet.gz").write_bytes(synth_warc_bytes(pages, wet=True))
    wet = read_warc([str(tmp_path / "crawl.wet.gz")]).to_pandas()
    assert wet["html"].isna().all()
    assert sorted(wet["text"].fillna("")) == sorted(
        (pages["text"].to_pandas().fillna(""))
    )

    # malformed input: garbage prefix + truncated tail parse tolerantly
    raw = synth_warc_bytes(shards[0], compress=False)
    noisy = b"garbage\r\nnoise\n" + raw + b"WARC/1.0\r\nContent-Length: oops\r\n\r\n"
    n_ok = sum(1 for _ in parse_warc_records(noisy))
    assert n_ok == shards[0].num_rows

    # index built from the WARC source ≡ index built from the table
    r1 = build_index(
        read_warc([str(tmp_path / f"crawl-{i}.warc.gz") for i in range(2)]),
        str(tmp_path / "idx_warc"),
        fingerprint="w1",
        num_parts=4,
        chain="simple",
        field="body",
    )
    r2 = build_index(
        ray.data.from_arrow(pages),
        str(tmp_path / "idx_tbl"),
        fingerprint="t1",
        num_parts=4,
        chain="simple",
        field="body",
    )
    assert r1["n_docs"] == r2["n_docs"]
    assert r1["total_tokens"] == r2["total_tokens"]
    ra, rb = (
        IndexReader(str(tmp_path / "idx_warc")),
        IndexReader(str(tmp_path / "idx_tbl")),
    )
    assert wand_topk(ra, ["node"], k=10) == wand_topk(rb, ["node"], k=10)


def test_warc_parser_streams_bounded_chunks():
    """_records_to_tables flushes every max_rows — one archive parses
    into several bounded tables whose concatenation is the full set
    (the OOM guard for 1 GB crawl files)."""
    import pyarrow as pa

    from docs_indexer_ray.sources.warc import (
        _records_to_tables,
        synth_warc_bytes,
    )

    pages = pa.table(
        {
            "url": pa.array([f"https://w/{i}/" for i in range(7)]),
            "warc_ts": pa.array([1000 + i for i in range(7)], pa.int64()).cast(
                pa.timestamp("us")
            ),
            "html": pa.array([f"<p>doc {i}</p>".encode() for i in range(7)],
                             pa.binary()),
            "text": pa.array([None] * 7, pa.string()),
            "lang": pa.array(["en"] * 7),
        }
    )
    raw = synth_warc_bytes(pages)
    chunks = list(_records_to_tables(raw, max_rows=3))
    assert [c.num_rows for c in chunks] == [3, 3, 1]
    whole = pa.concat_tables(chunks)
    assert whole["url"].to_pylist() == pages["url"].to_pylist()
    assert [b.as_py() for b in whole["html"]] == [b.as_py() for b in pages["html"]]


def test_flagship_search_uses_requested_chain(multi_index):
    """search(chain=extra) must read THAT chain's posting table, not
    analyze with one chain and score against the main one."""
    from docs_indexer_ray.functions.analyzer import Analyzer
    from docs_indexer_ray.pipelines.flagship import search
    from docs_indexer_ray.query.bm25 import topk

    out, _res = multi_index
    want = topk(IndexReader(out, chain="trigram"), Analyzer("trigram")("node pools"), k=5)
    assert want  # non-trivial on this corpus
    assert search(out, "node pools", k=5, chain="trigram") == want


def test_dedup_latest_null_ts_loses(ray_session, tmp_path):
    """A null warc_ts duplicate must never beat a real timestamp under
    the docs store's keep-last dedup (pyarrow's default at_end
    placement made null greatest)."""
    import ray.data

    from docs_indexer_ray.stages.docstore import build_docs_store

    t = pa.table(
        {
            "url": pa.array(["https://x/a/", "https://x/a/", "https://x/b/"]),
            "warc_ts": pa.array([None, 1_000_000, 5], pa.int64()).cast(
                pa.timestamp("us")
            ),
            "html": pa.array(
                [wrap_html(b) for b in ("stale-unknown-age", "fresh", "only")],
                pa.binary(),
            ),
            "text": pa.array(["stale-unknown-age", "fresh", "only"]),
            "lang": pa.array(["en"] * 3),
        }
    )
    docs = str(tmp_path / "docs")
    n_docs, _ = build_docs_store(
        ray.data.from_arrow(t), str(tmp_path / "spill"), docs, num_parts=2
    )
    got = pq.read_table(docs, partitioning=None).to_pandas().set_index("url")
    assert n_docs == len(got) == 2
    assert got.loc["https://x/a/", "body"] == "fresh"


def test_read_jsonl_tolerates_empty_shard(ray_session, tmp_path):
    """A zero-record shard (legal corpus artifact) must not fail the
    read when batched with populated shards."""
    import gzip as _gzip

    from docs_indexer_ray.sources.jsonl import read_jsonl, write_jsonl_shards

    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": pa.array(["a", "b"])})
    paths = write_jsonl_shards(t, str(tmp_path), n_shards=1)
    empty = str(tmp_path / "part-empty.jsonl.gz")
    with open(empty, "wb") as f:
        f.write(_gzip.compress(b""))
    got = read_jsonl(paths + [empty]).to_pandas()
    assert sorted(got["doc_id"].dropna().astype(int).tolist()) == [1, 2]


def test_gc_spares_in_progress_and_underscore_dirs(tmp_path):
    """gc must not rmtree a manifest-less fresh dir (build in flight)
    or _-prefixed work trees; finished unpublished builds still go."""
    import json as _json
    import os as _os

    from docs_indexer_ray.index import manifest as mf

    root = str(tmp_path)
    for name in ("docs-live", "docs-old", "docs-inflight", "_delta"):
        _os.makedirs(_os.path.join(root, name))
    for name in ("docs-live", "docs-old"):
        with open(_os.path.join(root, name, "manifest.json"), "w") as f:
            _json.dump({}, f)
    mf.publish(root, "docs-live")
    removed = mf.gc(root)
    assert removed == ["docs-old"]
    assert _os.path.isdir(_os.path.join(root, "docs-inflight"))
    assert _os.path.isdir(_os.path.join(root, "_delta"))
    # crashed-build debris: manifest-less AND old → collected
    assert mf.gc(root, in_progress_grace_s=0.0) == ["docs-inflight"]


def test_input_fingerprint_nanosecond_mtime(tmp_path):
    """Same-size same-second rewrites must change the fingerprint."""
    import os as _os

    from docs_indexer_ray.index import manifest as mf

    p = str(tmp_path / "in.parquet")
    with open(p, "wb") as f:
        f.write(b"x" * 64)
    _os.utime(p, ns=(1_700_000_000_000_000_000, 1_700_000_000_000_000_000))
    f1 = mf.input_fingerprint([p])
    _os.utime(p, ns=(1_700_000_000_000_000_000, 1_700_000_000_000_000_500))
    assert mf.input_fingerprint([p]) != f1


def test_http_page_fetch_permanent_403_raises():
    """A permanent 403 that always carries Retry-After must stop after
    max_ratelimit_retries instead of looping forever."""
    import io
    import urllib.error

    import pytest as _pytest

    from docs_indexer_ray.sources import http_page_fetch

    def always_403(req, timeout=None):
        raise urllib.error.HTTPError(
            req.full_url, 403, "denied", {"Retry-After": "0"}, io.BytesIO(b"")
        )

    fetch = http_page_fetch(
        "https://api.test/posts?offset={offset}&limit={limit}",
        urlopen=always_403,
        max_ratelimit_retries=2,
    )
    with _pytest.raises(urllib.error.HTTPError):
        fetch(0)


def test_concurrent_add_deletes_union(ray_session, tmp_path):
    """Two concurrent add_deletes callers must both land (the
    read-modify-write is serialized by the advisory lock)."""
    import threading

    import ray.data

    from docs_indexer_ray.index.build import build_index
    from docs_indexer_ray.index.deletes import add_deletes, load_delete_ids
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path / "didx")
    build_index(ray.data.from_arrow(rich_pages_table(30, dup_every=0)), root,
                fingerprint="dl", num_parts=4, salt_heavy=False)
    barrier = threading.Barrier(2)

    def run(ids):
        barrier.wait()
        add_deletes(root, ids)

    a = threading.Thread(target=run, args=([1, 2],))
    b = threading.Thread(target=run, args=([5, 6],))
    a.start(); b.start(); a.join(); b.join()
    import docs_indexer_ray.index.manifest as _mf

    got = set(load_delete_ids(_mf.current_build(root)).tolist())
    assert {1, 2, 5, 6} <= got
