"""Positional stored-field fetch (``IndexReader.fetch_docs``) pinned to
the ``doc_id`` filter scan it replaced — on a fresh build, on a merge
with many docparts (lexicographic fragment order != id order) and after
a compaction, cold and from the reader's decoded-column cache — plus
the fetch phase's term vectors (one per hit per reader) and its
process-wide stem memo."""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest


def _build(pages, root, **kw):
    import ray.data

    from docs_indexer_ray.index.build import build_index

    kw.setdefault("num_parts", 6)
    kw.setdefault("chain", "simple")
    kw.setdefault("field", "body")
    build_index(ray.data.from_arrow(pages), root, **kw)
    return root


def _oracle(reader, doc_ids, columns):
    """The filter-scan fetch: one ``doc_id.isin`` filter over every
    docs-store fragment."""
    dset = pads.dataset(os.path.join(reader.index_dir, "docs"), partitioning="hive")
    expr = pads.field("doc_id").isin([int(d) for d in doc_ids])
    if columns is not None and "text" in columns and "text" not in dset.schema.names:
        from docs_indexer_ray.stages.extract import (
            SYNTHESIS_INPUT_COLUMNS,
            synthesize_text,
        )

        need = [c for c in columns if c != "text"]
        t = dset.to_table(
            filter=expr,
            columns=list(dict.fromkeys(need + list(SYNTHESIS_INPUT_COLUMNS))),
        )
        return synthesize_text(t).select(columns)
    return dset.to_table(filter=expr, columns=columns)


COLUMN_SETS = [
    None,
    ["doc_id", "url", "title"],
    ["text", "doc_id"],
    ["body"],
    ["docpart", "doc_id"],  # hive partition value, not the in-file column
]


def _assert_matches_oracle(reader):
    n = reader.n_docs
    id_sets = [
        [],
        [0],
        [n - 1, 0, n // 2, 1],  # across partitions, out of order
        [3, 3, 7, 3, 7],  # duplicates come back once
        [-1, n, n + 1000, 5],  # unknown ids are dropped
        list(range(n))[::-1],
    ]
    for ids in id_sets:
        for cols in COLUMN_SETS:
            got, want = reader.fetch_docs(ids, cols), _oracle(reader, ids, cols)
            assert got.schema == want.schema, (ids, cols)
            assert got.equals(want), (ids, cols)


@pytest.fixture(scope="module")
def fresh(ray_session, tmp_path_factory):
    from docs_indexer_ray.synth import rich_pages_table

    root = str(tmp_path_factory.mktemp("fetch") / "fresh")
    return _build(
        rich_pages_table(90, dup_every=0), root, fingerprint="f",
        num_parts=4, chain="english",
    )


@pytest.fixture(scope="module")
def merged(ray_session, tmp_path_factory):
    from docs_indexer_ray.index.merge import merge_many
    from docs_indexer_ray.synth import rich_pages_table

    base = tmp_path_factory.mktemp("fetchmerge")
    pages = rich_pages_table(90, dup_every=0)
    roots = [
        _build(pages.slice(15 * i, 15), str(base / f"p{i}"), fingerprint=f"p{i}")
        for i in range(6)
    ]
    merge_many(roots, str(base / "m"), fingerprint="m")
    return str(base / "m")


@pytest.fixture(scope="module")
def compacted(ray_session, tmp_path_factory):
    from docs_indexer_ray.index.compact import compact_index
    from docs_indexer_ray.index.deletes import add_deletes
    from docs_indexer_ray.synth import rich_pages_table

    base = tmp_path_factory.mktemp("fetchcompact")
    src = _build(rich_pages_table(60, dup_every=0), str(base / "src"), fingerprint="s")
    add_deletes(src, [0, 7, 8, 9, 23, 31, 40, 41, 58])
    compact_index(src, str(base / "c"))
    return str(base / "c")


@pytest.mark.parametrize("which", ["fresh", "merged", "compacted"])
def test_fetch_matches_filter_scan(request, which):
    from docs_indexer_ray.query.reader import IndexReader

    reader = IndexReader(request.getfixturevalue(which))
    _assert_matches_oracle(reader)  # cold
    assert reader._docs_cache
    _assert_matches_oracle(reader)  # warm: every page from the cache


def test_merged_fragment_order_is_not_id_order(merged):
    """The merge case is the one that can tell fragment order from id
    order: docpart=10 sorts before docpart=2."""
    from docs_indexer_ray.query.reader import IndexReader

    reader = IndexReader(merged)
    reader.fetch_docs([0], ["doc_id"])
    firsts = [rg[2] for rg in reader._docs_row_groups()]
    assert len(os.listdir(os.path.join(reader.index_dir, "docs"))) > 10
    assert firsts != sorted(firsts)


def _count_row_group_reads(monkeypatch):
    """``(row groups read, columns of each read)``, in call order."""
    reads, columns = [], []
    real = pq.ParquetFile.read_row_group

    def counting(self, i, *a, **kw):
        reads.append(i)
        columns.append(kw.get("columns"))
        return real(self, i, *a, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", counting)
    return reads, columns


def _rewrite_first_docpart(root, rewrite):
    """Rewrite the first docs-store file holding >= 6 rows in place;
    returns its path."""
    from docs_indexer_ray.query.reader import IndexReader

    dset = pads.dataset(
        os.path.join(IndexReader(root).index_dir, "docs"), partitioning="hive"
    )
    for path in dset.files:
        t = pq.read_table(path)
        if t.num_rows >= 6:
            rewrite(t, path)
            return path
    raise AssertionError("no docpart with >= 6 rows")


def test_fetch_reads_only_row_groups_with_hits(fresh, tmp_path, monkeypatch):
    from docs_indexer_ray.query.reader import IndexReader

    root = str(tmp_path / "copy")
    shutil.copytree(fresh, root)
    # one file split into row groups of 2 rows: the positional read
    # must pick the right one and still equal the filter scan
    path = _rewrite_first_docpart(
        root, lambda t, p: pq.write_table(t, p, row_group_size=2)
    )
    _assert_matches_oracle(IndexReader(root))
    first = pq.read_table(path, columns=["doc_id"])["doc_id"][0].as_py()

    reader = IndexReader(root)  # cold: the oracle warmed its own reader
    reads, _ = _count_row_group_reads(monkeypatch)
    got = reader.fetch_docs([first + 3, first + 2], ["doc_id", "url"])
    assert got["doc_id"].to_pylist() == [first + 2, first + 3]
    assert reads == [1]  # rows 2..3 of the file = its second row group
    reads.clear()
    assert reader.fetch_docs([first + 2, first + 3], ["doc_id", "url"]).equals(got)
    assert reads == []  # the repeat takes from the decoded row group
    reader.fetch_docs([], ["doc_id"])
    reader.fetch_docs([-5, reader.n_docs], ["doc_id"])
    assert reads == []


def test_repeat_page_reads_nothing_and_reload_starts_cold(fresh, monkeypatch):
    from docs_indexer_ray.query.reader import IndexReader

    reader = IndexReader(fresh)
    page = [reader.n_docs - 1, 0, reader.n_docs // 2, 5]
    cols = ["doc_id", "url", "title", "body"]
    reads, _ = _count_row_group_reads(monkeypatch)
    first = reader.fetch_docs(page, cols)
    cold = len(reads)
    assert cold >= 2  # the page spans row groups
    reads.clear()
    assert reader.fetch_docs(page, cols).equals(first)
    assert reader.fetch_docs(page[:2], ["title", "doc_id"]).equals(
        first.filter(pc.is_in(first["doc_id"], pa.array(page[:2])))
        .select(["title", "doc_id"])
    )
    assert reads == []
    # a reload opens a new reader: it decodes again
    assert IndexReader(fresh).fetch_docs(page, cols).equals(first)
    assert len(reads) == cold


def test_new_column_of_a_cached_row_group_reads_only_that_column(
    fresh, monkeypatch
):
    from docs_indexer_ray.query.reader import IndexReader

    reader = IndexReader(fresh)
    reads, columns = _count_row_group_reads(monkeypatch)
    reader.fetch_docs([3], ["doc_id", "url"])
    assert len(reads) == 1 and sorted(columns[0]) == ["doc_id", "url"]
    reads.clear(), columns.clear()
    got = reader.fetch_docs([3, 4], ["url", "title", "doc_id"])
    assert columns == [["title"]]
    assert got.equals(_oracle(reader, [3, 4], ["url", "title", "doc_id"]))


def _cached_bytes(reader):
    """The reader's cached bytes summed from its entries, each checked
    against what it holds: a column its decoded buffers, a term vector
    its containers."""
    import sys

    total = 0
    for value, charged in reader._docs_cache.values():
        if isinstance(value, pa.ChunkedArray):
            assert charged == value.get_total_buffer_size()
        else:
            assert charged == sum(map(sys.getsizeof, value))
        total += charged
    return total


def _vector_keys(reader):
    return [k for k in reader._docs_cache if isinstance(k[0], str)]


def test_docs_cache_stays_within_its_byte_cap(fresh, monkeypatch):
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.search import fetch_rows

    cached_bytes = _cached_bytes
    probe = IndexReader(fresh)
    n_groups = len(probe._docs_row_groups())
    probe.fetch_docs(range(probe.n_docs), ["doc_id", "url"])
    full = cached_bytes(probe)
    assert len(probe._docs_cache) == 2 * n_groups

    # room for about half the groups: pages evict oldest first and the
    # cached bytes never exceed the cap
    reader = IndexReader(fresh)
    reader._docs_cache_cap = full // 2
    for start in range(0, reader.n_docs, 7):
        page = list(range(start, reader.n_docs, 11))[:10]
        assert reader.fetch_docs(page, ["doc_id", "url"]).equals(
            _oracle(reader, page, ["doc_id", "url"])
        )
        assert reader._docs_cache_bytes == cached_bytes(reader)
        assert 0 < reader._docs_cache_bytes <= reader._docs_cache_cap
    assert len(reader._docs_cache) < 2 * n_groups
    _assert_matches_oracle(reader)

    # a row group whose requested columns exceed the cap is read per
    # call and never kept; what was cached stays
    reader = IndexReader(fresh)
    reader.fetch_docs([0], ["doc_id"])
    kept = dict(reader._docs_cache)
    reader._docs_cache_cap = reader._docs_cache_bytes + 1
    reads, _ = _count_row_group_reads(monkeypatch)
    for _ in range(2):
        got = reader.fetch_docs([0], ["doc_id", "body"])
        assert got.equals(_oracle(reader, [0], ["doc_id", "body"]))
    assert len(reads) == 2
    assert reader._docs_cache == kept

    # hits' term vectors share the budget: highlighted pages evict the
    # oldest columns and vectors alike, the charged bytes stay exact
    # and within the cap, and every page equals an uncapped reader's
    uncapped = IndexReader(fresh)
    terms = set(uncapped.analyzer("node pools quota cluster"))
    pages = [list(range(s, uncapped.n_docs, 9)) for s in range(9)]
    want = [fetch_rows(uncapped, p, ("url",), "body", terms, 80) for p in pages]
    assert len(_vector_keys(uncapped)) == uncapped.n_docs
    reader = IndexReader(fresh)
    reader._docs_cache_cap = uncapped._docs_cache_bytes // 2
    for _ in range(2):
        for p, w in zip(pages, want):
            assert fetch_rows(reader, p, ("url",), "body", terms, 80).equals(w)
            assert reader._docs_cache_bytes == cached_bytes(reader)
            assert 0 < reader._docs_cache_bytes <= reader._docs_cache_cap
    assert 0 < len(_vector_keys(reader)) < reader.n_docs


def test_docs_cache_eviction_under_threads(fresh):
    """Server threads fill and evict one reader's docs cache at once,
    columns and hits' term vectors alike: every page still equals a
    single thread's, and the byte count stays exact and within the
    cap."""
    import sys
    import threading

    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.search import fetch_rows

    cols = ["doc_id", "url", "title"]
    pages = [list(range(s, 90, 9)) for s in range(9)]
    want = [IndexReader(fresh).fetch_docs(p, cols) for p in pages]
    uncapped = IndexReader(fresh)
    terms = set(uncapped.analyzer("node pools quota cluster"))
    want_hl = [fetch_rows(uncapped, p, ("url",), "body", terms, 80) for p in pages]
    reader = IndexReader(fresh)
    fetch_rows(reader, [0], ("url", "title"), "body", terms, 80)
    reader._docs_cache_cap = 3 * reader._docs_cache_bytes
    errors = []

    def work(w):
        try:
            for r in range(30):
                i = (w * 7 + r) % len(pages)
                if (w + r) % 2:
                    got = fetch_rows(reader, pages[i], ("url",), "body", terms, 80)
                    assert got.equals(want_hl[i])
                else:
                    assert reader.fetch_docs(pages[i], cols).equals(want[i])
        except Exception as e:  # reported by the assertion below
            errors.append(repr(e))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert reader._docs_cache_bytes == _cached_bytes(reader)
    assert reader._docs_cache_bytes <= reader._docs_cache_cap
    assert _vector_keys(reader)


def test_docpart_missing_a_column_reads_nulls(fresh, tmp_path):
    """A docpart file written without a column the dataset schema has
    (the schema comes from the first fragment) reads it as nulls, like
    the scan does."""
    from docs_indexer_ray.query.reader import IndexReader

    root = str(tmp_path / "narrow")
    shutil.copytree(fresh, root)
    dset = pads.dataset(
        os.path.join(IndexReader(root).index_dir, "docs"), partitioning="hive"
    )
    last = dset.files[-1]
    pq.write_table(pq.read_table(last).drop_columns(["title"]), last)
    reader = IndexReader(root)
    _assert_matches_oracle(reader)
    first = pq.read_table(last, columns=["doc_id"])["doc_id"][0].as_py()
    assert reader.fetch_docs([first], ["title"])["title"].null_count == 1


def test_non_dense_docpart_raises(fresh, tmp_path):
    from docs_indexer_ray.query.reader import IndexReader

    root = str(tmp_path / "gap")
    shutil.copytree(fresh, root)
    # drop a middle row: the file's doc ids now skip one
    path = _rewrite_first_docpart(
        root,
        lambda t, p: pq.write_table(pa.concat_tables([t.slice(0, 2), t.slice(3)]), p),
    )
    with pytest.raises(ValueError, match="not dense") as e:
        IndexReader(root).fetch_docs([0], ["doc_id"])
    assert path in str(e.value)


def test_fetch_phase_stems_each_surface_token_once_per_process(fresh, monkeypatch):
    """The fetch-phase kernel normalizes through its chain's process-wide
    memo and each hit's term vector: the first page stems each distinct
    surface token once, a repeat on the same reader stems nothing and
    builds no vector, and a new reader (a reload) stems nothing but
    builds its own vectors."""
    import docs_indexer_ray.functions.analyzer as an_mod
    import docs_indexer_ray.query.highlight as hl
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.search import fetch_rows

    monkeypatch.setattr(an_mod, "_ANALYSIS", {})
    monkeypatch.setattr(an_mod, "_NORMALIZE", {})
    reader = IndexReader(fresh)
    assert reader.chain == "english"
    terms = set(reader.analyzer("node pools quota"))
    ids = list(range(0, reader.n_docs, 7))
    bodies = reader.fetch_docs(ids, ["body"])["body"].to_pylist()
    distinct = {t for b in bodies for t in an_mod.TOKEN_RE.findall(b or "")}

    real, calls = an_mod.porter_stem, []
    monkeypatch.setattr(an_mod, "porter_stem", lambda t: calls.append(t) or real(t))
    real_tv, built = hl.term_vector, []
    monkeypatch.setattr(
        hl, "term_vector", lambda text, an: built.append(text) or real_tv(text, an)
    )
    first = fetch_rows(reader, ids, ("url",), "body", terms, 160)
    assert len(calls) == len(distinct)
    assert sorted(built) == sorted(b or "" for b in bodies)
    assert any("<em>" in s for s in first["snippet"].to_pylist())
    calls.clear(), built.clear()
    assert fetch_rows(reader, ids, ("url",), "body", terms, 160).equals(first)
    assert calls == [] and built == []
    assert fetch_rows(IndexReader(fresh), ids, ("url",), "body", terms, 160).equals(first)
    assert calls == []
    assert len(built) == len(ids)


def test_concurrent_fetch_phase_on_one_cold_reader(fresh, monkeypatch):
    """Server threads share one reader: concurrent first fetches (the
    row-group map, the shared file handles) and snippets (term vectors,
    and the chain's normalize memo, emptied first) on a cold reader
    return what a single thread gets."""
    import sys
    import threading

    import docs_indexer_ray.functions.analyzer as an_mod
    from docs_indexer_ray.query.reader import IndexReader
    from docs_indexer_ray.query.search import fetch_rows

    want_reader = IndexReader(fresh)
    terms = set(want_reader.analyzer("node pools quota cluster"))
    pages = [list(range(s, want_reader.n_docs, 5)) for s in range(5)]
    want = [fetch_rows(want_reader, p, ("url",), "body", terms, 80) for p in pages]

    monkeypatch.setattr(an_mod, "_NORMALIZE", {})
    reader = IndexReader(fresh)
    got, errors = {}, []

    def work(w):
        try:
            for r in range(4):
                i = (w + r) % len(pages)
                got[(w, r)] = (i, fetch_rows(reader, pages[i], ("url",), "body", terms, 80))
        except Exception as e:  # reported by the assertion below
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(w,)) for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == 32
    for i, t in got.values():
        assert t.equals(want[i])


def test_source_may_name_doc_id(fresh):
    """``_source: ["doc_id", …]`` goes through the served fetch kernel
    like any stored field (the shard fetch used to request ``doc_id``
    twice and fail with a KeyError)."""
    import json

    from docs_indexer_ray.query.search import search_response
    from docs_indexer_ray.serve_http import SearchServer

    srv = SearchServer(fresh)
    srv._ensure_backend()
    body = {"query": {"match": {"text": "node pools"}}, "size": 3,
            "_source": ["doc_id", "url"], "highlight": {"fields": {"body": {}}}}
    hits = srv._search_post({}, json.dumps(body).encode())["hits"]["hits"]
    want = search_response(srv._reader, "node pools", k=3, fields=("doc_id", "url"),
                           highlight_field="body", syntax=True)
    assert [h["_source"]["doc_id"] for h in hits] == [h["_id"] for h in hits]
    assert [h["_id"] for h in hits] == want["doc_id"].to_pylist()
    assert [h["highlight"]["body"][0] for h in hits] == want["snippet"].to_pylist()
