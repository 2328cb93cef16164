"""The packed postings layout (``index/segments.py``): exact round
trips through ``write_segment``/``read_segment``, point lookups that
read one block per (term, salt run), thread-shared readers, descriptor
lifetime, and the loud refusal of builds in an older layout."""

from __future__ import annotations

import gc
import json
import os
import random
import sys
import threading

import numpy as np
import pyarrow as pa
import pytest

from docs_indexer_ray.index import segments
from docs_indexer_ray.index.segments import (
    SEGMENT_SCHEMA,
    SEGMENT_SCHEMA_POS,
    SegmentFile,
    encode_partition_codes,
    read_segment,
    segment_path,
    write_segment,
)
from docs_indexer_ray.query.reader import IndexReader
from docs_indexer_ray.query.segments_io import TermPostings
from docs_indexer_ray.synth import rich_pages_rows

ODD_TERMS = ["é", "ñu", "日本", "ca" + chr(0x1F600) + "grin", chr(0x10FFFF)]


def _table(positions: bool, n_terms: int = 300, seed: int = 0) -> pa.Table:
    """An encoded partition: ~n_terms ASCII terms plus non-ASCII and
    astral-plane ones, 4-posting blocks, and one term so frequent that
    its record outgrows ``BLOCK_BYTES`` (and its header the short
    decode path)."""
    rng = np.random.default_rng(seed)
    words = np.array(sorted({f"t{i:04d}" for i in range(n_terms)} | set(ODD_TERMS)), object)
    codes = rng.integers(0, len(words), 6000)
    docs = rng.integers(0, 3000, 6000)
    big = int(np.searchsorted(words, "t0007"))
    codes = np.concatenate([codes, np.full(12000, big)])
    docs = np.concatenate([docs, np.arange(12000) * 997])
    _, keep = np.unique(codes * 10**7 + docs, return_index=True)
    codes, docs = codes[keep], docs[keep].astype(np.uint64)
    tf = rng.integers(1, 6, len(docs)).astype(np.uint64)
    dl = rng.integers(1, 400, len(docs)).astype(np.uint64)
    pos = None
    if positions:
        pos = np.empty(len(docs), object)
        pos[:] = [np.sort(rng.choice(400, int(t), replace=False)).astype(np.uint64) for t in tf]
    return encode_partition_codes(codes, words, docs, tf, dl, 5, 4, positions=pos)


def _no_block_row(schema: pa.Schema) -> pa.Table:
    row = {
        "term": ["zz-empty"], "rpart": [5], "df": [0], "cf": [0],
        "doc_ids_enc": [b""], "tfs_enc": [b""], "block_last": [[]],
        "block_id_offsets": [[0]], "block_tf_offsets": [[0]],
        "block_max_tf": [[]], "block_min_dl": [[]], "max_tf": [3], "min_dl": [9],
    }
    if "pos_enc" in schema.names:
        row.update(pos_enc=[b""], block_pos_offsets=[[0]])
    return pa.Table.from_pydict(row, schema=schema)


def _rows_table(rows: list[dict], schema: pa.Schema) -> pa.Table:
    cols = {
        c: [r[c].tolist() if isinstance(r[c], np.ndarray) else r[c] for r in rows]
        for c in schema.names
    }
    return pa.Table.from_pydict(cols, schema=schema)


def _count_reads(monkeypatch) -> list:
    reads = []
    real = SegmentFile._read_block

    def counted(self, b):
        reads.append((self.path, b))
        return real(self, b)

    monkeypatch.setattr(SegmentFile, "_read_block", counted)
    return reads


@pytest.mark.parametrize("positions", [False, True])
def test_round_trip_is_exact(tmp_path, positions):
    schema = SEGMENT_SCHEMA_POS if positions else SEGMENT_SCHEMA
    t = pa.concat_tables([_table(positions), _no_block_row(schema)]).sort_by("term")
    path = str(tmp_path / "seg.postings")
    write_segment(t, path)
    assert read_segment(path).equals(t)
    assert read_segment(path, ["term", "cf", "block_last"]).equals(
        t.select(["term", "cf", "block_last"])
    )
    seg = SegmentFile(path)
    assert seg.num_rows == t.num_rows and seg.has_positions == positions
    # the big term's record outgrows the bound and is a block of its own
    big = seg.rows("t0007")
    assert len(big[0]["doc_ids_enc"]) > segments.BLOCK_BYTES
    own = seg._read_block(seg._first.index("t0007"))
    assert len(segments._split_block(own)[0]) == 2  # one term in the block
    # every term's point lookup is its table row
    for term in t["term"].to_pylist():
        got = _rows_table(seg.rows(term), schema)
        want = t.filter(pa.compute.equal(t["term"], term))
        assert got.equals(want), term
    assert seg.rows("t0000a") == [] and seg.rows("") == [] and seg.rows("~") == []

    for sch in (SEGMENT_SCHEMA, SEGMENT_SCHEMA_POS):
        write_segment(sch.empty_table(), path)
        assert read_segment(path).equals(sch.empty_table())
        assert SegmentFile(path).rows("a") == []


def test_runs_of_one_term_across_a_block_boundary(tmp_path, monkeypatch):
    """A salted or merged term has several rows; when a block boundary
    falls between two of its runs, the lookup reads the block holding
    the first run as well as the blocks the term starts — and no
    other."""
    t = _table(False, n_terms=40)
    term = "t0011"
    i = t["term"].to_pylist().index(term)
    # three runs of the term (copies of its row)
    t = pa.concat_tables([t.slice(0, i), *[t.slice(i, 1)] * 3, t.slice(i + 1)])
    path = str(tmp_path / "seg.postings")
    for bound in range(32, 4096, 8):  # a bound that splits the runs mid-block
        monkeypatch.setattr(segments, "BLOCK_BYTES", bound)
        write_segment(t, path)
        seg = SegmentFile(path)
        starts = [b for b, first in enumerate(seg._first) if first == term]
        if starts and seg._cont[starts[0]] and seg._first[starts[0] - 1] != term:
            break
    else:
        pytest.fail("no block bound puts a boundary between the runs")
    assert read_segment(path).equals(t)
    reads = _count_reads(monkeypatch)
    rows = seg.rows(term)
    assert len(rows) == 3
    assert sorted(b for _, b in reads) == [starts[0] - 1, *starts]
    reads.clear()
    assert len(seg.rows("t0012")) == 1 and len(reads) == 1


def test_non_canonical_rows_are_refused(tmp_path):
    t = _table(False, n_terms=20)
    path = str(tmp_path / "seg.postings")
    with pytest.raises(ValueError, match="sorted"):
        write_segment(t.take(np.arange(t.num_rows)[::-1]), path)
    bad = t.set_column(t.schema.get_field_index("max_tf"), "max_tf",
                       pa.array(np.full(t.num_rows, 99, np.uint32)))
    with pytest.raises(ValueError, match="max_tf"):
        write_segment(bad, path)
    assert not os.path.exists(path)


# ------------------------------------------------------- on a real build


def _pages() -> pa.Table:
    """The rich pages plus 40 Zipf-drawn words each (~2,000 terms)."""
    import html

    rng = np.random.default_rng(3)
    rows = rich_pages_rows(120, dup_every=0)
    for r in rows:
        words = " ".join(f"w{int(z) % 3000}" for z in rng.zipf(1.2, 40))
        r["text"] = f"{r['text']} {words}"
        r["html"] = f"<html><body>{html.escape(r['text'], quote=False)}</body></html>".encode()
    return pa.Table.from_pylist(rows).cast(
        pa.schema([("url", pa.string()), ("warc_ts", pa.timestamp("us")),
                   ("html", pa.binary()), ("text", pa.string()), ("lang", pa.string())])
    )


def _reblock(root: str) -> None:
    """Rewrite a build's segment files with 512-byte blocks, so each
    partition of a small build spans many blocks."""
    from docs_indexer_ray.index import manifest as mf

    seg_dir = os.path.join(mf.current_build(root), "segments")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(segments, "BLOCK_BYTES", 512)
        for k in range(8):
            path = segment_path(seg_dir, k)
            write_segment(read_segment(path), path)
            assert len(SegmentFile(path)._first) > 3


@pytest.fixture(scope="module")
def salted(ray_session, tmp_path_factory):
    import ray.data

    from docs_indexer_ray.index.build import build_index

    root = str(tmp_path_factory.mktemp("layout") / "idx")
    build_index(
        ray.data.from_arrow(_pages()), root,
        fingerprint="lay", num_parts=8, salt_heavy=True, heavy_df_ratio=0.2,
        n_salt_runs=4, block_size=4, chain="simple", field="body",
    )
    _reblock(root)
    return root


@pytest.fixture(scope="module")
def merged(salted, tmp_path_factory):
    """The salted build merged with itself: every term has two or more
    rows (runs) in its home partition, often across a block boundary."""
    from docs_indexer_ray.index.merge import merge_many

    root = str(tmp_path_factory.mktemp("layout") / "merged")
    merge_many([salted, salted], root)
    _reblock(root)
    return root


def test_cold_lookup_reads_one_block_per_run(salted, monkeypatch):
    terms = IndexReader(salted).term_dictionary()[0].tolist()
    reader = IndexReader(salted)
    assert reader.heavy
    # a heavy term's salt runs live in max_run + 1 partitions (a run
    # whose doc-id range lacks the term is an empty probe)
    n_runs = (reader.n_docs - 1) // reader.run_width + 1
    reads = _count_reads(monkeypatch)
    split = 0
    for term in terms:
        reads.clear()
        tp = reader.postings(term)
        want = n_runs if term in reader.heavy else 1
        assert len(reads) == want >= len(tp._runs), term  # cold: one block per run
        assert len({p for p, _ in reads}) == len(reads)  # one per partition
        split += len(tp._runs) > 1
        reads.clear()
        assert reader.postings(term) is tp and reads == []  # cached: none
    assert split > 0  # some heavy term really has several runs
    for absent in ("zzzz-absent", "", "aaaa", "node-absent"):
        reads.clear()
        assert reader.postings(absent) is None
        assert len(reads) <= 1  # one candidate partition, at most one block


def test_merged_runs_read_at_most_one_block_each(merged, monkeypatch):
    reader = IndexReader(merged)
    terms, dfs = reader.term_dictionary()
    reads = _count_reads(monkeypatch)
    crossing = 0
    for term, df in zip(terms.tolist(), dfs.tolist()):
        reads.clear()
        tp = reader.postings(term)
        assert tp.df == df, term  # every run found
        assert 1 <= len(reads) <= len(tp._runs), term
        crossing += len(reads) > 1
    assert crossing > 0  # some term's runs straddle a block boundary


def _same(a: TermPostings, b: TermPostings) -> bool:
    arrays = ("block_last", "block_max_tf", "block_min_dl", "_run_of_block", "_local_block")
    if (a.term, a.df, a.cf, a.max_tf, a.min_dl) != (b.term, b.df, b.cf, b.max_tf, b.min_dl):
        return False
    for name in arrays:
        x, y = getattr(a, name), getattr(b, name)
        if x.dtype != y.dtype or not np.array_equal(x, y):
            return False
    for ra, rb in zip(a._runs, b._runs, strict=True):
        if (ra.doc_ids_enc, ra.tfs_enc) != (rb.doc_ids_enc, rb.tfs_enc):
            return False
        if not (np.array_equal(ra.id_offsets, rb.id_offsets)
                and np.array_equal(ra.tf_offsets, rb.tf_offsets)):
            return False
    return all(np.array_equal(x, y) for x, y in zip(a.decode_all(), b.decode_all()))


def test_threads_share_one_reader(salted):
    terms = IndexReader(salted).term_dictionary()[0].tolist()
    single = IndexReader(salted)
    want = {t: TermPostings.from_rows(t, single._term_rows(t)) for t in terms}
    shared = IndexReader(salted)
    start = threading.Barrier(8)
    bad: list = []

    def worker(seed: int) -> None:
        order = terms[:]
        random.Random(seed).shuffle(order)
        start.wait()
        for t in order:  # cold every time: the point lookup itself
            try:
                got = TermPostings.from_rows(t, shared._term_rows(t))
            except Exception as e:  # a torn read fails to decompress
                got = e
            if not isinstance(got, TermPostings) or not _same(got, want[t]):
                bad.append((t, repr(got)[:80]))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads' reads finely
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert bad == []


def test_postings_cache_eviction_is_thread_safe(salted):
    """Server threads evict from one reader's full postings cache at
    once: no thread's lookup fails, and the cache stays at its cap."""
    terms = IndexReader(salted).term_dictionary()[0].tolist()[:40]
    shared = IndexReader(salted)
    shared._cache_cap = 2
    errors: list = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(3000):
                t = rng.choice(terms)
                assert shared.postings(t).term == t
        except Exception as e:  # reported by the assertion below
            errors.append(repr(e))

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads' evictions finely
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=300)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(shared._postings_cache) <= 2


def test_dropped_readers_close_their_files(salted):
    from docs_indexer_ray.stages.tokenize import term_part

    every = IndexReader(salted).term_dictionary()[0].tolist()
    terms = list({term_part(t, 8): t for t in every}.values())  # every partition

    def n_fds() -> int:
        gc.collect()
        return len(os.listdir("/proc/self/fd"))

    IndexReader(salted).postings(terms[0])  # first-use imports, caches
    before = n_fds()
    for _ in range(20):
        reader = IndexReader(salted)
        for t in terms:
            reader.postings(t)
        assert len([s for s in reader._segments.values() if s]) == 8
        del reader
    assert n_fds() == before


def test_older_layout_build_fails_loudly(salted, tmp_path):
    import shutil

    from docs_indexer_ray.index import manifest as mf
    from docs_indexer_ray.index.merge import merge_many

    root = str(tmp_path / "old")
    shutil.copytree(salted, root)
    bdir = mf.current_build(root)
    man = mf.read_manifest(bdir)
    del man["segment_layout"]
    with open(os.path.join(bdir, "manifest.json"), "w") as f:
        json.dump(man, f)
    with pytest.raises(ValueError, match="rebuild") as err:
        IndexReader(root)
    assert bdir in str(err.value) and "compact_index" in str(err.value)
    with pytest.raises(ValueError, match="older segment layout"):
        merge_many([salted, root], str(tmp_path / "merged"))
    # the current layout opens, and each partition file is where the
    # reader looks for it
    reader = IndexReader(salted)
    assert all(
        os.path.exists(segment_path(reader._seg_dir, k)) for k in range(reader.num_parts)
    )


@pytest.fixture(scope="module")
def salted_positions(ray_session, tmp_path_factory):
    import ray.data

    from docs_indexer_ray.index.build import build_index

    root = str(tmp_path_factory.mktemp("layout") / "pos")
    build_index(
        ray.data.from_arrow(_pages()), root,
        fingerprint="laypos", num_parts=8, salt_heavy=True,
        heavy_df_ratio=0.2, n_salt_runs=4, block_size=4, chain="simple",
        field="body", store_positions=True,
    )
    return root


def test_decode_range_positions_is_a_slice_of_the_full_decode(salted_positions):
    """``decode_range_positions(lo, hi)`` equals the ``[lo, hi)`` slice
    of ``decode_all()`` + ``decode_all_positions()`` for empty,
    in-block, block- and run-straddling, whole-list and out-of-bounds
    ranges of a salted heavy term; the whole list shares
    ``decode_all()``'s arrays."""
    reader = IndexReader(salted_positions)
    tp = next(
        tp for tp in map(reader.postings, sorted(reader.heavy))
        if len(tp._runs) >= 2
    )
    ids, tfs = tp.decode_all()
    flat, offs = tp.decode_all_positions()
    ids64 = ids.astype(np.int64)

    def want(lo, hi):
        j = np.flatnonzero((ids64 >= lo) & (ids64 < hi))
        pos = [flat[offs[i]:offs[i + 1]] for i in j]
        return (
            ids[j], tfs[j],
            np.concatenate(pos) if pos else np.empty(0, flat.dtype),
            np.concatenate(([0], np.cumsum(offs[j + 1] - offs[j]))),
        )

    blocks = [tp.decode_block(b)[0].astype(np.int64) for b in range(tp.n_blocks)]
    big = next(b for b in blocks if b[-1] - b[0] >= 2)
    rb = int(np.flatnonzero(np.diff(tp._run_of_block))[0]) + 1  # first run-2 block
    assert tp.n_blocks >= 4 and 2 <= rb < tp.n_blocks
    first, last = int(ids64[0]), int(ids64[-1])
    ranges = {
        "empty": (int(big[1]), int(big[1])),
        "inverted": (int(big[1]) + 1, int(big[1])),
        "inside one block": (int(big[0]) + 1, int(big[-1])),
        "straddling blocks": (int(blocks[0][1]), int(blocks[2][-1])),
        "straddling runs": (int(blocks[rb - 1][-1]), int(blocks[rb][0]) + 1),
        "whole list": (0, reader.n_docs),
        "beyond both ends": (-7, last + 100),
        "below the first id": (0, first),
        "above the last id": (last + 1, last + 100),
    }
    for name, (lo, hi) in ranges.items():
        got = tp.decode_range_positions(lo, hi)
        for g, w in zip(got, want(lo, hi)):
            assert np.array_equal(g, w), name
    whole = tp.decode_range_positions(0, reader.n_docs)
    assert whole[0] is ids and whole[1] is tfs  # decode_all's arrays, shared
    assert tp.decode_range_positions(0, reader.n_docs) is whole  # memoized
