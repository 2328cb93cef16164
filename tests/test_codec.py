"""Codec round-trip + property tests (FIXTURES.md §3)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from docs_indexer_ray.functions.codec import (
    BLOCK_SIZE,
    decode_block,
    decode_postings,
    encode_postings,
    varint_decode,
    varint_encode,
)


def test_varint_known_values():
    assert varint_encode(np.array([0], dtype=np.uint64)) == b"\x00"
    assert varint_encode(np.array([127], dtype=np.uint64)) == b"\x7f"
    assert varint_encode(np.array([128], dtype=np.uint64)) == b"\x80\x01"
    assert varint_encode(np.array([300], dtype=np.uint64)) == b"\xac\x02"


def test_varint_empty():
    assert varint_encode(np.array([], dtype=np.uint64)) == b""
    assert len(varint_decode(b"")) == 0


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=500))
@settings(max_examples=200, deadline=None)
def test_varint_roundtrip(values):
    a = np.array(values, dtype=np.uint64)
    assert np.array_equal(varint_decode(varint_encode(a)), a)


def test_varint_uint64_max():
    a = np.array([2**64 - 1, 0, 2**63], dtype=np.uint64)
    assert np.array_equal(varint_decode(varint_encode(a)), a)


@given(
    st.lists(st.integers(min_value=0, max_value=10**12), min_size=1, max_size=700, unique=True),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_postings_roundtrip(ids, data):
    doc_ids = np.sort(np.array(ids, dtype=np.uint64))
    n = len(doc_ids)
    tfs = np.array(data.draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n)), dtype=np.uint64)
    dls = np.array(data.draw(st.lists(st.integers(1, 10000), min_size=n, max_size=n)), dtype=np.uint64)
    enc = encode_postings(doc_ids, tfs, dls)
    out_ids, out_tfs = decode_postings(enc["doc_ids_enc"], enc["tfs_enc"])
    assert np.array_equal(out_ids, doc_ids)
    assert np.array_equal(out_tfs, tfs)
    assert enc["df"] == n
    assert enc["cf"] == int(tfs.sum())


def test_postings_block_metadata_and_block_decode():
    n = 1000
    rng = np.random.default_rng(42)
    doc_ids = np.sort(rng.choice(10**9, size=n, replace=False)).astype(np.uint64)
    tfs = rng.integers(1, 50, n).astype(np.uint64)
    dls = rng.integers(10, 500, n).astype(np.uint64)
    enc = encode_postings(doc_ids, tfs, dls)
    n_blocks = (n + BLOCK_SIZE - 1) // BLOCK_SIZE
    assert len(enc["block_last"]) == n_blocks
    # per-block decode matches slices of the full list
    for b in range(n_blocks):
        lo, hi = b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, n)
        ids_b, tfs_b = decode_block(
            enc["doc_ids_enc"], enc["tfs_enc"],
            enc["block_id_offsets"], enc["block_tf_offsets"], b)
        assert np.array_equal(ids_b, doc_ids[lo:hi])
        assert np.array_equal(tfs_b, tfs[lo:hi])
        assert enc["block_last"][b] == doc_ids[hi - 1]
        assert enc["block_max_tf"][b] == tfs[lo:hi].max()
        assert enc["block_min_dl"][b] == dls[lo:hi].min()


def test_decode_range_correct_and_memoized():
    """decode_range == the [lo, hi) slice of decode_all, and repeated
    calls with the same range return the memoized arrays (a shard
    reader queries one fixed range; without the memo every query
    re-pays varint decode)."""
    from docs_indexer_ray.query.segments_io import TermPostings

    n = 700
    rng = np.random.default_rng(7)
    doc_ids = np.sort(rng.choice(50_000, size=n, replace=False)).astype(np.uint64)
    tfs = rng.integers(1, 30, n).astype(np.uint64)
    dls = rng.integers(10, 400, n).astype(np.uint64)
    enc = encode_postings(doc_ids, tfs, dls)
    tp = TermPostings.from_rows("t", [dict(enc, rpart=0)])
    all_ids, all_tfs = tp.decode_all()
    for lo, hi in [(0, 50_000), (10_000, 30_000), (0, 1), (49_999, 50_000), (5, 5)]:
        ids_r, tfs_r = tp.decode_range(lo, hi)
        keep = (all_ids >= lo) & (all_ids < hi)
        assert np.array_equal(ids_r, all_ids[keep]), (lo, hi)
        assert np.array_equal(tfs_r, all_tfs[keep]), (lo, hi)
        again = tp.decode_range(lo, hi)
        assert again[0] is ids_r and again[1] is tfs_r  # memo hit
    # a range covering the whole list (one in-process shard) shares
    # decode_all's memo instead of holding a second decoded copy
    assert tp.decode_range(0, 50_000)[0] is all_ids


def test_positions_roundtrip():
    import numpy as np

    from docs_indexer_ray.functions.codec import (
        decode_positions_block,
        encode_positions,
    )

    rs = np.random.RandomState(5)
    plists = [
        np.sort(rs.choice(500, size=rs.randint(1, 9), replace=False)).astype(np.uint64)
        for _ in range(300)
    ]
    enc, offsets = encode_positions(plists, block_size=128)
    got = []
    for b in range(len(offsets) - 1):
        block = plists[b * 128 : (b + 1) * 128]
        tfs = np.array([len(p) for p in block], np.uint64)
        flat, offs = decode_positions_block(
            memoryview(enc)[offsets[b] : offsets[b + 1]], tfs
        )
        got.extend(flat[offs[j] : offs[j + 1]].tolist() for j in range(len(block)))
    assert [list(map(int, p)) for p in plists] == [list(map(int, g)) for g in got]


def test_vectorized_partition_encode_matches_per_term():
    """The no-Python-loop partition encoder produces exactly the same
    segment rows as per-term ``encode_postings``."""
    import numpy as np
    import pyarrow as pa

    from docs_indexer_ray.functions.codec import encode_postings
    from docs_indexer_ray.index.segments import SEGMENT_SCHEMA, encode_partition_codes

    rs = np.random.RandomState(11)
    n_terms, rows = 37, []
    codes_l, doc_l, tf_l, dl_l = [], [], [], []
    for t in range(n_terms):
        df = rs.randint(1, 400)
        ids = np.sort(rs.choice(5000, size=df, replace=False)).astype(np.uint64)
        tf = rs.randint(1, 9, size=df).astype(np.uint64)
        dl = rs.randint(5, 900, size=df).astype(np.uint64)
        codes_l.append(np.full(df, t))
        doc_l.append(ids)
        tf_l.append(tf)
        dl_l.append(dl)
    codes = np.concatenate(codes_l)
    doc = np.concatenate(doc_l)
    tf = np.concatenate(tf_l)
    dl = np.concatenate(dl_l)
    terms = np.array([f"t{t:04d}" for t in range(n_terms)], dtype=object)
    # shuffle row order — the encoder must sort internally
    perm = rs.permutation(len(codes))
    got = encode_partition_codes(
        codes[perm], terms, doc[perm], tf[perm], dl[perm], rpart=3, block_size=64
    )
    assert got.schema.equals(SEGMENT_SCHEMA)

    want_rows = []
    for t in range(n_terms):
        enc = encode_postings(doc_l[t], tf_l[t], dl_l[t], block_size=64)
        want_rows.append(enc)
    assert got.num_rows == n_terms
    for i in range(n_terms):
        row = {name: got[name][i].as_py() for name in got.column_names}
        enc = want_rows[i]
        assert row["term"] == f"t{i:04d}" and row["rpart"] == 3
        assert row["df"] == enc["df"] and row["cf"] == enc["cf"]
        assert row["doc_ids_enc"] == enc["doc_ids_enc"]
        assert row["tfs_enc"] == enc["tfs_enc"]
        assert row["block_last"] == list(enc["block_last"])
        assert row["block_id_offsets"] == list(enc["block_id_offsets"])
        assert row["block_tf_offsets"] == list(enc["block_tf_offsets"])
        assert row["block_max_tf"] == list(enc["block_max_tf"])
        assert row["block_min_dl"] == list(enc["block_min_dl"])
        assert row["max_tf"] == enc["max_tf"] and row["min_dl"] == enc["min_dl"]
