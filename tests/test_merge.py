"""Incremental merge: merge(build(A), build(B)) ≡ build(A ∪ B).

Doc ids differ between the merged and from-scratch indexes (base ids +
shifted delta ids vs global url rank), so equivalence is checked on
(url, score): identical BM25 statistics (N, avgdl, df, tf, dl) must
yield identical scores per document.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.dataset as pads
import pytest

from docs_indexer_ray.functions.analyzer import Analyzer
from docs_indexer_ray.index.build import build_index
from docs_indexer_ray.index.merge import merge_many
from docs_indexer_ray.query.bm25 import score_topk
from docs_indexer_ray.query.reader import IndexReader
from docs_indexer_ray.synth import rich_pages_table

QUERIES = ["node pools", "quota namespace limit", "helm upgrade changelog", "page"]


def _url_map(index_dir: str) -> dict[int, str]:
    t = pads.dataset(os.path.join(index_dir, "docs"), partitioning="hive").to_table(
        columns=["doc_id", "url"]
    )
    return dict(zip(t["doc_id"].to_pylist(), t["url"].to_pylist()))


def _results_by_url(root: str, k: int = 50) -> dict[str, list[tuple[str, float]]]:
    from docs_indexer_ray.index import manifest as mf

    reader = IndexReader(root)
    urls = _url_map(mf.current_build(root))
    an = Analyzer("english")
    out = {}
    for q in QUERIES:
        hits = score_topk(reader, an(q), k=k)
        out[q] = sorted((urls[d], round(s, 9)) for d, s in hits)
    return out


@pytest.mark.parametrize("salt", [False, True])
def test_merge_equals_full_build(ray_session, tmp_path, salt):
    import ray.data

    pages = rich_pages_table(60, dup_every=0)
    half_a = pages.slice(0, 30)
    half_b = pages.slice(30)

    kw = dict(
        num_parts=8,
        salt_heavy=salt,
        heavy_df_ratio=0.2,
        n_salt_runs=4,
    )
    build_index(ray.data.from_arrow(half_a), str(tmp_path / "a"), fingerprint="a", **kw)
    build_index(ray.data.from_arrow(half_b), str(tmp_path / "b"), fingerprint="b", **kw)
    build_index(ray.data.from_arrow(pages), str(tmp_path / "full"), fingerprint="f", **kw)

    man = merge_many([str(tmp_path / "a"), str(tmp_path / "b")], str(tmp_path / "m"))
    assert man["n_docs"] == 60

    merged = _results_by_url(str(tmp_path / "m"))
    full = _results_by_url(str(tmp_path / "full"))
    for q in QUERIES:
        assert merged[q] == full[q], q


def test_merge_stats_add(ray_session, tmp_path):
    import ray.data

    pages = rich_pages_table(40, dup_every=0)
    build_index(
        ray.data.from_arrow(pages.slice(0, 25)),
        str(tmp_path / "a"),
        fingerprint="a",
        num_parts=8,
        salt_heavy=False,
    )
    build_index(
        ray.data.from_arrow(pages.slice(25)),
        str(tmp_path / "b"),
        fingerprint="b",
        num_parts=8,
        salt_heavy=False,
    )
    man = merge_many([str(tmp_path / "a"), str(tmp_path / "b")], str(tmp_path / "m"))
    reader = IndexReader(str(tmp_path / "m"))
    assert reader.n_docs == 40
    # every doc has a norm after the merge (carriers survived the shift)
    assert (reader.doclens > 0).all()


@pytest.mark.parametrize("k_inputs", [3, 4])
def test_merge_many_equals_full_build(ray_session, tmp_path, k_inputs):
    import ray.data

    from docs_indexer_ray.index.merge import merge_many

    n = 48
    pages = rich_pages_table(n, dup_every=0)
    step = n // k_inputs
    parts = [pages.slice(i * step, step if i < k_inputs - 1 else n - i * step)
             for i in range(k_inputs)]
    kw = dict(num_parts=8, salt_heavy=False)
    for i, part in enumerate(parts):
        build_index(
            ray.data.from_arrow(part), str(tmp_path / f"p{i}"), fingerprint=f"p{i}", **kw
        )
    build_index(ray.data.from_arrow(pages), str(tmp_path / "full"), fingerprint="f", **kw)

    man = merge_many(
        [str(tmp_path / f"p{i}") for i in range(k_inputs)], str(tmp_path / "m")
    )
    assert man["n_docs"] == n
    merged = _results_by_url(str(tmp_path / "m"))
    full = _results_by_url(str(tmp_path / "full"))
    for q in QUERIES:
        assert merged[q] == full[q], q


def test_merge_carries_extra_chains(ray_session, tmp_path):
    """A multi-field build's trigram/reverse posting tables survive the
    merge (previously they were silently dropped — suggesters died)."""
    import ray.data

    pages = rich_pages_table(40, dup_every=0)
    kw = dict(num_parts=8, salt_heavy=False, extra_chains=["trigram"])
    build_index(
        ray.data.from_arrow(pages.slice(0, 20)), str(tmp_path / "a"), fingerprint="a", **kw
    )
    build_index(
        ray.data.from_arrow(pages.slice(20)), str(tmp_path / "b"), fingerprint="b", **kw
    )
    build_index(ray.data.from_arrow(pages), str(tmp_path / "full"), fingerprint="f", **kw)

    man = merge_many([str(tmp_path / "a"), str(tmp_path / "b")], str(tmp_path / "m"))
    assert "trigram" in man["chains"]

    merged = IndexReader(str(tmp_path / "m"), chain="trigram")
    full = IndexReader(str(tmp_path / "full"), chain="trigram")
    # suggester surface: same shingle dictionary with the same dfs
    assert merged.prefix_terms("node ", limit=5) == full.prefix_terms("node ", limit=5)
    assert merged.prefix_terms("quota", limit=5) == full.prefix_terms("quota", limit=5)


def test_merge_chain_mismatch_raises(ray_session, tmp_path):
    import ray.data

    pages = rich_pages_table(20, dup_every=0)
    build_index(
        ray.data.from_arrow(pages.slice(0, 10)),
        str(tmp_path / "a"),
        fingerprint="a",
        num_parts=8,
        salt_heavy=False,
        extra_chains=["trigram"],
    )
    build_index(
        ray.data.from_arrow(pages.slice(10)),
        str(tmp_path / "b"),
        fingerprint="b",
        num_parts=8,
        salt_heavy=False,
    )
    with pytest.raises(ValueError, match="chains"):
        merge_many([str(tmp_path / "a"), str(tmp_path / "b")], str(tmp_path / "m"))


def test_merge_preserves_positions(ray_session, tmp_path):
    """Phrase queries work identically on merged vs full positions
    builds (position streams are shift-invariant; only doc ids move)."""
    import ray.data

    from docs_indexer_ray.query.phrase import match_phrase

    pages = rich_pages_table(40, dup_every=0)
    kw = dict(num_parts=8, salt_heavy=False, chain="simple", field="body",
              store_positions=True)
    build_index(
        ray.data.from_arrow(pages.slice(0, 20)), str(tmp_path / "a"), fingerprint="a", **kw
    )
    build_index(
        ray.data.from_arrow(pages.slice(20)), str(tmp_path / "b"), fingerprint="b", **kw
    )
    build_index(ray.data.from_arrow(pages), str(tmp_path / "full"), fingerprint="f", **kw)
    merge_many([str(tmp_path / "a"), str(tmp_path / "b")], str(tmp_path / "m"))

    def by_url(root, phrase):
        urls = _url_map(__import__("docs_indexer_ray.index.manifest", fromlist=["m"]).current_build(root))
        return sorted((urls[d], f) for d, f in match_phrase(IndexReader(root), phrase))

    for phrase in (["node", "pools"], ["per", "namespace"]):
        assert by_url(str(tmp_path / "m"), phrase) == by_url(str(tmp_path / "full"), phrase)

    # the merged manifest carries the flag — a reader of the merged
    # index can still tell it has positions
    from docs_indexer_ray.index import manifest as mf

    man = mf.read_manifest(mf.current_build(str(tmp_path / "m")))
    assert man["store_positions"] is True


def test_merge_positions_mismatch_raises(ray_session, tmp_path):
    """Merging a positions build with a non-positions build must fail
    fast at the agreement check, not late inside concat with a schema
    error (which would leave a mixed, partially-positioned index)."""
    import ray.data

    pages = rich_pages_table(20, dup_every=0)
    kw = dict(num_parts=8, salt_heavy=False, chain="simple", field="body")
    build_index(
        ray.data.from_arrow(pages.slice(0, 10)), str(tmp_path / "a"),
        fingerprint="a", store_positions=True, **kw
    )
    build_index(
        ray.data.from_arrow(pages.slice(10)), str(tmp_path / "b"),
        fingerprint="b", store_positions=False, **kw
    )
    with pytest.raises(ValueError, match="store_positions"):
        merge_many([str(tmp_path / "a"), str(tmp_path / "b")], str(tmp_path / "m"))


def test_merge_carry_deletes_shifts_tombstones(ray_session, tmp_path):
    """carry_deletes=True: each input's tombstones map to id+shift in
    the merged build (a merge shifts, never compacts) and stay hidden
    from every query; default still refuses tombstoned inputs."""
    import numpy as np
    import ray.data

    from docs_indexer_ray.index import manifest as mf
    from docs_indexer_ray.index.deletes import add_deletes, load_delete_ids
    from docs_indexer_ray.index.merge import merge_many
    from docs_indexer_ray.query.reader import IndexReader

    pages = rich_pages_table(40, dup_every=0)
    roots = []
    for i, half in enumerate((pages.slice(0, 20), pages.slice(20))):
        r = str(tmp_path / f"cd{i}")
        build_index(
            ray.data.from_arrow(half), r, fingerprint=f"cd{i}",
            num_parts=4, chain="english", field="body",
        )
        roots.append(r)
    # tombstone doc 3 in input 0 and doc 5 in input 1
    add_deletes(mf.current_build(roots[0]), [3])
    add_deletes(mf.current_build(roots[1]), [5])

    with pytest.raises(ValueError, match="tombstones"):
        merge_many(roots, str(tmp_path / "refuse"), fingerprint="r")

    out = str(tmp_path / "cdm")
    man = merge_many(roots, out, fingerprint="cdm", carry_deletes=True)
    shift = 20  # input 0 has 20 docs
    got = load_delete_ids(mf.current_build(out)).tolist()
    assert got == [3, 5 + shift]
    reader = IndexReader(out)
    assert reader.match_all_count() == int(man["n_docs"]) - 2
    # the tombstoned urls never surface
    urls = _url_map(mf.current_build(out))
    an = Analyzer("english")
    dead = {urls[3], urls[5 + shift]}
    for q in QUERIES:
        hits = score_topk(reader, an(q), k=50)
        assert not ({urls[d] for d, _ in hits} & dead)


def _shift_encoded_ids(enc: bytes, id_offsets: list[int], shift: int):
    """Scalar oracle: add ``shift`` to every encoded doc id by patching
    each block's first (absolute) varint; other bytes are reused."""
    import numpy as np

    from docs_indexer_ray.functions.codec import varint_decode, varint_encode

    mv = memoryview(enc)
    chunks: list[bytes] = []
    new_off = [0]
    s = np.uint64(shift)
    for j in range(len(id_offsets) - 1):
        block = mv[id_offsets[j] : id_offsets[j + 1]]
        b = np.frombuffer(block, np.uint8)
        end = int(np.flatnonzero((b & 0x80) == 0)[0])  # first varint's last byte
        first = varint_decode(block[: end + 1])[0]
        chunk = varint_encode(np.array([first + s], np.uint64)) + bytes(block[end + 1 :])
        chunks.append(chunk)
        new_off.append(new_off[-1] + len(chunk))
    return b"".join(chunks), new_off


def _shift_rows_oracle(t: pa.Table, shift: int, k: int) -> pa.Table:
    """Row-at-a-time reference for ``merge._shift_rows``."""
    import numpy as np

    t = t.set_column(
        t.schema.get_field_index("rpart"),
        "rpart",
        pa.array(np.full(t.num_rows, k, np.int32), pa.int32()),
    )
    if shift == 0:
        return t
    new_enc, new_off, new_bl = [], [], []
    for enc, offs, bl in zip(
        t["doc_ids_enc"].to_pylist(),
        t["block_id_offsets"].to_pylist(),
        t["block_last"].to_pylist(),
    ):
        e2, o2 = _shift_encoded_ids(enc, offs, shift)
        new_enc.append(e2)
        new_off.append(o2)
        new_bl.append([x + shift for x in bl])
    for name, col in (
        ("doc_ids_enc", pa.array(new_enc, pa.binary())),
        ("block_id_offsets", pa.array(new_off, pa.list_(pa.uint32()))),
        ("block_last", pa.array(new_bl, pa.list_(pa.uint64()))),
    ):
        t = t.set_column(t.schema.get_field_index(name), name, col)
    return t


@pytest.fixture(scope="module")
def salted_build(ray_session, tmp_path_factory):
    """A salted 8-partition build with 4-posting blocks (many blocks
    per row), plus the same pages built unsalted."""
    import ray.data

    from docs_indexer_ray.index import manifest as mf

    pages = rich_pages_table(80, dup_every=0)
    base = tmp_path_factory.mktemp("salted")
    out = {}
    for salt in (True, False):
        root = str(base / f"salt{int(salt)}")
        build_index(
            ray.data.from_arrow(pages), root, fingerprint=f"s{int(salt)}",
            num_parts=8, salt_heavy=salt, heavy_df_ratio=0.2, n_salt_runs=4,
            block_size=4,
        )
        bdir = mf.current_build(root)
        out[salt] = (os.path.join(bdir, "segments"), mf.read_manifest(bdir))
    return out


SHIFTS = [0, 1, 127, 128, 16383, 16384, 1 << 21, (1 << 35) + 7]


@pytest.mark.parametrize("shift", SHIFTS)
def test_shift_rows_matches_scalar_oracle(salted_build, shift):
    """The vectorized block patch equals the per-block scalar patch,
    for shifts that grow a block's first varint by 0 to 5 bytes, and
    on multi-chunk inputs (salted rows read from several files)."""
    from docs_indexer_ray.index.merge import _load_home_rows, _shift_rows
    from docs_indexer_ray.index.segments import SEGMENT_SCHEMA

    seg_dir, man = salted_build[True]
    n_blocks = 0
    for k in range(8):
        t = _load_home_rows(seg_dir, man, k)
        n_blocks += sum(len(x) for x in t["block_last"].to_pylist())
        assert _shift_rows(t, shift, k).equals(_shift_rows_oracle(t, shift, k)), k
    assert n_blocks > 4 * man["n_docs"]  # rows hold many blocks
    empty = SEGMENT_SCHEMA.empty_table()
    assert _shift_rows(empty, shift, 3).equals(_shift_rows_oracle(empty, shift, 3))


def test_load_home_rows_routes_salted_runs(salted_build):
    """Routing by heavy-set membership keeps exactly the rows that
    hashing every row's term keeps, and a heavy term's run dfs summed
    over its home partition equal its unsalted df."""
    import pyarrow.compute as pc
    from docs_indexer_ray.index.merge import _load_home_rows
    from docs_indexer_ray.index.segments import read_segment, segment_path
    from docs_indexer_ray.stages.tokenize import term_part

    seg_dir, man = salted_build[True]
    heavy = man["heavy_terms"]
    assert heavy and man["n_salt_runs"] == 4
    files = [read_segment(segment_path(seg_dir, rp)) for rp in range(8)]
    for k in range(8):
        keep = [
            t.filter(pa.array([term_part(x, 8) == k for x in t["term"].to_pylist()]))
            for t in files
        ]
        want = pa.concat_tables([t for t in keep if t.num_rows])
        assert _load_home_rows(seg_dir, man, k).equals(want), k

    plain_dir, _ = salted_build[False]
    n_runs = 0
    for h in heavy:
        home = term_part(h, 8)
        runs = _load_home_rows(seg_dir, man, home)
        runs = runs.filter(pc.equal(runs["term"], h))
        n_runs = max(n_runs, runs.num_rows)
        plain = read_segment(segment_path(plain_dir, home))
        df = plain.filter(pc.equal(plain["term"], h))["df"].to_pylist()
        assert df == [sum(runs["df"].to_pylist())], h
    assert n_runs > 1  # some heavy term really is split into runs
