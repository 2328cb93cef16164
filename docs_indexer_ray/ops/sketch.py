"""HyperLogLog distinct-count sketch — the cardinality scale path.

``facets.cardinality`` (exact) ships per-block unique values; fine
while the distinct count is "small", corpus-scale wrong when it isn't
(distinct urls of a 10^12-doc crawl).  This module implements the
standard HyperLogLog sketch (Flajolet, Fusy, Gandouet, Meunier 2007;
the algorithm behind OpenSearch's ``cardinality`` aggregation and
Redis PFCOUNT) the Ray-Data way:

* each ``map_batches`` task folds its batch into ONE ``m``-byte
  register row (vectorized: 64-bit value hash → bucket = top ``p``
  bits, rank = leading zeros of the rest, ``np.maximum.at``);
* block sketches merge by elementwise ``max`` — commutative,
  associative, idempotent, so the combine is parallelism-invariant
  and the driver-side fold is O(blocks × m) bytes, never row-scale;
* the estimator applies the linear-counting small-range correction
  below ``2.5 m`` (64-bit hashes make the large-range correction
  moot at any realistic cardinality).

Relative error ≈ 1.04/√m — p=14 (m=16384, 16 KiB per sketch) gives
≈0.8%.  Hashing is FNV-1a folded to 64 bits, vectorized across the
batch by byte POSITION (the ``winnow`` trick, ``textstats.py``) so no
Python-per-row loop runs in the hot path.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "HLL",
    "hll_sketch_batch",
    "approx_distinct",
    "TDigest",
    "BloomFilter",
    "bloom_from_dataset",
    "filter_unseen",
    "heavy_hitters",
]

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def _fnv1a_str(values: list, max_bytes: int = 4096) -> np.ndarray:
    """Vectorized FNV-1a over a list of strings → uint64 per value.

    Iterates byte POSITIONS (≤ longest value, capped), each step
    vectorized across all rows — identical digests to the scalar
    FNV-1a for values within the cap; longer values hash their first
    ``max_bytes`` (a 4 KiB prefix is plenty of entropy for counting).
    """
    bs = [
        (v if isinstance(v, str) else "" if v is None else str(v)).encode("utf-8")[
            :max_bytes
        ]
        for v in values
    ]
    n = len(bs)
    if n == 0:
        return np.empty(0, np.uint64)
    lens = np.fromiter((len(b) for b in bs), np.int64, n)
    width = max(1, int(lens.max()))
    mat = np.zeros((n, width), np.uint8)
    for i, b in enumerate(bs):
        mat[i, : len(b)] = np.frombuffer(b, np.uint8)
    h = np.full(n, _FNV_OFFSET)
    with np.errstate(over="ignore"):
        for j in range(width):
            live = lens > j
            h[live] = (h[live] ^ mat[live, j].astype(np.uint64)) * _FNV_PRIME
    return h


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer — uniform 64-bit hash for integer keys."""
    with np.errstate(over="ignore"):
        z = x.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _hash_column(col: pa.ChunkedArray | pa.Array) -> np.ndarray:
    if pa.types.is_integer(col.type):
        v = (
            col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        ).to_numpy(zero_copy_only=False)
        return _splitmix64(np.nan_to_num(v).astype(np.int64).view(np.uint64))
    # FNV-1a mixes similar short keys weakly in the high bits HLL
    # buckets on — finish with splitmix64 for full avalanche
    return _splitmix64(_fnv1a_str(col.to_pylist()))


def _leading_zeros64(x: np.ndarray) -> np.ndarray:
    """Vectorized count-leading-zeros for uint64 (64 where x == 0)."""
    x = x.copy()
    hi = np.zeros(x.shape, np.int64)
    nz_all = x != 0
    for s in (32, 16, 8, 4, 2, 1):
        y = x >> np.uint64(s)
        nz = y != 0
        hi[nz] += s
        x = np.where(nz, y, x)
    return np.where(nz_all, 63 - hi, 64)


class HLL:
    """A HyperLogLog register set: fold values in, merge, estimate."""

    def __init__(self, p: int = 14, registers: np.ndarray | None = None):
        if not 4 <= p <= 18:
            raise ValueError(f"p must be in [4, 18], got {p}")
        self.p = p
        self.m = 1 << p
        if registers is None:
            registers = np.zeros(self.m, np.uint8)
        if len(registers) != self.m:
            raise ValueError(f"register size {len(registers)} != 2^{p}")
        self.registers = registers.astype(np.uint8, copy=False)

    def add_hashes(self, h: np.ndarray) -> "HLL":
        if len(h):
            idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
            rank = (
                np.minimum(_leading_zeros64(h << np.uint64(self.p)), 64 - self.p) + 1
            ).astype(np.uint8)
            np.maximum.at(self.registers, idx, rank)
        return self

    def add_column(self, col) -> "HLL":
        # nulls are not values: SQL count(DISTINCT) / OpenSearch
        # cardinality both ignore them
        return self.add_hashes(_hash_column(col.drop_null()))

    def merge(self, other: "HLL") -> "HLL":
        if other.p != self.p:
            raise ValueError(f"cannot merge p={other.p} into p={self.p}")
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1.0 + 1.079 / m)
        e = alpha * m * m / np.sum(np.exp2(-self.registers.astype(np.float64)))
        if e <= 2.5 * m:
            v = int(np.count_nonzero(self.registers == 0))
            if v:
                return m * float(np.log(m / v))
        return float(e)


def hll_sketch_batch(t: pa.Table, col: str, p: int = 14) -> pa.Table:
    """One batch → one sketch row (``m``-byte binary) — the
    map_batches partial for :func:`approx_distinct`."""
    sk = HLL(p).add_column(t[col])
    return pa.table({"sketch": pa.array([sk.registers.tobytes()], pa.binary())})


def approx_distinct(ds, col: str, p: int = 14) -> int:
    """Approximate distinct count of ``ds[col]`` (±1.04/√2^p rel.
    error): streaming per-block sketches, constant-size driver merge.

    Deterministic (fixed hash) and parallelism-invariant (max-merge),
    so the same input estimates the same count at any block split —
    the property-test pin."""
    from ..collect import tables_of

    acc = HLL(p)
    for part in tables_of(
        ds.map_batches(
            lambda t: hll_sketch_batch(t, col, p), batch_format="pyarrow"
        )
    ):
        for buf in part["sketch"].to_pylist():
            acc.merge(HLL(p, np.frombuffer(buf, np.uint8)))
    return int(round(acc.estimate()))


class TDigest:
    """Merging t-digest (Dunning & Ertl, "Computing extremely accurate
    quantiles using t-digests") — the constant-size percentile sketch
    behind OpenSearch's ``percentiles`` aggregation.

    The Ray-Data shape mirrors :class:`HLL`: each ``map_batches`` task
    folds its batch into ONE ``O(delta)``-centroid row, block sketches
    merge by concatenate-and-compress on the driver (O(blocks · delta
    log delta) — never row-scale).  The k1 scale function
    ``k(q) = δ/(2π)·asin(2q−1)`` keeps tail centroids small, so p99 /
    p999 stay accurate while the middle compresses aggressively.

    Compression sorts centroids by mean (numpy mergesort — stable), so
    a digest's value is deterministic for a given merge ORDER; like
    every t-digest it is not bit-invariant across different block
    splits — estimates vary within the accuracy envelope (the pytest
    pin is a tolerance band, unlike HLL's exact invariance)."""

    def __init__(
        self,
        delta: int = 200,
        means: np.ndarray | None = None,
        weights: np.ndarray | None = None,
    ):
        if delta < 10:
            raise ValueError(f"delta must be >= 10, got {delta}")
        self.delta = delta
        self.means = np.empty(0, np.float64) if means is None else means
        self.weights = np.empty(0, np.float64) if weights is None else weights
        # true extremes, tracked outside the centroids — compression
        # may absorb the min/max point into a multi-weight centroid,
        # but q→0 / q→1 must still answer exactly (Dunning's digests
        # keep min/max for the same reason)
        self.vmin = float(self.means.min()) if len(self.means) else np.inf
        self.vmax = float(self.means.max()) if len(self.means) else -np.inf

    def _k(self, q: np.ndarray | float):
        return self.delta / (2 * np.pi) * np.arcsin(2 * np.clip(q, 0, 1) - 1)

    def add(self, values: np.ndarray) -> "TDigest":
        v = np.asarray(values, np.float64)
        v = v[~np.isnan(v)]
        if len(v):
            self.vmin = min(self.vmin, float(v.min()))
            self.vmax = max(self.vmax, float(v.max()))
            self.means = np.concatenate([self.means, v])
            self.weights = np.concatenate([self.weights, np.ones(len(v))])
            self._compress()
        return self

    def merge(self, other: "TDigest") -> "TDigest":
        if other.delta != self.delta:
            raise ValueError(f"cannot merge delta={other.delta} into {self.delta}")
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)
        self.means = np.concatenate([self.means, other.means])
        self.weights = np.concatenate([self.weights, other.weights])
        self._compress()
        return self

    def _compress(self) -> None:
        if len(self.means) <= 1:
            return
        order = np.argsort(self.means, kind="mergesort")
        m, w = self.means[order], self.weights[order]
        total = w.sum()
        out_m, out_w = [m[0]], [w[0]]
        q0 = 0.0  # cumulative quantile at the START of the open centroid
        k_lim = self._k(q0) + 1.0
        for i in range(1, len(m)):
            q_new = q0 + (out_w[-1] + w[i]) / total
            if self._k(q_new) <= k_lim:
                # absorb: weighted mean keeps the centroid centered
                out_m[-1] += (m[i] - out_m[-1]) * w[i] / (out_w[-1] + w[i])
                out_w[-1] += w[i]
            else:
                q0 += out_w[-1] / total
                k_lim = self._k(q0) + 1.0
                out_m.append(m[i])
                out_w.append(w[i])
        self.means = np.array(out_m, np.float64)
        self.weights = np.array(out_w, np.float64)

    def quantile(self, q: float) -> float | None:
        """Estimate the q-quantile (0 ≤ q ≤ 1) — linear interpolation
        between centroid midpoints, exact at the min/max ends."""
        if len(self.means) == 0:
            return None
        if len(self.means) == 1:
            return float(self.means[0])
        w, m = self.weights, self.means
        total = w.sum()
        target = q * total
        # centroid i covers cumulative midpoint cum[i] - w[i]/2
        cum = np.cumsum(w)
        mids = cum - w / 2.0
        if target <= mids[0]:
            # below the first midpoint: interpolate from the TRUE min
            # (position 0) up to the first centroid's mean
            return float(self.vmin + (m[0] - self.vmin) * max(target, 0.0) / mids[0])
        if target >= mids[-1]:
            span = total - mids[-1]
            frac = min(target - mids[-1], span) / span if span else 1.0
            return float(m[-1] + (self.vmax - m[-1]) * frac)
        i = int(np.searchsorted(mids, target, side="right")) - 1
        frac = (target - mids[i]) / (mids[i + 1] - mids[i])
        return float(m[i] + frac * (m[i + 1] - m[i]))

    def to_row(self) -> pa.Table:
        """One sketch → one Arrow row (the map_batches partial)."""
        return pa.table(
            {
                "means": pa.array([self.means.tolist()], pa.list_(pa.float64())),
                "weights": pa.array([self.weights.tolist()], pa.list_(pa.float64())),
                "vmin": pa.array([self.vmin], pa.float64()),
                "vmax": pa.array([self.vmax], pa.float64()),
            }
        )

    @classmethod
    def from_row(cls, t: pa.Table, delta: int = 200) -> "TDigest":
        acc = cls(delta)
        for i in range(t.num_rows):
            part = cls(
                delta,
                np.asarray(t["means"][i].as_py(), np.float64),
                np.asarray(t["weights"][i].as_py(), np.float64),
            )
            part.vmin = min(part.vmin, float(t["vmin"][i].as_py()))
            part.vmax = max(part.vmax, float(t["vmax"][i].as_py()))
            acc.merge(part)
        return acc


class BloomFilter:
    """Blocked-free classic Bloom filter — the constant-size SEEN-SET
    for incremental crawl/indexing pipelines (Bloom 1970; the
    web-crawler "have I fetched this URL" structure).

    ``m`` bits, ``n_hashes`` probes per key derived from ONE 64-bit
    value hash by double hashing ``h1 + i·h2`` (Kirsch & Mitzenmacher:
    two hashes give the asymptotic FP rate of k independent ones).
    NO false negatives ever — a key that was added always tests
    present; false positives occur at ≈ ``(1 − e^{−kn/m})^k``.

    The Ray-Data shape mirrors :class:`HLL`: each ``map_batches`` task
    folds its batch into one ``m/8``-byte register row; block filters
    merge by bitwise OR (commutative/associative/idempotent →
    parallelism-invariant, like HLL's max).  Probe-side,
    ``contains_column`` is a vectorized bit-test — use it inside a
    ``map_batches`` filter against a ``ray.put`` broadcast of the
    packed bits (≤ m/8 bytes once per node, zero-copy per task)."""

    def __init__(self, m_bits: int, n_hashes: int, bits: np.ndarray | None = None):
        if m_bits < 8 or m_bits % 8:
            raise ValueError(f"m_bits must be a positive multiple of 8, got {m_bits}")
        if not 1 <= n_hashes <= 16:
            raise ValueError(f"n_hashes must be in [1, 16], got {n_hashes}")
        self.m = m_bits
        self.k = n_hashes
        self.bits = np.zeros(m_bits >> 3, np.uint8) if bits is None else bits
        if len(self.bits) != m_bits >> 3:
            raise ValueError("bits size mismatch")

    @classmethod
    def sized(cls, capacity: int, fp_rate: float = 0.01) -> "BloomFilter":
        """Standard sizing: ``m = −n·ln p / ln²2`` bits, ``k = m/n·ln 2``."""
        n = max(1, capacity)
        m = int(np.ceil(-n * np.log(fp_rate) / (np.log(2) ** 2)))
        m = (m + 7) & ~7  # byte multiple
        k = max(1, int(round(m / n * np.log(2))))
        return cls(m, min(k, 16))

    def _positions(self, h: np.ndarray) -> np.ndarray:
        """(n, k) bit positions via double hashing on the 64-bit hash."""
        h1 = (h >> np.uint64(32)).astype(np.uint64)
        h2 = (h & np.uint64(0xFFFFFFFF)) | np.uint64(1)  # odd → full period
        i = np.arange(self.k, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return ((h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(self.m)).astype(
                np.int64
            )

    def add_hashes(self, h: np.ndarray) -> "BloomFilter":
        if len(h):
            pos = self._positions(h).ravel()
            np.bitwise_or.at(
                self.bits, pos >> 3, (np.uint8(1) << (pos & 7).astype(np.uint8))
            )
        return self

    def add_column(self, col) -> "BloomFilter":
        return self.add_hashes(_hash_column(col.drop_null()))

    def contains_hashes(self, h: np.ndarray) -> np.ndarray:
        if not len(h):
            return np.zeros(0, bool)
        pos = self._positions(h)
        hit = (self.bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
        return hit.all(axis=1)

    def contains_column(self, col) -> np.ndarray:
        """Vectorized membership test (nulls test False)."""
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        valid = np.asarray(pa.compute.is_valid(col))
        out = np.zeros(len(col), bool)
        if valid.any():
            out[valid] = self.contains_hashes(_hash_column(col.drop_null()))
        return out

    def merge(self, other: "BloomFilter") -> "BloomFilter":
        if (other.m, other.k) != (self.m, self.k):
            raise ValueError("cannot merge differently-shaped Bloom filters")
        np.bitwise_or(self.bits, other.bits, out=self.bits)
        return self


def bloom_from_dataset(ds, col: str, capacity: int, fp_rate: float = 0.01):
    """Build a :class:`BloomFilter` of ``ds[col]`` the streaming way:
    per-block filter partials (one ``m/8``-byte row each), OR-merged on
    the driver — constant-size state, never row-scale."""
    import ray

    proto = BloomFilter.sized(capacity, fp_rate)
    m, k = proto.m, proto.k

    def partial(t: pa.Table) -> pa.Table:
        bf = BloomFilter(m, k).add_column(t[col])
        return pa.table({"bits": pa.array([bf.bits.tobytes()], pa.binary())})

    from ..collect import tables_of

    acc = BloomFilter(m, k)
    for part in tables_of(ds.map_batches(partial, batch_format="pyarrow")):
        for buf in part["bits"].to_pylist():
            acc.merge(BloomFilter(m, k, np.frombuffer(buf, np.uint8).copy()))
    return acc


def filter_unseen(ds, col: str, bloom: BloomFilter):
    """Drop rows whose ``col`` is (probably) in ``bloom`` — the
    incremental-crawl admission filter.  NO false negatives: a seen
    key is never re-admitted; a ≈fp_rate fraction of genuinely-new
    keys is dropped too (the documented Bloom trade — size the filter
    for the corpus, or run an exact reconciliation downstream).

    The packed bits are broadcast ONCE (``ray.put``); each task
    bit-tests its batch vectorized."""
    import ray

    bits_ref = ray.put(bloom.bits)
    m, k = bloom.m, bloom.k

    def keep_new(t: pa.Table) -> pa.Table:
        bf = BloomFilter(m, k, ray.get(bits_ref))
        return t.filter(pa.array(~bf.contains_column(t[col])))

    return ds.map_batches(keep_new, batch_format="pyarrow")


def _topm_partial(t: pa.Table, col: str, m: int) -> pa.Table:
    """One block → its exact top-``m`` (item, cnt) rows plus ONE
    null-item row carrying the block's truncation threshold ``thr``
    (the largest dropped count; 0 when nothing was dropped).  Every
    candidate row also carries its block's ``thr`` so the combine can
    reconstruct per-item absence bounds without block ids."""
    col_arr = t[col].combine_chunks()
    item_type = col_arr.type
    # docs missing the field are ignored (OpenSearch missing-value
    # semantics) — a null would both break the lexsort and collide
    # with the null-item sentinel row below
    vc = col_arr.drop_null().value_counts()
    items = vc.field("values")
    counts = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
    vals = np.asarray(items.to_pylist(), dtype=object)
    # (count desc, item asc) — the deterministic heavy-hitter order
    order = np.lexsort((vals, -counts))
    kept = order[:m]
    dropped = order[m:]
    thr = int(counts[dropped].max()) if dropped.size else 0
    # items keep the COLUMN's type (int codes, string terms, …); the
    # sentinel row is the one null
    return pa.table(
        {
            "item": pa.array(list(vals[kept]) + [None], item_type),
            "cnt": pa.array(list(counts[kept]) + [0], pa.int64()),
            "thr": pa.array([thr] * (len(kept) + 1), pa.int64()),
        }
    )


def heavy_hitters(ds, col: str, k: int = 10, m: int = 1024) -> pa.Table:
    """Top-``k`` most frequent values of ``ds[col]`` with deterministic
    count BOUNDS — the heavy-hitters scale path for the ``terms``
    aggregation (exact ``terms_facet`` ships distinct-per-block partial
    rows; corpus-scale wrong when the key domain is unbounded — think
    distinct URLs of a 10^12-doc crawl).

    Distributed mergeable-summary shape (Agarwal et al., "Mergeable
    Summaries", PODS 2012; counters as in Metwally et al.'s
    SpaceSaving): each block keeps its EXACT top-``m`` counters plus
    the largest truncated count ``thr``; for a candidate item

    * ``lo``  = Σ counts over blocks where it surfaced (true count ≥ lo),
    * ``hi``  = lo + Σ thr over blocks where it did NOT surface
      (it can hide below the threshold only in those blocks),

    and any item that surfaced NOWHERE has true count ≤ Σ thr.  The
    returned top-``k`` (by ``lo`` desc, item asc) is provably the true
    top-``k`` when ``guaranteed`` is true: the k-th ``lo`` strictly
    dominates every excluded candidate's ``hi`` and the never-seen
    bound.  When every block's distinct count fits ``m`` all ``thr``
    are 0, ``lo == hi`` == the exact count, and ``guaranteed`` is
    always true — the mode the SQL oracle pins bit-exactly.

    Driver state is output-scale (≤ blocks × (m+1) rows), never
    key-domain-scale; the per-block partial is one vectorized
    ``value_counts`` + lexsort.
    """
    from ..collect import tables_of

    return fold_heavy_hitters(
        tables_of(
            ds.map_batches(
                lambda t: _topm_partial(t, col, m), batch_format="pyarrow"
            )
        ),
        k,
    )


def fold_heavy_hitters(parts: list[pa.Table], k: int) -> pa.Table:
    """The driver-side fold of :func:`_topm_partial` block summaries →
    :func:`heavy_hitters`' top-``k`` table with its count bounds."""
    parts = [p for p in parts if p.num_rows]
    if not parts:
        return pa.table(
            {
                "item": pa.array([], pa.string()),
                "lo": pa.array([], pa.int64()),
                "hi": pa.array([], pa.int64()),
                "guaranteed": pa.array([], pa.bool_()),
            }
        )
    allp = pa.concat_tables(parts)
    item_type = allp.schema.field("item").type
    is_thr_row = pc.is_null(allp["item"])
    total_thr = int(pc.sum(allp.filter(is_thr_row)["thr"]).as_py())
    cand = allp.filter(pc.invert(is_thr_row))
    items = np.asarray(cand["item"].to_pylist(), dtype=object)
    cnts = cand["cnt"].to_numpy(zero_copy_only=False)
    thrs = cand["thr"].to_numpy(zero_copy_only=False)
    uniq, inv = np.unique(items, return_inverse=True)
    lo = np.zeros(len(uniq), np.int64)
    present_thr = np.zeros(len(uniq), np.int64)
    np.add.at(lo, inv, cnts)
    np.add.at(present_thr, inv, thrs)
    hi = lo + (total_thr - present_thr)
    order = np.lexsort((uniq, -lo))
    top, rest = order[:k], order[k:]
    excluded_hi = int(hi[rest].max()) if rest.size else 0
    kth_lo = int(lo[top].min()) if top.size else 0
    guaranteed = total_thr == 0 or (
        kth_lo > excluded_hi and kth_lo > total_thr
    )
    return pa.table(
        {
            "item": pa.array(list(uniq[top]), item_type),
            "lo": pa.array(lo[top], pa.int64()),
            "hi": pa.array(hi[top], pa.int64()),
            "guaranteed": pa.array([guaranteed] * len(top), pa.bool_()),
        }
    )
