"""Flagship pipelines used by ``__ray_entry__`` and ``bench.py``.

Everything here assumes Ray is already initialised by the caller
(driver contract) — nothing calls ``ray.init``.

Index builds are cached on disk under ``/tmp/dixr_cache/<prefix>``
keyed by the input fingerprint, so repeated ``queries()`` invocations
over the same ``sf_dir`` short-circuit exactly like the reference's
``check_index`` (``/root/reference/hugo.py:424-427``).
"""

from __future__ import annotations

import os

import pandas as pd

from ..index.build import build_index
from ..query.bm25 import topk
from ..query.reader import IndexReader
from ..synth import pages_from_documents

CACHE_ROOT = os.environ.get("DIXR_CACHE", "/tmp/dixr_cache")


def pages_dataset(sf_dir: str, expand: int = 1):
    return pages_from_documents(sf_dir, expand=expand)


def docs_store_dataset(sf_dir: str, columns: list[str] | None = None):
    """Streaming Dataset over the cached on-disk docs store for
    ``sf_dir`` (built by the same ``build_docs_store`` path the index
    build uses — the reference's stored-fields table, D9).  Returns
    ``(dataset, n_docs)``; pass ``columns`` to prune the read."""
    import ray.data

    from ..index import manifest as mf

    res, root = ensure_index(sf_dir, chain="simple", field="body")
    bdir = mf.current_build(root)
    docs_dir = os.path.join(bdir, "docs")
    if columns is not None and "text" in columns:
        # the store doesn't persist the derivable catch-all — read the
        # synthesis inputs and re-derive (byte-identical; extract.py)
        from ..stages.extract import synthesize_text

        need = [c for c in columns if c != "text"]
        read_cols = list(dict.fromkeys(need + ["title", "body", "uri", "breadcrumb"]))
        ds = ray.data.read_parquet(docs_dir, columns=read_cols)
        ds = ds.map_batches(
            lambda t: synthesize_text(t).select(columns), batch_format="pyarrow"
        )
    else:
        ds = ray.data.read_parquet(docs_dir, columns=columns)
    return ds, int(res["n_docs"])


def ensure_index(
    sf_dir: str,
    *,
    chain: str = "english",
    field: str = "text",
    expand: int = 1,
    **build_kw,
):
    """Build-or-reuse the index for ``sf_dir`` with this analyzer/field."""
    prefix = (
        f"{chain}-{field}"
        + ("-pos" if build_kw.get("store_positions") else "")
        + (f"-x{expand}" if expand > 1 else "")
    )
    out_root = os.path.join(CACHE_ROOT, prefix)
    os.makedirs(out_root, exist_ok=True)
    from ..index import manifest as mf
    from ..synth import synthetic_url_boundaries

    fp = mf.input_fingerprint(
        [os.path.join(sf_dir, "documents.parquet")],
        config=f"{chain}|{field}|x{expand}"
        + ("|pos" if build_kw.get("store_positions") else ""),
    )
    res = build_index(
        pages_dataset(sf_dir, expand=expand),
        out_root,
        prefix=prefix,
        field=field,
        chain=chain,
        fingerprint=fp,
        docpart_boundaries=synthetic_url_boundaries(sf_dir, 16, expand),
        **build_kw,
    )
    return res, out_root


def search(index_root: str, query: str, k: int = 10, chain: str = "english"):
    """Top-k BM25 over the published index; returns [(doc_id, score)].

    ``chain`` selects BOTH the query analyzer and the matching posting
    table — analyzing with one chain but reading the main chain's
    segments silently returns garbage for extra-chain queries."""
    from ..functions.analyzer import Analyzer

    reader = IndexReader(index_root, chain=chain)
    return topk(reader, Analyzer(chain)(query), k=k)


FLAGSHIP_QUERIES = [
    "table scan merge slow",
    "customer order data",
    "window batch stream",
    "spark join value",
    "refresh",
]


def entry_flagship(sf_dir: str) -> pd.DataFrame:
    """Build the english-analyzer index over the synthesized pages table
    and answer the fixed query set — the end-to-end flagship."""
    res, root = ensure_index(sf_dir, chain="english", field="text")
    reader = IndexReader(root)
    from ..functions.analyzer import Analyzer

    an = Analyzer("english")
    rows = []
    for q in FLAGSHIP_QUERIES:
        for rank, (doc_id, score) in enumerate(topk(reader, an(q), k=10), 1):
            rows.append(
                {"query": q, "rank": rank, "doc_id": int(doc_id), "score": float(score)}
            )
    return pd.DataFrame(rows, columns=["query", "rank", "doc_id", "score"])
