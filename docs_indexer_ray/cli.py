"""Command-line interface: build / query / suggest / merge / stats / gc.

The reference's CLI is a click group with one subcommand per source
(``/root/reference/main.py:10-26``); this engine has one CLI with one
subcommand per lifecycle operation, submitted as a Ray job
(``ray job submit -- python -m docs_indexer_ray.cli build …``) or run
directly.  The CLI owns the Ray session (guarded init — the library
never initializes Ray, per the driver contract); logging to stdout and
clean SIGTERM exit mirror ``main.py:29-45``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import signal
import sys


def _ray_session():
    import ray

    if not ray.is_initialized():
        # address=None auto-detects: attaches to the submitting cluster
        # under `ray job submit` (RAY_ADDRESS set), starts a local
        # instance otherwise.  A hardcoded "local" would silently run
        # the whole build on one node of a multi-node cluster.
        ray.init(
            address=os.environ.get("RAY_ADDRESS") or None,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    return ray


def cmd_build(args) -> int:
    ray = _ray_session()
    import ray.data

    from .index.build import build_index

    if args.input.startswith("synthetic:"):
        from .synth import pages_from_documents

        pages = pages_from_documents(args.input.split(":", 1)[1], expand=args.expand)
        input_paths = None
    else:
        pages = ray.data.read_parquet(args.input)
        input_paths = [args.input]

    res = build_index(
        pages,
        args.out,
        prefix=args.prefix,
        field=args.field,
        chain=args.chain,
        input_paths=input_paths,
        fingerprint=args.fingerprint,
        extra_chains=args.extra_chains,
        store_positions=args.store_positions,
    )
    print(json.dumps({k: res[k] for k in ("fingerprint", "n_docs", "avgdl", "timings_s")}, default=str))
    return 0


def _query_service(args, reader=None):
    """The query service a command runs on: the doc-range-sharded
    actor fleet for ``--shards`` > 1, otherwise ONE in-process shard
    over ``reader`` (opened here when not given) — the same protocol
    either way, so each command makes one call."""
    from .query.served import ShardedQueryService

    if args.shards > 1:
        return ShardedQueryService(args.index, n_shards=args.shards, chain=args.chain)
    if reader is None:
        from .query.reader import IndexReader

        reader = IndexReader(args.index, chain=args.chain)
    return ShardedQueryService.in_process(reader)


def cmd_query(args) -> int:
    _ray_session()
    from .query.reader import IndexReader

    reader = IndexReader(args.index, chain=args.chain)
    svc = _query_service(args, reader)
    try:
        hits = svc.topk(args.q, k=args.k)
    finally:
        svc.shutdown()
    docs = reader.fetch_docs([d for d, _ in hits], columns=["doc_id", "url", "title"])
    meta = {r["doc_id"]: r for r in docs.to_pylist()}
    for rank, (doc_id, score) in enumerate(hits, 1):
        m = meta.get(doc_id, {})
        print(
            json.dumps(
                {
                    "rank": rank,
                    "doc_id": int(doc_id),
                    "score": round(float(score), 6),
                    "url": m.get("url"),
                    "title": m.get("title"),
                }
            )
        )
    return 0


def cmd_search(args) -> int:
    """Assembled _search response: query_string syntax, stored fields,
    highlighted snippet per hit — local reader or the sharded fleet."""
    _ray_session()
    fields = tuple(args.fields.split(",")) if args.fields else ("url", "title")
    svc = _query_service(args)
    try:
        t = svc.search(
            args.q,
            k=args.k,
            fields=fields,
            highlight_field=args.highlight or None,
            syntax=args.syntax,
        )
    finally:
        svc.shutdown()
    for row in t.to_pylist():
        row["score"] = round(float(row["score"]), 6)
        print(json.dumps(row))
    return 0


def cmd_attach_vectors(args) -> int:
    """Attach a doc-aligned vector sidecar to the published build
    (``index/vectors.py``) — enables the ``knn`` DSL clause and
    hybrid search on every serving surface."""
    _ray_session()
    import ray.data

    from .index.vectors import attach_vectors

    key = args.id_col or args.url_col
    ds = ray.data.read_parquet(args.parquet, columns=[key, args.vec_col])
    meta = attach_vectors(
        args.index,
        ds,
        vec_col=args.vec_col,
        id_col=args.id_col,
        url_col=args.url_col,
        name=args.name,
        num_parts=args.parts,
    )
    print(json.dumps(meta))
    return 0


def cmd_termvectors(args) -> int:
    """Per-doc term statistics (the ``/_termvectors`` view): each term
    of the re-analyzed stored field with tf / df / ttf and first
    position, tf-descending."""
    _ray_session()
    from .query.reader import IndexReader
    from .query.termvectors import term_vectors

    reader = IndexReader(args.index, chain=args.chain)
    out = term_vectors(
        reader,
        doc_id=args.doc,
        field=args.field or None,
        term_statistics=True,
        max_num_terms=args.max_terms or None,
    )
    if not out.get("found"):
        print(f"doc {args.doc} not found")
        return 2
    (fname, fobj), = out["term_vectors"].items()
    fs = fobj["field_statistics"]
    print(
        f"doc {args.doc} field {fname!r} — corpus: "
        f"{fs['doc_count']} docs, {fs['sum_ttf']} tokens"
    )
    rows = sorted(
        fobj["terms"].items(), key=lambda kv: (-kv[1]["term_freq"], kv[0])
    )
    for term, e in rows:
        pos = e["tokens"][0]["position"] if e.get("tokens") else -1
        print(
            f"{e['term_freq']:4d}  df={e['doc_freq']:<6d} "
            f"ttf={e['ttf']:<8d} @{pos:<4d} {term}"
        )
    return 0


def cmd_knn(args) -> int:
    """k-NN over the attached vector sidecar: neighbors of an explicit
    ``--vector`` or of an indexed doc's own vector (``--doc``), local
    reader or the sharded fleet."""
    _ray_session()
    from .query.reader import IndexReader

    reader = IndexReader(args.index, chain=args.chain)
    if args.vector:
        vec = [float(x) for x in args.vector.split(",")]
    else:
        V, valid = reader.vector_matrix(args.name)
        if not (0 <= args.doc < len(valid)) or not valid[args.doc]:
            print(f"doc {args.doc} has no vector in sidecar {args.name!r}")
            return 2
        vec = V[args.doc].tolist()
    dsl = {"knn": {args.name: {"vector": vec, "k": args.k}}}
    svc = _query_service(args, reader)
    try:
        hits = svc.query_string(dsl, k=args.k)
    finally:
        svc.shutdown()
    docs = reader.fetch_docs(
        [d for d, _ in hits], columns=["doc_id", "url", "title"]
    )
    meta = {r["doc_id"]: r for r in docs.to_pylist()}
    for rank, (doc_id, score) in enumerate(hits, 1):
        m = meta.get(doc_id, {})
        print(f"{rank:2d}. {score:10.6f}  {doc_id:8d}  {m.get('url', '')}")
    return 0


def cmd_serve(args) -> int:
    """Serve the index over HTTP (OpenSearch-shaped endpoints):
    /_search /_count /_analyze /_suggest — local warm reader or the
    doc-range-sharded actor fleet."""
    _ray_session()
    import signal
    import threading

    from .serve_http import SearchServer

    srv = SearchServer(
        args.index,
        host=args.host,
        port=args.port,
        backend="sharded" if args.shards > 1 else "local",
        n_shards=max(1, args.shards),
        chain=args.chain,
        n_replicas=max(1, args.replicas),
    ).start()
    print(json.dumps({"serving": f"http://{srv.host}:{srv.port}",
                      "backend": srv.backend}))
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    try:
        stop.wait()
    finally:
        srv.stop()
    return 0


def cmd_suggest(args) -> int:
    _ray_session()
    from .query.reader import IndexReader

    reader = IndexReader(args.index, chain=args.chain)
    prefix = args.prefix[::-1] if args.chain == "reverse" else args.prefix
    for term, df in reader.prefix_terms(prefix, limit=args.k):
        shown = term[::-1] if args.chain == "reverse" else term
        print(json.dumps({"term": shown, "df": int(df)}))
    return 0


def cmd_phrase(args) -> int:
    _ray_session()
    from .functions.analyzer import Analyzer
    from .query.phrase import phrase_topk
    from .query.reader import IndexReader

    reader = IndexReader(args.index, chain=args.chain)
    terms = Analyzer(reader.manifest["analyzer"] if args.chain is None else args.chain)(
        args.q
    )
    for rank, (doc_id, score) in enumerate(phrase_topk(reader, terms, k=args.k), 1):
        print(
            json.dumps(
                {"rank": rank, "doc_id": int(doc_id), "score": round(float(score), 6)}
            )
        )
    return 0


def cmd_didyoumean(args) -> int:
    _ray_session()
    from .query.reader import IndexReader
    from .query.suggest import Suggester

    sug = Suggester(IndexReader(args.index, chain=args.chain))
    for phrase, score in sug.suggest(args.q, max_suggestions=args.k):
        print(json.dumps({"suggestion": phrase, "score": round(float(score), 6)}))
    return 0


def cmd_merge(args) -> int:
    _ray_session()
    from .index.merge import merge_many

    man = merge_many([args.base, *args.delta], args.out, prefix=args.prefix)
    print(json.dumps({"fingerprint": man["fingerprint"], "n_docs": man["n_docs"]}))
    return 0


def cmd_stats(args) -> int:
    from .index import manifest as mf

    bdir = mf.current_build(args.index) or args.index
    print(json.dumps(mf.read_manifest(bdir), indent=1, default=str))
    return 0


def cmd_gc(args) -> int:
    from .index import manifest as mf

    print(json.dumps({"removed": mf.gc(args.root)}))
    return 0


def cmd_analyze(args) -> int:
    """_analyze: print an analyzer chain's token stream for a string."""
    from .functions.analyzer import Analyzer

    toks = Analyzer(args.chain)(args.text)
    for i, t in enumerate(toks):
        print(json.dumps({"position": i, "token": t}))
    return 0


def cmd_agg(args) -> int:
    """Aggregations over a query's match set (terms / stats /
    percentiles / significant) — the search-UI facet surface."""
    _ray_session()
    import numpy as np
    import pyarrow.compute as pcx
    import ray.data

    from .functions.analyzer import Analyzer
    from .index import manifest as mf
    from .query.facets import (
        match_doc_bitmap,
        percentiles,
        stats_facet,
        terms_facet,
    )
    from .query.reader import IndexReader

    reader = IndexReader(args.index)
    terms = Analyzer(reader.chain)(args.q)
    # the Dataset facet tier: packed-bitmap match set from range tasks
    # (no driver-side postings decode, bitmap-scale driver traffic) —
    # _ray_session() has already initialised Ray for the CLI
    matched = match_doc_bitmap(reader, terms)
    if args.kind == "significant":
        from .query.significant import significant_terms

        out = significant_terms(reader, matched, k=args.k)
        print(out.to_pandas().to_json(orient="records"))
        return 0
    bdir = mf.current_build(args.index) or args.index
    ds = ray.data.read_parquet(
        os.path.join(bdir, "docs"), columns=["doc_id", args.field]
    )
    if args.kind == "terms":
        out = terms_facet(ds, matched, args.field)
    else:
        # stats AND percentiles are numeric-only: string fields (incl.
        # the default --field lang) get the utf8-length transform
        import pyarrow as pa_

        ds = ds.map_batches(
            lambda t: t.set_column(
                t.schema.get_field_index(args.field),
                args.field,
                pcx.utf8_length(t[args.field]).cast(pa_.int64())
                if pa_.types.is_string(t.schema.field(args.field).type)
                else t[args.field],
            ),
            batch_format="pyarrow",
        )
        if args.kind == "stats":
            out = stats_facet(ds, matched, args.field)
        else:  # percentiles
            out = percentiles(ds, matched, args.field, [25.0, 50.0, 75.0, 95.0, 99.0])
    print(out.to_pandas().to_json(orient="records"))
    return 0


def cmd_update(args) -> int:
    """Nightly-delta flow: filter seen urls, delta-build, merge."""
    _ray_session()
    import ray.data

    from .pipelines.incremental import incremental_update

    man = incremental_update(
        args.index,
        ray.data.read_parquet(args.input),
        args.out,
        filter_mode=args.filter,
    )
    print(json.dumps({"fingerprint": man["fingerprint"], "n_docs": man["n_docs"]}))
    return 0


def cmd_delete(args) -> int:
    """delete_by_query: tombstone every doc matching any query term."""
    from .functions.analyzer import Analyzer
    from .index.deletes import delete_by_terms, load_delete_ids
    from .query.reader import IndexReader

    reader = IndexReader(args.index)
    terms = Analyzer(reader.chain)(args.query)
    n_new = delete_by_terms(args.index, terms)
    print(
        json.dumps(
            {"deleted": n_new, "total_tombstones": int(len(load_delete_ids(args.index)))}
        )
    )
    return 0


def cmd_compact(args) -> int:
    """Expunge tombstones into a new published build (no re-extraction)."""
    _ray_session()
    from .index.compact import compact_index

    man = compact_index(args.index, args.out)
    print(json.dumps({"fingerprint": man["fingerprint"], "n_docs": man["n_docs"]}))
    return 0


def cmd_snapshot(args) -> int:
    """Snapshot the CURRENT build (hardlink-cheap on one filesystem)."""
    from .index.snapshot import snapshot_index

    path = snapshot_index(args.root, args.snapdir, name=args.name)
    print(json.dumps({"snapshot": path}))
    return 0


def cmd_snapshots(args) -> int:
    from .index.snapshot import list_snapshots

    print(json.dumps(list_snapshots(args.snapdir)))
    return 0


def cmd_restore(args) -> int:
    """Restore a snapshot as the published build under --root."""
    from .index.snapshot import restore_index

    path = restore_index(args.snapshot, args.root)
    print(json.dumps({"restored": path}))
    return 0


def cmd_reindex(args) -> int:
    """Re-analyze the docs store under a new chain/field/positions."""
    _ray_session()
    from .index.compact import reindex_index

    man = reindex_index(
        args.index,
        args.out,
        chain=args.chain,
        field=args.field,
        store_positions=args.positions if args.positions else None,
    )
    print(
        json.dumps(
            {
                "fingerprint": man["fingerprint"],
                "analyzer": man["analyzer"],
                "n_docs": man["n_docs"],
            }
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stdout, level=logging.INFO)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))  # main.py:36-41

    p = argparse.ArgumentParser(prog="docs_indexer_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build (or resume) an index")
    b.add_argument("--input", required=True, help="pages parquet path, or synthetic:<sf_dir>")
    b.add_argument("--out", required=True)
    b.add_argument("--prefix", default="docs")
    b.add_argument("--field", default="text")
    b.add_argument("--chain", default="english")
    b.add_argument("--extra-chains", nargs="*", default=[])
    b.add_argument("--expand", type=int, default=1)
    b.add_argument("--fingerprint", default=None)
    b.add_argument(
        "--store-positions",
        action="store_true",
        help="store position postings (enables the phrase subcommand)",
    )
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query", help="BM25 top-k")
    q.add_argument("--index", required=True)
    q.add_argument("--q", required=True)
    q.add_argument("-k", type=int, default=10)
    q.add_argument("--chain", default=None)
    q.add_argument(
        "--shards",
        type=int,
        default=0,
        help="serve via a doc-range-sharded actor fleet (0 = local reader)",
    )
    q.set_defaults(fn=cmd_query)

    se = sub.add_parser(
        "search", help="assembled _search response (fields + snippet)"
    )
    se.add_argument("--index", required=True)
    se.add_argument("--q", required=True)
    se.add_argument("-k", type=int, default=10)
    se.add_argument("--chain", default=None)
    se.add_argument(
        "--fields", default="", help="comma-separated stored fields (default url,title)"
    )
    se.add_argument(
        "--highlight", default="", help="stored field to snippet-highlight"
    )
    se.add_argument(
        "--syntax",
        action="store_true",
        help="parse --q as the Lucene query_string language",
    )
    se.add_argument(
        "--shards",
        type=int,
        default=0,
        help="serve via a doc-range-sharded actor fleet (0 = local reader)",
    )
    se.set_defaults(fn=cmd_search)

    av = sub.add_parser(
        "attach-vectors",
        help="attach a doc-aligned vector sidecar (enables knn/hybrid)",
    )
    av.add_argument("--index", required=True)
    av.add_argument("--parquet", required=True,
                    help="parquet file/dir with the vector column")
    av.add_argument("--vec-col", default="embedding")
    key = av.add_mutually_exclusive_group(required=True)
    key.add_argument("--id-col", default=None,
                     help="column already holding the build's doc ids")
    key.add_argument("--url-col", default=None,
                     help="url column (ONE hash-join shuffle to map ids)")
    av.add_argument("--name", default="emb")
    av.add_argument("--parts", type=int, default=32)
    av.set_defaults(fn=cmd_attach_vectors)

    tv = sub.add_parser(
        "termvectors", help="per-doc term statistics (tf/df/ttf/position)"
    )
    tv.add_argument("--index", required=True)
    tv.add_argument("--doc", type=int, required=True)
    tv.add_argument("--field", default="",
                    help="stored field (default: the indexed field)")
    tv.add_argument("--chain", default=None)
    tv.add_argument("--max-terms", type=int, default=0,
                    help="keep only the N highest-tf terms (0 = all)")
    tv.set_defaults(fn=cmd_termvectors)

    kn = sub.add_parser("knn", help="vector top-k over an attached sidecar")
    kn.add_argument("--index", required=True)
    vq = kn.add_mutually_exclusive_group(required=True)
    vq.add_argument("--vector", default=None,
                    help="comma-separated floats (the query vector)")
    vq.add_argument("--doc", type=int, default=None,
                    help="neighbors of this indexed doc's own vector")
    kn.add_argument("-k", type=int, default=10)
    kn.add_argument("--name", default="emb")
    kn.add_argument("--chain", default=None)
    kn.add_argument("--shards", type=int, default=0,
                    help="serve via the doc-range-sharded fleet (0 = local)")
    kn.set_defaults(fn=cmd_knn)

    sv = sub.add_parser("serve", help="HTTP serving (_search/_count/_analyze/_suggest)")
    sv.add_argument("--index", required=True)
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=9200)
    sv.add_argument("--chain", default=None)
    sv.add_argument("--shards", type=int, default=0,
                    help=">1 = doc-range-sharded actor fleet backend")
    sv.add_argument("--replicas", type=int, default=1,
                    help="replicas per shard (read scaling on multi-node)")
    sv.set_defaults(fn=cmd_serve)

    s = sub.add_parser("suggest", help="prefix/suffix suggestions")
    s.add_argument("--index", required=True)
    s.add_argument("--prefix", required=True)
    s.add_argument("--chain", default="trigram", choices=["trigram", "reverse"])
    s.add_argument("-k", type=int, default=5)
    s.set_defaults(fn=cmd_suggest)

    ph = sub.add_parser("phrase", help="exact phrase top-k (positions build)")
    ph.add_argument("--index", required=True)
    ph.add_argument("--q", required=True)
    ph.add_argument("-k", type=int, default=10)
    ph.add_argument("--chain", default=None)
    ph.set_defaults(fn=cmd_phrase)

    dym = sub.add_parser("didyoumean", help="phrase suggestions for a query")
    dym.add_argument("--index", required=True)
    dym.add_argument("--q", required=True)
    dym.add_argument("-k", type=int, default=3)
    dym.add_argument("--chain", default=None)
    dym.set_defaults(fn=cmd_didyoumean)

    m = sub.add_parser("merge", help="merge base + delta index(es), k-way")
    m.add_argument("--base", required=True)
    m.add_argument("--delta", required=True, nargs="+")
    m.add_argument("--out", required=True)
    m.add_argument("--prefix", default="docs")
    m.set_defaults(fn=cmd_merge)

    st = sub.add_parser("stats", help="print a build's manifest")
    st.add_argument("--index", required=True)
    st.set_defaults(fn=cmd_stats)

    g = sub.add_parser("gc", help="remove unpublished builds")
    g.add_argument("--root", required=True)
    g.set_defaults(fn=cmd_gc)

    an = sub.add_parser("analyze", help="token stream of an analyzer chain")
    an.add_argument("--chain", default="english")
    an.add_argument("--text", required=True)
    an.set_defaults(fn=cmd_analyze)

    ag = sub.add_parser("agg", help="aggregations over a query's match set")
    ag.add_argument("--index", required=True)
    ag.add_argument("--q", required=True)
    ag.add_argument(
        "--kind",
        choices=["terms", "stats", "percentiles", "significant"],
        default="terms",
    )
    ag.add_argument("--field", default="lang")
    ag.add_argument("-k", type=int, default=10)
    ag.set_defaults(fn=cmd_agg)

    u = sub.add_parser("update", help="incremental delta build + merge")
    u.add_argument("--index", required=True)
    u.add_argument("--input", required=True, help="new pages parquet")
    u.add_argument("--out", required=True)
    u.add_argument("--filter", choices=["exact", "bloom"], default="exact")
    u.set_defaults(fn=cmd_update)

    d = sub.add_parser("delete", help="delete_by_query (soft tombstones)")
    d.add_argument("--index", required=True)
    d.add_argument("--query", required=True)
    d.set_defaults(fn=cmd_delete)

    c = sub.add_parser("compact", help="expunge tombstones into a new build")
    c.add_argument("--index", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_compact)

    r = sub.add_parser("reindex", help="re-analyze the docs store (new chain/field)")
    r.add_argument("--index", required=True)
    r.add_argument("--out", required=True)
    r.add_argument("--chain", default=None)
    r.add_argument("--field", default=None)
    r.add_argument("--positions", action="store_true")
    r.set_defaults(fn=cmd_reindex)

    sn = sub.add_parser("snapshot", help="snapshot the CURRENT build")
    sn.add_argument("--root", required=True)
    sn.add_argument("--snapdir", required=True)
    sn.add_argument("--name", default=None)
    sn.set_defaults(fn=cmd_snapshot)

    sl = sub.add_parser("snapshots", help="list snapshots in a repo dir")
    sl.add_argument("--snapdir", required=True)
    sl.set_defaults(fn=cmd_snapshots)

    rs = sub.add_parser("restore", help="restore a snapshot and publish it")
    rs.add_argument("--snapshot", required=True)
    rs.add_argument("--root", required=True)
    rs.set_defaults(fn=cmd_restore)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
