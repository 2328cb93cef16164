"""Search-response assembly — OpenSearch's two-phase query-then-fetch.

The reference's consumers never see raw ``(doc_id, score)`` pairs:
OpenSearch answers ``_search`` with assembled hits — rank, score,
``_source`` stored fields and a highlight snippet per hit (the docs
site renders url/title/breadcrumb + snippet from exactly that shape;
the reference's ``hugo.py`` feeds ``uri``/``title``/``body`` for this
purpose).  This module rebuilds the response surface on the engine:

* :func:`search_response` — the response over one reader: the SERVED
  query-then-fetch of ``served.ShardedQueryService`` run on one
  in-process shard (``ShardedQueryService.in_process``), the same
  path the REST server's local backend runs.  Phase 1 ranks the
  query's live match set (full ``query_string`` syntax or a plain
  analyzed term query, BM25 or a field ``sort``); phase 2 fetches
  stored fields for the k hits only (a positional
  ``IndexReader.fetch_docs`` of only the row groups holding them,
  each decoded once per reader and then served from the reader's
  decoded-column cache; a docs-store file is one row group, so a
  hit's first touch decodes its partition's requested columns) and
  highlights the densest snippet per hit from the query's POSITIVE
  terms (``qstring.positive_terms`` — prohibited terms never light
  up).  On an actor fleet each hit's fetch goes to the shard OWNING
  its doc range — document bodies never leave their shard; only k
  assembled rows travel.
* :func:`fetch_rows` — the fetch-phase kernel every shard runs.  A
  hit's highlight text is analyzed once per reader into a term vector
  (stems + character offsets, ``IndexReader.term_vector``) kept in the
  reader's decoded-docs cache; every later request matches its terms
  against the stored vector, the way OpenSearch highlights from
  ``with_positions_offsets`` term vectors.

Output schema: ``rank (int64), doc_id (int64), score (float64),
*fields, snippet (string, when highlighting)``.
"""

from __future__ import annotations

import pyarrow as pa

from . import highlight

__all__ = ["search_response"]


def fetch_rows(
    reader,
    doc_ids: list[int],
    fields: tuple[str, ...],
    highlight_field: str | None,
    terms: set[str] | None,
    width: int,
    pre: str = "<em>",
    post: str = "</em>",
) -> pa.Table:
    """The fetch-phase kernel over ONE reader: ``doc_id`` (int64) +
    stored ``fields`` (+ ``snippet``: the densest highlighted
    ``width``-char window of ``highlight_field`` over the
    analyzer-space ``terms``) for ``doc_ids``, in ``fetch_docs`` row
    order.  Each hit's snippet matches its term vector, which the
    reader builds once (``IndexReader.term_vector``) and keeps beside
    its decoded columns.  Run by every shard's ``fetch_partial``
    (``served.ShardQueryActor``); an empty ``doc_ids`` still reads
    zero rows, so the columns keep the STORE's types."""
    need = list(dict.fromkeys([*fields, *([highlight_field] if highlight_field else [])]))
    t = reader.fetch_docs(doc_ids, ["doc_id"] + [c for c in need if c != "doc_id"])
    cols = {"doc_id": t["doc_id"].cast(pa.int64())}
    for f in fields:
        cols[f] = t[f].combine_chunks()
    if highlight_field is not None:
        snippet = highlight.best_snippet  # looked up per call (tracing wraps it)
        vector = reader.term_vector
        terms = terms or set()
        texts = [x or "" for x in t[highlight_field].to_pylist()]
        cols["snippet"] = pa.array(
            [
                snippet(x, "", reader.analyzer, width=width, pre=pre, post=post,
                        terms=terms, vector=vector(highlight_field, d, x))
                for d, x in zip(cols["doc_id"].to_pylist(), texts)
            ],
            pa.string(),
        )
    return pa.table(cols)


def search_response(
    reader,
    query: str,
    k: int = 10,
    fields: tuple[str, ...] = ("url", "title"),
    highlight_field: str | None = None,
    width: int = 160,
    default_operator: str = "or",
    syntax: bool = True,
    from_: int = 0,
    after: tuple[float, int] | None = None,
    sort: tuple[str, str] | None = None,
    hl_tags: tuple[str, str] = ("<em>", "</em>"),
    with_total: bool = False,
) -> pa.Table:
    """The assembled ``_search`` response over a local reader: the
    served query-then-fetch (``ShardedQueryService.query_phase``, then
    ``fetch_phase``) on one in-process shard over ``reader``.
    ``with_total=True`` returns ``(table, total)``, ``total`` being the
    live match count whatever the page (the ``/_count`` semantics).

    ``syntax=True`` parses ``query`` as the ``query_string`` language
    (``query/qstring.py``); ``syntax=False`` treats it as plain text —
    BM25 over the analyzed terms, matched any-term.

    ``sort=(column, "asc"|"desc")`` ranks the query's MATCH SET by a
    stored field instead of BM25 (``query/sortq.py`` — OpenSearch's
    ``sort`` clause): hits score 0.0, the ordering key rides in an
    extra ``sort_key`` column, and ``after`` becomes a ``(key,
    doc_id)`` cursor in the field order.

    Pagination (OpenSearch semantics, mutually exclusive): ``from_``
    is offset paging (rank ``from_ + k``, slice — cost grows with the
    offset); ``after`` is the stateless ``search_after`` cursor —
    constant cost per page, rank restarts at 1 (the global offset is
    unknown by design).  See ``served.page_rank``."""
    from .served import ShardedQueryService, page_rank

    svc = ShardedQueryService.in_process(reader)
    page, total, _ = svc.query_phase(
        query, syntax, default_operator, page_rank(k, from_, after, sort)
    )
    out = svc.fetch_phase(
        page[from_:], query, fields, highlight_field, width, syntax,
        rank_start=from_ + 1, hl_tags=hl_tags,
    )
    return (out, total) if with_total else out
