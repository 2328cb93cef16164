"""``/_termvectors`` — per-document term statistics.

OpenSearch's Term Vectors API (``GET <index>/_termvectors/<id>``)
returns, for one document, every term of an analyzed field with its
in-document frequency, token positions and character offsets, plus
(on request) index-wide term statistics (``doc_freq``, ``ttf``) and
field statistics (``sum_doc_freq``, ``doc_count``, ``sum_ttf``).  The
reference never stores term vectors, and neither does this engine —
like OpenSearch with ``term_vector: no``, vectors are computed **on
the fly** by re-analyzing the stored field text with the serving
chain; index-wide statistics come from the reader's memoized term
dictionary and manifest (no postings decode).  A per-doc admin /
relevance-debugging call, never a hot path.

Position semantics follow Lucene: the position counter advances for
every surface token, so a dropped stopword (english chain) leaves a
position GAP.  The index does NOT: it counts positions over the
EMITTED tokens (``stages/tokenize.py``), so ``match_phrase`` sees no
gap — ``["quick", "fox"]`` matches "quick the fox jumps" while this
module reports ``fox`` at position 2.  A documented divergence from
Lucene; the vectors keep Lucene's numbering.  Offsets are
character offsets into the stored text (for the ``simple``/``edge``
chains, into ``text.lower()``, which for the engine's corpora has the
same length).  Shingles (``trigram`` chain) take the position of
their first token and span first-start..last-end; edge n-grams keep
their source token's offsets (Lucene ``edge_ngram`` default).

``term_statistics`` adds ``doc_freq`` (term dictionary lookup) and
``ttf`` (collection frequency — a second memoized ``(term, cf)``
dictionary, loaded once per reader on first use).  Statistics live in
the CHAIN's postings space: the engine indexes one source field per
chain, so requesting vectors for a different stored column still
reports statistics from that chain's index (documented, like
OpenSearch statistics being shard-local approximations).

The artificial-document form (``{"doc": {field: text}}``) analyzes
caller-provided text without indexing it — same response shape, no
``_id``.
"""

from __future__ import annotations

from ..functions.analyzer import SIMPLE_RE, TOKEN_RE, Analyzer, english_term

__all__ = ["analyze_with_spans", "term_vectors"]


def analyze_with_spans(
    text: str, chain: str
) -> list[tuple[str, int, int, int]]:
    """``[(term, position, start_offset, end_offset)]`` for one text —
    the offset-aware twin of ``Analyzer(chain)(text)``: same terms in
    the same order (pinned by test), plus where each came from."""
    out: list[tuple[str, int, int, int]] = []
    if chain == "english":
        # the chain's own memo: a token the process has analyzed is
        # not stemmed again
        memo = Analyzer("english")._cache
        for pos, m in enumerate(TOKEN_RE.finditer(text)):
            # pos advances past stopwords: Lucene position gaps
            t = english_term(m.group(0), memo)
            if t is not None:
                out.append((t, pos, m.start(), m.end()))
        return out
    if chain == "standard":
        return [
            (m.group(0).lower(), i, m.start(), m.end())
            for i, m in enumerate(TOKEN_RE.finditer(text))
        ]
    if chain == "reverse":
        return [
            (m.group(0).lower()[::-1], i, m.start(), m.end())
            for i, m in enumerate(TOKEN_RE.finditer(text))
        ]
    if chain in ("simple", "edge"):
        toks = [
            (m.group(0), i, m.start(), m.end())
            for i, m in enumerate(SIMPLE_RE.finditer(text.lower()))
        ]
        if chain == "simple":
            return toks
        out = []
        for t, i, s, e in toks:  # edge n-grams keep source offsets
            for g in range(2, min(15, len(t)) + 1):
                out.append((t[:g], i, s, e))
        return out
    if chain == "trigram":
        toks = [
            (m.group(0).lower(), i, m.start(), m.end())
            for i, m in enumerate(TOKEN_RE.finditer(text))
        ]
        out = list(toks)
        n = len(toks)
        for size in (2, 3):
            for i in range(n - size + 1):
                out.append(
                    (
                        " ".join(t for t, *_ in toks[i : i + size]),
                        toks[i][1],
                        toks[i][2],
                        toks[i + size - 1][3],
                    )
                )
        return out
    raise ValueError(f"unknown analyzer chain: {chain!r}")


def term_vectors(
    reader,
    *,
    doc_id: int | None = None,
    text: str | None = None,
    field: str | None = None,
    positions: bool = True,
    offsets: bool = True,
    term_statistics: bool = False,
    field_statistics: bool = True,
    min_term_freq: int = 1,
    min_doc_freq: int = 0,
    max_doc_freq: int | None = None,
    max_num_terms: int | None = None,
    source_field: str | None = None,
) -> dict:
    """One field's term vector for a stored doc (``doc_id``) or an
    artificial document (``text``) — exactly one of the two.

    Returns the OpenSearch response body.  ``field`` defaults to the
    build's indexed source field; any stored text column is accepted
    (re-analyzed with the reader's chain).  The filter params mirror
    OpenSearch's ``filter`` block; ``max_num_terms`` keeps the highest
    ``term_freq`` terms (term-ascending tie-break — deterministic).
    """
    if (doc_id is None) == (text is None):
        raise ValueError("exactly one of doc_id / text is required")
    chain = reader.chain
    if field is None:
        field = reader.manifest["field"]
    if source_field is None:
        source_field = field

    out: dict = {"term_vectors": {}}
    if doc_id is not None:
        out["_id"] = int(doc_id)
        import numpy as np

        if np.isin(int(doc_id), reader.deleted_ids()):
            out["found"] = False
            return out
        t = reader.fetch_docs([int(doc_id)], [source_field])
        if t.num_rows == 0:
            out["found"] = False
            return out
        text = t[source_field][0].as_py() or ""
        out["found"] = True

    terms: dict[str, dict] = {}
    for term, pos, s, e in analyze_with_spans(text, chain):
        entry = terms.setdefault(term, {"term_freq": 0, "tokens": []})
        entry["term_freq"] += 1
        tok: dict = {}
        if positions:
            tok["position"] = pos
        if offsets:
            tok["start_offset"] = s
            tok["end_offset"] = e
        if tok:
            entry["tokens"].append(tok)

    need_df = term_statistics or min_doc_freq > 0 or max_doc_freq is not None
    if need_df:
        for term, entry in terms.items():
            entry["doc_freq"] = reader.term_df(term)
    if term_statistics:
        for term, entry in terms.items():
            entry["ttf"] = reader.term_cf(term)

    kept = {
        term: e
        for term, e in terms.items()
        if e["term_freq"] >= min_term_freq
        and (min_doc_freq <= 0 or e.get("doc_freq", 0) >= min_doc_freq)
        and (max_doc_freq is None or e.get("doc_freq", 0) <= max_doc_freq)
    }
    if max_num_terms is not None and len(kept) > max_num_terms:
        top = sorted(kept.items(), key=lambda kv: (-kv[1]["term_freq"], kv[0]))
        kept = dict(top[:max_num_terms])
    if not need_df:  # don't leak a half-populated stat
        for e in kept.values():
            e.pop("doc_freq", None)
    for e in kept.values():
        if not e["tokens"]:
            del e["tokens"]

    fobj: dict = {"terms": dict(sorted(kept.items()))}
    if field_statistics:
        import numpy as np

        _, dfs = reader.term_dictionary()
        stats = reader.manifest
        if chain != stats.get("analyzer"):
            stats = stats["chains"][chain]
        fobj["field_statistics"] = {
            "sum_doc_freq": int(dfs.sum()) if len(dfs) else 0,
            "doc_count": int(stats.get("n_docs_with_terms", reader.n_docs)),
            "sum_ttf": int(stats.get("total_tokens", 0)),
        }
    out["term_vectors"][field] = fobj
    return out
