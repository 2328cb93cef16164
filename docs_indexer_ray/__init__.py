"""docs_indexer_ray — a Ray-Data-native full-text indexing + BM25 query engine.

A from-scratch rebuild of the capabilities of giantswarm/docs-indexer
(reference at /root/reference): where the reference is a single-process
ETL that extracts text from HTML/Markdown and delegates every search
capability to OpenSearch, this engine does the whole job as
``ray.data.Dataset`` pipelines — extraction, analysis, inverted-index
construction (delta+varint posting lists with block-max metadata),
global BM25 statistics, and block-max WAND top-k retrieval — plus the
training-data operators a 100 TB pipeline needs (dedup families,
similarity search, text analysis, multimodal plumbing).

Layout:
  functions/  pure per-row/per-batch kernels (no Ray imports)
  sources/    input adapters (pages reader, paged API)
  stages/     Ray Data map_batches stages (extract, tokenize, docstore)
  index/      build orchestration, segment encode/merge, manifest state
  query/      segment reader, BM25 (WAND + TAAT), phrase, suggesters
  ops/        dedup / ANN / text-stats / windows / joins / multimodal
  pipelines/  assembled flagship pipelines

Nothing in this package calls ``ray.init()`` / ``ray.shutdown()`` —
sessions are owned by the caller (bench.py, CLI, test fixture, driver).
"""

__version__ = "0.1.0"

import logging as _logging


class _SchemaHashNoiseFilter(_logging.Filter):
    """Drop Ray Data's per-task "Failed to hash the schemas (for
    deduplication): unhashable type: 'dict'" warning.

    Parquet files written by pandas carry ``b'pandas'`` schema
    metadata; ``pyarrow.Schema`` with metadata is unhashable, so Ray's
    ``unify_schemas`` early-exit logs this harmless warning once per
    output-block concat — hundreds of lines per run.  Everything else
    from that logger still flows."""

    def filter(self, record: _logging.LogRecord) -> bool:  # noqa: A003
        return "Failed to hash the schemas" not in record.getMessage()


class _EmptyBlockSchemaNoiseFilter(_logging.Filter):
    """Drop the streaming executor's "Operator produced a RefBundle
    with a different schema … new schema: ." warning for EMPTY blocks.

    A sort-based groupby shuffle whose key space underfills the
    partition count emits zero-row blocks with an empty schema; Ray
    warns once per such block.  Only the empty-schema variant is
    dropped — a real schema divergence (named columns on both sides)
    still logs."""

    def filter(self, record: _logging.LogRecord) -> bool:  # noqa: A003
        msg = record.getMessage()
        return not (
            "new schema: ." in msg
            and "Operator produced a RefBundle with a different schema" in msg
        )


_logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow").addFilter(
    _SchemaHashNoiseFilter()
)
_logging.getLogger(
    "ray.data._internal.execution.streaming_executor_state"
).addFilter(_EmptyBlockSchemaNoiseFilter())

# Bump when the on-disk index format or any result-affecting semantics
# change: build fingerprints mix this in, so caches built by an older
# engine can never be served as current (they rebuild instead).
INDEX_FORMAT_VERSION = 5
