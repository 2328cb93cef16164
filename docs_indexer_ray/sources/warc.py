"""WARC / WET source: web-crawl archives into the pages table.

WARC (ISO 28500, the Common Crawl interchange format) is the natural
ingest format for the webtext pipeline: a crawl delivers
``*.warc.gz`` (raw HTTP responses) and ``*.warc.wet.gz`` (plain-text
"conversion" records).  This module parses both with stdlib only and
exposes them as a ``ray.data.Dataset`` in the engine's canonical
pages shape ``(url, warc_ts, html, text, lang)`` — so a crawl plugs
straight into the extract → index pipeline that normally reads
Parquet (``sources/pages.py``).

Scale shape: ``ray.data.read_binary_files`` streams one archive per
block (crawl archives are written ~1 GB each precisely so they
parallelize file-wise) and the record parser is a chunk-emitting
generator over those blocks — no shuffle, no driver-side parsing,
and no whole-archive decompression: gzip'd archives (MULTI-MEMBER,
one member per record per the WARC spec) decompress incrementally
through ``GzipFile`` while records flush every 4096 rows / 64 MB of
payload.  Plain ``.warc`` works too.

Record grammar parsed here (version line, CRLF header block, exact
``Content-Length`` payload, CRLF CRLF trailer):

    WARC/1.0\r\n
    WARC-Type: response\r\n
    WARC-Target-URI: https://…\r\n
    WARC-Date: 2025-01-01T00:00:00Z\r\n
    Content-Length: 123\r\n
    \r\n
    <payload bytes>\r\n\r\n

``response`` payloads carry an HTTP message — status line + headers
are split off at the first blank line; ``conversion`` (WET) payloads
are the extracted text itself.  Other record types (warcinfo,
request, metadata) are skipped.

The writer (:func:`synth_warc_bytes`) emits byte-deterministic
archives for tests and benchmarks — round-trip equality against the
Parquet pages path is the correctness pin (no external data in the
sandbox, per the no-network rule).
"""

from __future__ import annotations

import gzip
import io
from datetime import datetime, timezone

import pyarrow as pa

__all__ = ["parse_warc_records", "read_warc", "synth_warc_bytes", "PAGES_SCHEMA"]

PAGES_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)


def _record_stream(raw: bytes):
    """Binary file-like over ``raw``, decompressing INCREMENTALLY when
    gzip'd (multi-member: GzipFile reads members back-to-back) — the
    whole decompressed archive (~4 GB for a 1 GB crawl file) is never
    materialized at once."""
    buf = io.BytesIO(raw)
    return gzip.GzipFile(fileobj=buf) if raw[:2] == b"\x1f\x8b" else buf


def _parse_ts(value: str):
    """WARC-Date (ISO-8601 ``Z``) → tz-naive UTC (the pages-table
    convention); malformed dates degrade to None, never raise."""
    try:
        dt = datetime.fromisoformat(value.strip().replace("Z", "+00:00"))
        return dt.astimezone(timezone.utc).replace(tzinfo=None)
    except ValueError:
        return None


def parse_warc_records(raw: bytes):
    """Yield ``(headers: dict, payload: bytes)`` per WARC record.

    Tolerant STREAMING scanner (line reads against an incrementally
    decompressed stream — peak memory is one record, not the archive):
    skips garbage until the next ``WARC/`` version line, requires
    ``Content-Length`` (records without one are unrecoverable
    mid-stream and end the scan — the spec makes the field mandatory),
    ignores the optional CRLF CRLF trailer.  A truncated final payload
    is yielded short, matching the buffer scanner this replaced.
    """
    stream = _record_stream(raw)
    readline = stream.readline
    while True:
        line = readline()
        if not line:
            return
        if not line.strip().startswith(b"WARC/"):
            continue
        headers: dict[str, str] = {}
        while True:
            line = readline()
            if not line:
                return
            line = line.rstrip(b"\r\n")
            if not line:
                break
            key, sep, val = line.partition(b":")
            if sep:
                headers[key.decode("latin-1").strip().lower()] = val.decode(
                    "latin-1"
                ).strip()
        try:
            clen = int(headers["content-length"])
        except (KeyError, ValueError):
            return
        yield headers, stream.read(clen)


def _http_body(payload: bytes) -> bytes:
    """Split the HTTP status line + headers off a response payload."""
    if payload[:5] in (b"HTTP/", b"http/"):
        cut = payload.find(b"\r\n\r\n")
        if cut < 0:
            cut = payload.find(b"\n\n")
            return payload[cut + 2 :] if cut >= 0 else b""
        return payload[cut + 4 :]
    return payload


def _records_to_tables(raw: bytes, max_rows: int = 4096, max_bytes: int = 64 << 20):
    """Parse one archive into a SEQUENCE of bounded pages tables —
    records stream off the (incrementally decompressed) archive and
    flush every ``max_rows`` rows or ``max_bytes`` of payload, so peak
    task memory is one chunk + the compressed input, never the whole
    decompressed archive."""
    urls, tss, htmls, texts, langs = [], [], [], [], []
    acc_bytes = 0

    def flush() -> pa.Table:
        return pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "warc_ts": pa.array(tss, pa.timestamp("us")),
                "html": pa.array(htmls, pa.binary()),
                "text": pa.array(texts, pa.string()),
                "lang": pa.array(langs, pa.string()),
            }
        )

    for headers, payload in parse_warc_records(raw):
        rtype = headers.get("warc-type", "")
        if rtype not in ("response", "conversion"):
            continue
        urls.append(headers.get("warc-target-uri"))
        tss.append(_parse_ts(headers.get("warc-date", "")))
        if rtype == "response":
            htmls.append(_http_body(payload))
            texts.append(None)
        else:  # WET: payload IS the extracted text
            htmls.append(None)
            texts.append(payload.decode("utf-8", errors="replace"))
        langs.append(headers.get("warc-identified-content-language"))
        acc_bytes += len(payload)
        if len(urls) >= max_rows or acc_bytes >= max_bytes:
            yield flush()
            urls, tss, htmls, texts, langs = [], [], [], [], []
            acc_bytes = 0
    if urls:
        yield flush()


def read_warc(paths, *, lang: str | None = None):
    """``ray.data.Dataset`` in the pages shape from WARC/WET archives.

    One archive file per input block (file-wise parallelism — the
    crawl's own sharding); record parsing is a GENERATOR inside
    ``map_batches`` tasks that decompresses incrementally and emits
    bounded chunks, so a 1 GB archive (~4 GB decompressed) never sits
    in task memory whole.  Optional post-parse ``lang`` filter (WARC
    carries language only as an optional header, so this can't push
    to the read)."""
    import ray.data

    ds = ray.data.read_binary_files(paths)

    def expand(batch: pa.Table):
        emitted = False
        for b in batch["bytes"]:
            for tbl in _records_to_tables(b.as_py()):
                emitted = True
                yield tbl
        if not emitted:
            yield PAGES_SCHEMA.empty_table()

    ds = ds.map_batches(expand, batch_format="pyarrow")
    if lang is not None:
        import pyarrow.compute as pc

        ds = ds.map_batches(
            lambda t: t.filter(pc.equal(t["lang"], lang)),
            batch_format="pyarrow",
        )
    return ds


def synth_warc_bytes(
    pages: pa.Table, *, compress: bool = True, wet: bool = False
) -> bytes:
    """Byte-deterministic WARC (or WET) archive from a pages table —
    the no-network stand-in for a real crawl file.  ``response``
    records wrap ``html`` in a minimal HTTP/1.1 message; ``wet=True``
    writes ``conversion`` records from ``text`` instead.  With
    ``compress`` each record is its own gzip member (mtime pinned to
    0), exactly how crawls ship ``.warc.gz``."""
    out = io.BytesIO()
    for i in range(pages.num_rows):
        url = pages["url"][i].as_py()
        ts = pages["warc_ts"][i].as_py()
        ts_s = (ts.strftime("%Y-%m-%dT%H:%M:%SZ") if ts is not None else
                "2025-01-01T00:00:00Z")
        if wet:
            body = (pages["text"][i].as_py() or "").encode()
            rtype = b"conversion"
            payload = body
        else:
            html = pages["html"][i].as_py()
            if isinstance(html, str):
                html = html.encode()
            body = html or b""
            rtype = b"response"
            payload = (
                b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\n"
                + b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
                + body
            )
        rec = (
            b"WARC/1.0\r\n"
            + b"WARC-Type: " + rtype + b"\r\n"
            + b"WARC-Target-URI: " + (url or "").encode() + b"\r\n"
            + b"WARC-Date: " + ts_s.encode() + b"\r\n"
            + b"WARC-Record-ID: <urn:uuid:" + str(i).zfill(8).encode() + b">\r\n"
            + b"Content-Length: " + str(len(payload)).encode() + b"\r\n"
            + b"\r\n"
            + payload
            + b"\r\n\r\n"
        )
        if compress:
            buf = io.BytesIO()
            with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as g:
                g.write(rec)
            out.write(buf.getvalue())
        else:
            out.write(rec)
    return out.getvalue()
