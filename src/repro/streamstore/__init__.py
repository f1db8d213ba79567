"""Content-addressed memory-mapped store for packed weight streams."""

from repro.streamstore.store import (ORPHAN_AGE_GUARD_SECONDS, STORE_COUNTERS,
                                     STORE_SCHEMA, STREAM_STORE_ENV, StoredWeightStream,
                                     StreamStore, active_stream_store,
                                     default_stream_store_dir,
                                     packed_content_sha256,
                                     resolve_stream_store, stream_code_version,
                                     stream_store_key, stream_store_stats,
                                     stream_store_stats_delta)

__all__ = [
    "ORPHAN_AGE_GUARD_SECONDS",
    "STORE_COUNTERS",
    "STORE_SCHEMA",
    "STREAM_STORE_ENV",
    "StoredWeightStream",
    "StreamStore",
    "active_stream_store",
    "default_stream_store_dir",
    "packed_content_sha256",
    "resolve_stream_store",
    "stream_code_version",
    "stream_store_key",
    "stream_store_stats",
    "stream_store_stats_delta",
]
