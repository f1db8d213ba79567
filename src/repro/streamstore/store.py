"""Content-addressed on-disk store for packed weight-stream tensors.

Building a :class:`~repro.accelerator.scheduler.PackedBitTensor` is the
dominant cost of an aging design point (~30 s on the 512 KB benchmark
cases: re-quantizing the network plus bit-unpacking every block), and the
only cache before this module was the per-process LRU in
:mod:`repro.experiments.aging_runner` — every worker process paid the build
again.  The stream store persists the packed payload once, keyed by a
canonical hash of the stream-defining parameters, and reloads it with
:func:`numpy.memmap` in read-only mode:

* N workers on one host share a single physical copy through the page
  cache (the memmap is zero-copy all the way into the aging kernels);
* the build happens once per unique stream *ever*, not once per process;
* the PR 7 read-only aliasing contract (``setflags(write=False)``) holds by
  construction — ``mode='r'`` memmaps are born non-writeable.

On-disk layout (all writes atomic: temp file + ``os.replace``)::

    <root>/manifest.json          # store-level schema marker
    <root>/<key[:2]>/<key>.bin    # raw segments, 64-byte-aligned offsets
    <root>/<key[:2]>/<key>.json   # per-entry manifest (segment table etc.)

The entry manifest is written *after* its payload, so a manifest's presence
implies a complete payload; concurrent writers race benignly (both write
identical bytes, the later rename wins, nothing is ever observed half
written).  The payload file carries four segments in fixed order — ``bits``
(uint8), ``valid_mask`` (bool), ``regions`` (int64), ``valid_words``
(int64) — and the manifest pins their offsets, shapes, dtypes and the
SHA-256 of the whole payload, which is also the digest the golden-identity
tests compare against.

Keys mix the caller-supplied identity with :func:`stream_code_version`, a
digest over only the *stream-defining* source files (quantization,
scheduler, network construction) — editing an aging kernel or the CLI does
not invalidate multi-gigabyte stream entries, editing the quantizer does.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.accelerator.scheduler import PackedBitTensor
from repro.memory.geometry import MemoryGeometry
from repro.utils.serialization import canonical_json

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

#: Environment variable controlling the stream store: unset/empty keeps the
#: default directory, a path moves it, ``0``/``off``/``none``/``disabled``
#: turns the store off entirely.
STREAM_STORE_ENV = "DNN_LIFE_STREAM_STORE"

#: Schema tag written into every manifest; bumped on layout changes so old
#: entries read as misses instead of mis-parsing.
STORE_SCHEMA = "dnn-life-streamstore/v1"

#: The per-process counters of :func:`stream_store_stats` snapshots.
STORE_COUNTERS = ("hits", "misses", "puts", "failed_puts", "corrupt")

#: Values of :data:`STREAM_STORE_ENV` that disable the store.
_DISABLED_VALUES = frozenset({"0", "off", "none", "disabled", "false"})

#: Segment byte offsets are rounded up to this alignment so the memmapped
#: views start on cache-line boundaries.
_ALIGNMENT = 64

#: Fixed segment order inside an entry's payload file.
_SEGMENT_ORDER = ("bits", "valid_mask", "regions", "valid_words")

#: Chunk size (bytes) for streaming payload bytes to disk / into a digest.
_CHUNK_BYTES = 1 << 24

#: Orphaned files (payloads with no manifest, crashed writers' ``*.tmp``)
#: younger than this are left alone by the sweeps: an in-flight writer's
#: payload exists manifest-less for a moment, and deleting its temp file
#: out from under it would turn an atomic write into an I/O error.
ORPHAN_AGE_GUARD_SECONDS = 3600.0

#: Source files (relative to the ``repro`` package root) that determine the
#: *content* of a packed stream.  Only edits to these invalidate store
#: entries; the full :func:`~repro.orchestration.cache.code_version` would
#: churn multi-gigabyte entries on every unrelated change.
_STREAM_SOURCE_PREFIXES = (
    "accelerator/",
    "nn/",
    "quantization/",
    "memory/geometry.py",
    "experiments/common.py",
    "utils/rng.py",
)


def default_stream_store_dir() -> Path:
    """Default store root: ``<result cache dir>/streams``.

    Piggybacking on :func:`~repro.orchestration.cache.default_cache_dir`
    means ``DNN_LIFE_CACHE_DIR`` (and the test suite's per-test cache
    isolation) relocates the stream store too.
    """
    from repro.orchestration.cache import default_cache_dir

    return default_cache_dir() / "streams"


@lru_cache(maxsize=1)
def stream_code_version() -> str:
    """Digest over the stream-defining subset of the package sources."""
    import repro

    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for prefix in _STREAM_SOURCE_PREFIXES:
        target = package_root / prefix
        paths = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for path in paths:
            if not path.is_file():
                continue
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\x00")
            digest.update(path.read_bytes())
            digest.update(b"\x00")
    return digest.hexdigest()[:16]


def stream_store_key(kind: str, identity: Dict[str, Any]) -> str:
    """Content-addressed key of one packed stream.

    ``kind`` namespaces the identity (``"workload"`` for network streams,
    ``"synthetic"`` for generated benchmark streams); the stream code
    version folds in so quantizer/scheduler changes miss cleanly.
    """
    payload = {
        "kind": kind,
        "identity": identity,
        "stream_code_version": stream_code_version(),
    }
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _array_chunks(array: np.ndarray) -> Iterator[np.ndarray]:
    """Yield an array's raw bytes as flat uint8 chunks (no full-size copy)."""
    flat = np.ascontiguousarray(array).reshape(-1).view(np.uint8)
    for start in range(0, flat.size, _CHUNK_BYTES):
        yield flat[start:start + _CHUNK_BYTES]


def _segment_arrays(packed: PackedBitTensor) -> List[Tuple[str, np.ndarray]]:
    """The four persisted segments of a packed tensor, in payload order."""
    return [
        ("bits", packed.bits),
        ("valid_mask", np.ascontiguousarray(packed.valid_mask())),
        ("regions", packed.regions),
        ("valid_words", packed.valid_words),
    ]


def _payload_layout(packed: PackedBitTensor
                    ) -> Tuple[List[Tuple[str, int, int, np.ndarray]], int]:
    """Plan the payload file: ``[(name, pad, offset, array)]`` plus total size."""
    plan: List[Tuple[str, int, int, np.ndarray]] = []
    offset = 0
    for name, array in _segment_arrays(packed):
        pad = (-offset) % _ALIGNMENT
        offset += pad
        plan.append((name, pad, offset, array))
        offset += int(array.nbytes)
    return plan, offset


def _payload_sha256(plan: List[Tuple[str, int, int, np.ndarray]]) -> str:
    """SHA-256 of the payload bytes :func:`_payload_layout` plans."""
    digest = hashlib.sha256()
    for _name, pad, _offset, array in plan:
        if pad:
            digest.update(b"\x00" * pad)
        for chunk in _array_chunks(array):
            digest.update(memoryview(chunk))
    return digest.hexdigest()


def packed_content_sha256(packed: PackedBitTensor) -> str:
    """SHA-256 of a packed tensor's payload bytes (exactly as stored on disk).

    Computed over the same segment order and alignment padding the store
    writes, so ``packed_content_sha256(built) == manifest["payload_sha256"]
    == packed_content_sha256(loaded)`` is the bit-identity invariant the
    golden tests pin.
    """
    return _payload_sha256(_payload_layout(packed)[0])


class StoredWeightStream(PackedBitTensor):
    """A packed weight stream memory-mapped back from the stream store.

    Identical to a freshly built :class:`PackedBitTensor` apart from
    :attr:`store_key`, the entry it was read from; the type itself marks a
    stream that came back from disk rather than from a cold build.
    """

    def __init__(self, *args: Any, store_key: str, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.store_key = store_key


class StreamStore:
    """Content-addressed store of :class:`PackedBitTensor` payloads.

    Writes are atomic and idempotent; loads are read-only memmaps.  The
    per-process ``hits``/``misses``/``puts``/``failed_puts``/``corrupt``
    counters back the sweep report's stream-store accounting.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.failed_puts = 0
        self.corrupt = 0
        self.orphan_files_reclaimed = 0
        self.orphan_bytes_reclaimed = 0

    # -- layout -------------------------------------------------------------- #
    def manifest_path(self, key: str) -> Path:
        """Path of the per-entry manifest (its presence marks a valid entry)."""
        return self.root / key[:2] / f"{key}.json"

    def payload_path(self, key: str) -> Path:
        """Path of the raw segment payload for ``key``."""
        return self.root / key[:2] / f"{key}.bin"

    def __contains__(self, key: str) -> bool:
        return self.manifest_path(key).is_file()

    def _write_store_manifest(self) -> None:
        """Drop the store-level schema marker (atomic, first write only)."""
        marker = self.root / "manifest.json"
        if marker.is_file():
            return
        payload = {"schema": STORE_SCHEMA, "layout": list(_SEGMENT_ORDER),
                   "alignment": _ALIGNMENT}
        _atomic_write_json(marker, payload)

    # -- writing ------------------------------------------------------------- #
    def put(self, key: str, packed: PackedBitTensor,
            describe: Optional[Dict[str, Any]] = None) -> Path:
        """Persist ``packed`` under ``key``; idempotent and concurrent-safe.

        An existing manifest means an identical payload is already on disk
        (content addressing), so the write is skipped — the loser of a
        two-process race discards its work.  Otherwise the payload file
        lands first, then the manifest; both through temp-file +
        ``os.replace``, so a crash or concurrent reader never observes a
        partial entry.
        """
        manifest_path = self.manifest_path(key)
        if manifest_path.is_file():
            return manifest_path
        manifest_path.parent.mkdir(parents=True, exist_ok=True)
        self._write_store_manifest()

        plan, total_bytes = _payload_layout(packed)
        handle = tempfile.NamedTemporaryFile(
            "wb", dir=manifest_path.parent, suffix=".bin.tmp", delete=False)
        try:
            # hashlib and file writes both release the GIL on large buffers,
            # so a helper thread hashes the payload while this one writes it;
            # leaving the block joins the helper.
            with handle, ThreadPoolExecutor(max_workers=1) as hasher:
                digest = hasher.submit(_payload_sha256, plan)
                for _name, pad, _offset, array in plan:
                    if pad:
                        handle.write(b"\x00" * pad)
                    for chunk in _array_chunks(array):
                        handle.write(memoryview(chunk))
                payload_sha256 = digest.result()
            os.replace(handle.name, self.payload_path(key))
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise

        manifest = {
            "schema": STORE_SCHEMA,
            "key": key,
            "nbytes": total_bytes,
            "payload_sha256": payload_sha256,
            "segments": {
                name: {"offset": offset, "shape": list(array.shape),
                       "dtype": str(array.dtype)}
                for name, _pad, offset, array in plan
            },
            "geometry": {
                "capacity_bytes": int(packed.geometry.capacity_bytes),
                "word_bits": int(packed.geometry.word_bits),
            },
            "fifo_depth_tiles": int(packed.fifo_depth_tiles),
            "num_blocks": packed.num_blocks,
            "words_per_block": packed.words_per_block,
            "describe": describe or {},
            "stream_code_version": stream_code_version(),
            "created_unix": time.time(),  # dnn-lint: disable=DL002
        }
        _atomic_write_json(manifest_path, manifest)
        self.puts += 1
        return manifest_path

    def offer(self, key: str, packed: PackedBitTensor,
              describe: Optional[Dict[str, Any]] = None) -> bool:
        """Best-effort :meth:`put` — I/O failures degrade to "not stored".

        A failed put (a full disk, say) leaves no temp file behind and is
        counted in :attr:`failed_puts`.
        """
        try:
            self.put(key, packed, describe=describe)
            return True
        except OSError:
            self.failed_puts += 1
            return False

    # -- loading ------------------------------------------------------------- #
    def load_stream(self, key: str) -> Optional[StoredWeightStream]:
        """The stored stream for ``key``, memmapped, or ``None``.

        Misses and corrupt entries both read as ``None`` (and are counted).
        """
        manifest_path = self.manifest_path(key)
        if not manifest_path.is_file():
            self.misses += 1
            return None
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
            if manifest.get("schema") != STORE_SCHEMA:
                raise ValueError(f"unknown schema {manifest.get('schema')!r}")
            payload_path = self.payload_path(key)
            expected = int(manifest["nbytes"])
            actual = payload_path.stat().st_size
            if actual != expected:
                raise ValueError(
                    f"payload is {actual} bytes, manifest says {expected}")
            segments: Dict[str, np.ndarray] = {}
            for name in _SEGMENT_ORDER:
                spec = manifest["segments"][name]
                segments[name] = np.memmap(
                    payload_path, dtype=np.dtype(str(spec["dtype"])), mode="r",
                    offset=int(spec["offset"]), shape=tuple(spec["shape"]))
            geometry = MemoryGeometry(
                capacity_bytes=int(manifest["geometry"]["capacity_bytes"]),
                word_bits=int(manifest["geometry"]["word_bits"]))
            packed = StoredWeightStream(
                bits=segments["bits"], regions=segments["regions"],
                valid_words=segments["valid_words"], geometry=geometry,
                fifo_depth_tiles=int(manifest["fifo_depth_tiles"]),
                describe=manifest.get("describe"), store_key=key)
            # Pre-seed the lazy mask with the persisted segment: mode='r'
            # memmaps are already non-writeable, satisfying the cache's
            # read-only contract without a recompute.
            packed._valid_mask = segments["valid_mask"]
        except (OSError, ValueError, KeyError, TypeError):
            # Truncated payloads, mangled JSON, schema drift: all read as a
            # miss so the caller rebuilds.  The manifest is dropped first
            # (its presence is what marks an entry valid), then the payload
            # — otherwise the self-heal strands a manifest-less .bin that no
            # maintenance pass would ever reclaim.  The rebuild's put()
            # repairs the entry instead of short-circuiting on it.
            self.corrupt += 1
            self.misses += 1
            for stale in (manifest_path, self.payload_path(key)):
                try:
                    stale.unlink()
                except OSError:
                    pass
            return None
        self.hits += 1
        try:
            os.utime(manifest_path)  # refresh mtime == last-used, for gc()
        except OSError:
            pass
        return packed

    #: The same lookup under its short name.
    get = load_stream

    # -- maintenance --------------------------------------------------------- #
    def _manifest_paths(self) -> Iterator[Path]:
        if not self.root.is_dir():
            return iter(())
        return self.root.glob("??/*.json")

    def _orphan_paths(self) -> Iterator[Path]:
        """Files under the root no live manifest accounts for.

        Two species: crashed writers' ``*.bin.tmp``/``*.json.tmp`` leftovers
        (the manifest glob above never matches them — ``*.json`` is not
        ``*.json.tmp``), and ``.bin`` payloads whose manifest is gone (e.g.
        stranded by the pre-fix corrupt self-heal, or by a crash between the
        two unlinks of :meth:`_remove_entry`).
        """
        if not self.root.is_dir():
            return
        for path in self.root.glob("??/*"):
            if path.name.endswith(".tmp"):
                yield path
            elif path.suffix == ".bin" and not path.with_suffix(".json").is_file():
                yield path

    def sweep_orphans(self, now: Optional[float] = None,
                      age_guard: float = ORPHAN_AGE_GUARD_SECONDS
                      ) -> Dict[str, int]:
        """Reclaim orphaned payloads and temp files older than ``age_guard``.

        Files younger than the guard are presumed in-flight (a writer's
        payload legitimately precedes its manifest) and kept.  Races with
        concurrent sweeps or writers are tolerated: a path that vanishes
        between listing, ``stat`` and ``unlink`` is simply skipped.  Returns
        the reclaimed ``{"files", "bytes"}`` and accumulates them on the
        ``orphan_files_reclaimed``/``orphan_bytes_reclaimed`` counters.
        """
        reference = time.time() if now is None else now  # dnn-lint: disable=DL002
        cutoff = reference - float(age_guard)
        files = 0
        nbytes = 0
        for path in list(self._orphan_paths()):
            try:
                stat = path.stat()
            except OSError:
                continue
            if stat.st_mtime >= cutoff:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            files += 1
            nbytes += stat.st_size
        self.orphan_files_reclaimed += files
        self.orphan_bytes_reclaimed += nbytes
        return {"files": files, "bytes": nbytes}

    def orphan_bytes(self) -> int:
        """Current orphaned footprint in bytes (no age filter — pure audit)."""
        total = 0
        for path in self._orphan_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def entries(self) -> List[Dict[str, Any]]:
        """Per-entry records (key, geometry, size, timestamps), newest first."""
        records: List[Dict[str, Any]] = []
        for manifest_path in self._manifest_paths():
            try:
                manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
                stat = manifest_path.stat()
                payload_bytes = self.payload_path(manifest["key"]).stat().st_size
            except (OSError, ValueError, KeyError):
                continue
            records.append({
                "key": str(manifest.get("key", manifest_path.stem)),
                "nbytes": payload_bytes,
                "geometry": manifest.get("geometry", {}),
                "fifo_depth_tiles": manifest.get("fifo_depth_tiles"),
                "num_blocks": manifest.get("num_blocks"),
                "describe": manifest.get("describe", {}),
                "created_unix": manifest.get("created_unix"),
                "last_used_unix": stat.st_mtime,
            })
        records.sort(key=lambda record: record["last_used_unix"], reverse=True)
        return records

    def stats(self) -> Dict[str, Any]:
        """Entry count / footprint plus this process' counters."""
        entries = self.entries()
        return {
            "root": str(self.root),
            "entries": len(entries),
            "bytes": sum(record["nbytes"] for record in entries),
            "orphan_bytes": self.orphan_bytes(),
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "failed_puts": self.failed_puts,
            "corrupt": self.corrupt,
        }

    def _remove_entry(self, manifest_path: Path) -> None:
        """Remove one entry: manifest first, so readers never see a half-entry."""
        payload_path = manifest_path.with_suffix(".bin")
        manifest_path.unlink(missing_ok=True)
        payload_path.unlink(missing_ok=True)

    def clear(self, now: Optional[float] = None) -> int:
        """Delete every entry; returns the number removed.

        Also sweeps aged orphans (manifest-less payloads, crashed writers'
        temp files) so a cleared store's footprint actually reaches zero;
        the sweep's yield lands on the orphan counters, not in the return
        value.  ``now`` pins the sweep's age-guard reference for tests.
        """
        removed = 0
        for manifest_path in list(self._manifest_paths()):
            self._remove_entry(manifest_path)
            removed += 1
        self.sweep_orphans(now=now)
        return removed

    def gc(self, unused_seconds: float,
           now: Optional[float] = None) -> int:
        """Delete entries not used (loaded or written) for ``unused_seconds``.

        Every successful load touches the manifest mtime, so "unused" means
        genuinely cold, not merely old.  Aged orphans are swept alongside
        (counted on the orphan counters, not in the return value).  ``now``
        pins the reference time for deterministic tests; the default reads
        the wall clock.
        """
        reference = time.time() if now is None else now  # dnn-lint: disable=DL002
        cutoff = reference - float(unused_seconds)
        removed = 0
        for manifest_path in list(self._manifest_paths()):
            try:
                mtime = manifest_path.stat().st_mtime
            except OSError:
                continue
            if mtime < cutoff:
                self._remove_entry(manifest_path)
                removed += 1
        self.sweep_orphans(now=reference)
        return removed


def _atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    """Write JSON through a temp file + ``os.replace`` in ``path``'s directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        "w", encoding="utf-8", dir=path.parent, suffix=".json.tmp", delete=False)
    try:
        with handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(handle.name, path)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise


#: Process-local store instances, memoized per resolved root so hit/miss/put
#: counters accumulate across call sites (the sweep report reads them).
_STORES: Dict[str, StreamStore] = {}


def _store_at(root: Union[str, Path]) -> StreamStore:
    resolved = str(Path(root).expanduser())
    store = _STORES.get(resolved)
    if store is None:
        store = StreamStore(resolved)
        _STORES[resolved] = store
    return store


def resolve_stream_store(root: Union[str, Path, None] = None
                         ) -> Optional[StreamStore]:
    """Resolve the stream store: explicit ``root``, else :data:`STREAM_STORE_ENV`.

    Returns ``None`` when the store is disabled (env set to one of
    ``0/off/none/disabled/false``).  An unset or empty variable keeps the
    store on at :func:`default_stream_store_dir`.
    """
    if root is not None:
        return _store_at(root)
    override = os.environ.get(STREAM_STORE_ENV, "")
    if override.strip().lower() in _DISABLED_VALUES:
        return None
    if override.strip():
        return _store_at(override.strip())
    return _store_at(default_stream_store_dir())


def active_stream_store() -> Optional[StreamStore]:
    """The environment-resolved stream store, or ``None`` when disabled."""
    return resolve_stream_store(None)


def stream_store_stats(store: Optional[StreamStore] = None
                       ) -> Optional[Dict[str, Any]]:
    """Counter snapshot of the (active) store — ``None`` when disabled.

    Cheap by design (no directory walk): only the in-process counters, which
    is what the sweep executors sample before/after each batch.
    """
    if store is None:
        store = active_stream_store()
    if store is None:
        return None
    return {"root": str(store.root), "hits": store.hits,
            "misses": store.misses, "puts": store.puts,
            "failed_puts": store.failed_puts, "corrupt": store.corrupt}


def stream_store_stats_delta(before: Optional[Dict[str, Any]],
                             after: Optional[Dict[str, Any]]
                             ) -> Optional[Dict[str, Any]]:
    """Counter delta between two :func:`stream_store_stats` snapshots.

    In a freshly-spawned worker process ``before`` is the zero snapshot, so
    the delta is the worker's absolute counters — exactly what the parent
    aggregates across batches.  A root change between snapshots resets the
    baseline (counters belong to different stores).
    """
    if after is None:
        return None
    baseline = before if before and before.get("root") == after.get("root") else {}
    return {
        "root": after["root"],
        **{counter: int(after[counter]) - int(baseline.get(counter, 0))
           for counter in STORE_COUNTERS},
    }
