"""Stdlib-only span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files only: around the calls an
op makes into a layer, and through wrappers that :func:`instrument` installs
on the layers' public functions for the duration of the traced loop.  When
tracing is off the op code talks to :data:`NULL_TRACER`, whose ``span`` hands
back one shared no-op context manager, and no wrapper is installed, so the
untraced loop runs the program's functions unmodified.

A layer's *self time* is its span's duration minus the time its child spans
cover; every per-layer time metric is a self time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Union


class _NullTracer:
    """Tracer stand-in for untraced loops: every call is a no-op."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float = 1.0) -> None:
        pass

    def begin_op(self, op_id: int):
        return self._null


NULL_TRACER = _NullTracer()


class Tracer:
    """In-memory span recorder; spans carry name, start, end, parent and op id."""

    enabled = True

    def __init__(self) -> None:
        # Each span: [name, start_s, end_s, parent_index or None, op_id].
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._op: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[name] += value

    @contextlib.contextmanager
    def begin_op(self, op_id: int):
        """Root span of one op; every span opened inside carries ``op_id``."""
        self._op = op_id
        try:
            with self.span("op"):
                yield
        finally:
            self._op = None

    # -- analysis --------------------------------------------------------- #
    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: number of spans, total and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        table: Dict[str, Dict[str, float]] = {}
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            row = table.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return table

    def render_table(self, ops: int) -> str:
        """Per-layer self-time table, sorted by self time."""
        table = self.self_times()
        lines = [f"{'span':<34}{'count':>7}{'total s':>10}{'self s':>10}"
                 f"{'self s/op':>11}"]
        for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
            lines.append(f"{name:<34}{row['count']:>7}{row['total_s']:>10.3f}"
                         f"{row['self_s']:>10.3f}{row['self_s'] / max(ops, 1):>11.4f}")
        return "\n".join(lines)

    def write_chrome_trace(self, path, metadata: Dict[str, object]) -> None:
        """Write the spans as Chrome trace-event JSON (opens in Perfetto)."""
        origin = min((span[1] for span in self.spans), default=0.0)
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": f"perfbench {metadata.get('workload', '')}"}}]
        for index, (name, start, end, parent, op_id) in enumerate(self.spans):
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "pid": 1, "tid": 1,
                "args": {"span": index, "parent": parent, "op": op_id},
            })
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, handle)


def _wrap(tracer: Tracer, restore: list, owner, attribute: str,
          name: Union[str, Callable[..., str]], after: Optional[Callable] = None) -> None:
    """Replace ``owner.attribute`` by a span-recording wrapper.

    ``name`` is the span name, or a function of the call's arguments giving
    it; ``after(result, *args)`` records counters.  ``restore`` collects what
    undoes the replacement.
    """
    original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
    is_classmethod = isinstance(original, classmethod)
    function = original.__func__ if is_classmethod else original

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with tracer.span(name if isinstance(name, str) else name(*args, **kwargs)):
            result = function(*args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    setattr(owner, attribute, classmethod(wrapper) if is_classmethod else wrapper)
    restore.append((owner, attribute, original))


def instrument(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layers' public functions with spans; returns the undo function.

    Wrappers sit where the program looks the functions up, so the program
    runs its own pipeline and the benchmark only observes it.
    """
    from repro.accelerator.baseline import BaselineAccelerator
    from repro.accelerator.scheduler import PackedBitTensor
    from repro.accelerator.tpu import TpuLikeNpu
    from repro.core.simulation import AgingResult, AgingSimulator
    from repro.experiments import aging_runner
    from repro.memory.wear_map import WearMap
    from repro.streamstore import StreamStore

    restore: list = []
    wrap = functools.partial(_wrap, tracer, restore)

    def synthesized(network, *args, **kwargs) -> None:
        tracer.count("nn.weights_synthesized", network.weight_count)

    def scheduled(scheduler, *args, **kwargs) -> None:
        tracer.count("nn.weights_streamed", scheduler.total_weight_words)

    def packed(tensor, *args, **kwargs) -> None:
        tracer.count("accelerator.packed_mb", tensor.nbytes / 1e6)

    def loaded(entry, *args, **kwargs) -> None:
        tracer.count("streamstore.loads")
        tracer.count("streamstore.hits", entry is not None)

    def written(path, store, key, *args, **kwargs) -> None:
        tracer.count("streamstore.write_mb", store.payload_path(key).stat().st_size / 1e6)

    def simulation(simulator, *args, **kwargs) -> str:
        if simulator.leveler is None:
            return "core.run"
        if simulator.policy.name == "dnn_life":
            return "core.leveled_run.dnn_life"
        return "core.leveled_run.deterministic"

    wrap(aging_runner, "attach_synthetic_weights", "nn.synthesize", synthesized)
    wrap(aging_runner, "reduce_network", "experiments.reduce")
    for accelerator in (BaselineAccelerator, TpuLikeNpu):
        wrap(accelerator, "build_scheduler", "accelerator.schedule", scheduled)
    wrap(PackedBitTensor, "from_stream", "accelerator.pack", packed)
    for method in ("load_stream", "get"):
        wrap(StreamStore, method, "streamstore.load", loaded)
    wrap(StreamStore, "put", "streamstore.write", written)
    wrap(AgingSimulator, "run", simulation)
    wrap(WearMap, "summary", "memory.wear_map")
    for method in ("histogram", "summary"):
        wrap(AgingResult, method, "aging.histogram")

    def undo() -> None:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)

    return undo
