"""Spans around the public functions of each layer, recorded from outside ``src/``.

A :class:`Tracer` replaces each target function with a wrapper that records
one :class:`Span` per call: name, start, end, the span that caused it and
the id of the root span it belongs to (for example one experiment).
Functions are replaced at every binding a caller can resolve: the class
attribute for methods, and every ``repro.*`` module global that holds the
function object for plain functions (``interleaved_entry_counts`` is called
through ``repro.workloads.generator``, not through ``repro.compression.csc``).

Spans stay in memory until :func:`chrome_trace` turns them into trace events.
A span's *self time* is its duration minus the part of it that its child
spans cover; self times of the layers plus ``other`` add up to the wall time.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator


@dataclass(frozen=True)
class Span:
    """One timed call. Times are ``perf_counter_ns`` readings."""

    name: str
    start: int
    end: int
    span_id: int
    parent: int | None
    root: int
    tid: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> int:
        return self.end - self.start


def _batch_items(arguments: dict) -> dict:
    return {"items": len(arguments["works"])}


def _build_key(arguments: dict) -> dict:
    spec = arguments["spec"]
    return {"key": f"{spec.name}/{spec.rows}x{spec.cols}/{int(arguments['num_pes'])}"}


#: ``(span name, module, attribute path, annotate)`` for every traced call.
#: The span name's first component is the layer (the ``repro`` package).
#: Only synchronous calls are wrapped: an ``async`` function's span would
#: include the time it sits suspended, which is waiting, not work.  The
#: JSON-lines wire cost is traced through the ``json`` functions the protocol
#: module calls (both the client and the server side, in-process).
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("experiments.runner", "repro.experiments.runner", "ExperimentRunner.run", None),
    ("workloads.build", "repro.workloads.generator", "WorkloadBuilder.build", _build_key),
    ("workloads.pattern", "repro.workloads.synthetic", "generate_sparse_pattern", None),
    ("compression.entry_counts", "repro.compression.csc", "interleaved_entry_counts", None),
    ("compression.compress", "repro.compression.pipeline", "DeepCompressor.compress", None),
    ("compression.prune", "repro.compression.pruning", "prune_to_density", None),
    ("compression.kmeans", "repro.compression.quantization", "WeightCodebook.fit", None),
    ("compression.quantize", "repro.compression.quantization", "WeightCodebook.quantize", None),
    ("compression.csc_encode", "repro.compression.csc", "InterleavedCSC.from_dense", None),
    (
        "compression.huffman",
        "repro.compression.pipeline",
        "CompressedLayer.huffman_storage_bits",
        None,
    ),
    ("models.build", "repro.models.registry", "ModelRegistry.build", None),
    ("store.publish", "repro.store.artifacts", "ArtifactStore.store_layer", None),
    ("store.publish", "repro.store.artifacts", "ArtifactStore.store_json", None),
    ("store.load", "repro.store.artifacts", "ArtifactStore.load_layer_by_key", None),
    ("store.load", "repro.store.artifacts", "ArtifactStore.load_json", None),
    ("engine.compress_model", "repro.engine.session", "Session.compress_model", None),
    ("engine.prepare", "repro.engine.session", "Session.prepare", None),
    ("engine.run", "repro.engine.session", "Session.run", None),
    ("engine.run_node", "repro.engine.session", "Session.run_node", None),
    ("engine.run_model", "repro.engine.session", "Session.run_model", None),
    ("cycle_model.simulate", "repro.core.cycle_model", "simulate_layer_cycles", None),
    (
        "cycle_model.simulate_batch",
        "repro.core.cycle_model",
        "simulate_layer_cycles_batch",
        _batch_items,
    ),
    ("serve.json_encode", "repro.serve.protocol", "json.dumps", None),
    ("serve.json_decode", "repro.serve.protocol", "json.loads", None),
)


class _ModuleView:
    """One module's private stand-in for another module it imported."""

    def __init__(self, module) -> None:
        self._module = module

    def __getattr__(self, name: str):
        return getattr(self._module, name)


@dataclass(frozen=True)
class _Active:
    span_id: int
    root: int


class Tracer:
    """Records spans in memory; :meth:`install` wraps :data:`TARGETS`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[_Active | None] = contextvars.ContextVar(
            "eiebench_span", default=None
        )
        self._undo: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------------

    def _open(self) -> tuple[_Active | None, _Active, contextvars.Token]:
        parent = self._current.get()
        span_id = next(self._ids)
        active = _Active(span_id, parent.root if parent else span_id)
        return parent, active, self._current.set(active)

    def _close(self, name, start, parent, active, token, attrs) -> None:
        end = time.perf_counter_ns()
        self._current.reset(token)
        self.spans.append(
            Span(
                name,
                start,
                end,
                active.span_id,
                parent.span_id if parent else None,
                active.root,
                threading.get_ident(),
                attrs,
            )
        )

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        """Record the ``with`` body as one span."""
        parent, active, token = self._open()
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self._close(name, start, parent, active, token, attrs)

    def wrap(self, name: str, fn: Callable, annotate: Callable | None = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``.

        ``annotate`` maps the call's bound arguments to span attributes.
        """
        signature = inspect.signature(fn) if annotate else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = annotate(signature.bind(*args, **kwargs).arguments) if annotate else {}
            parent, active, token = self._open()
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, start, parent, active, token, attrs)

        return wrapper

    # -- installing wrappers ----------------------------------------------------------

    def install(self, targets: Iterable[tuple] = TARGETS) -> None:
        """Wrap every target at every binding its callers resolve."""
        for name, module_name, path, annotate in targets:
            module = importlib.import_module(module_name)
            if "." not in path:
                self._wrap_function(name, getattr(module, path), annotate)
                continue
            owner_name, attr = path.split(".")
            owner = getattr(module, owner_name)
            if inspect.ismodule(owner) or isinstance(owner, _ModuleView):
                self._wrap_in_view(name, module, owner_name, attr, annotate)
            else:
                self._wrap_method(name, owner, attr, annotate)

    def _wrap_function(self, name: str, original: Callable, annotate) -> None:
        """Replace ``original`` in every ``repro`` module global that holds it."""
        wrapped = self.wrap(name, original, annotate)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._undo.append((loaded, attr, original))
                    setattr(loaded, attr, wrapped)

    def _wrap_method(self, name: str, owner: type, attr: str, annotate) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(name, raw.__func__, annotate))
        else:
            wrapped = self.wrap(name, raw, annotate)
        self._undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapped)

    def _wrap_in_view(self, name: str, module, owner_name: str, attr: str, annotate) -> None:
        """Wrap a function of a module ``module`` imported (``json``) for ``module`` only."""
        view = getattr(module, owner_name)
        if not isinstance(view, _ModuleView):
            self._undo.append((module, owner_name, view))
            view = _ModuleView(view)
            setattr(module, owner_name, view)
        setattr(view, attr, self.wrap(name, getattr(view, attr), annotate))

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()


def _union_length(intervals: list[tuple[int, int]]) -> int:
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Each span's duration minus the union of its children's, clipped to it."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = _union_length(
            [
                (max(child.start, span.start), min(child.end, span.end))
                for child in children.get(span.span_id, ())
            ]
        )
        result[span.span_id] = span.duration - covered
    return result


def breakdown(spans: Iterable[Span], wall_ns: int) -> dict:
    """Per-name and per-layer self time (seconds) and counts, plus ``other``.

    ``other`` is the wall time no span accounts for, so the layer self times
    plus ``other`` equal ``wall_ns``.  When spans of different threads overlap
    in time their self times can add up to more than the wall time, and
    ``other`` goes negative.
    """
    spans = list(spans)
    own = self_times(spans)
    names: dict[str, dict] = defaultdict(lambda: {"self_s": 0.0, "total_s": 0.0, "count": 0})
    layers: dict[str, float] = defaultdict(float)
    for span in spans:
        entry = names[span.name]
        entry["self_s"] += own[span.span_id] / 1e9
        entry["total_s"] += span.duration / 1e9
        entry["count"] += 1
        layers[span.layer] += own[span.span_id] / 1e9
    wall_s = wall_ns / 1e9
    return {
        "wall_s": wall_s,
        "names": dict(names),
        "layers": dict(layers),
        "other_s": wall_s - sum(layers.values()),
    }


def chrome_trace(spans: Iterable[Span], origin_ns: int | None = None) -> dict:
    """Chrome trace-event JSON: one complete ("X") event per span."""
    spans = list(spans)
    if origin_ns is None:
        origin_ns = min((span.start for span in spans), default=0)
    events = [
        {
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "ts": (span.start - origin_ns) / 1e3,
            "dur": span.duration / 1e3,
            "pid": 1,
            "tid": span.tid,
            "args": {"id": span.root, "span": span.span_id, "parent": span.parent, **span.attrs},
        }
        for span in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
