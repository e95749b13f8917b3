"""The traced run's wrappers, installed around the program from outside.

Nothing in ``src/`` knows about these.  A page-store proxy stands in front
of the ``Pager``/``BufferPool`` an index is built over; the hash index, the
index's public methods and the update buffer get instance-level wrappers;
the serve client's codec functions are wrapped at module level for the
duration of a traced serve pass.  Every wrapper brackets the real call in
a span named ``<layer>.<call>``.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from repro.serve import protocol

from .spans import SpanRecorder


class TracedStore:
    """A ``PageStore`` that records a span per charged page access.

    Uncharged accessors (``inspect``, ``contains``, ``stats`` ...) fall
    through ``__getattr__`` untouched, so I/O accounting is unchanged.
    """

    def __init__(self, inner, recorder: SpanRecorder) -> None:
        self.inner = inner
        self.read = recorder.wrap("storage.read", inner.read)
        self.write = recorder.wrap("storage.write", inner.write)
        self.allocate = recorder.wrap("storage.allocate", inner.allocate)
        self.free = recorder.wrap("storage.free", inner.free)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


def wrap_methods(
    target, layer: str, methods: Iterable[str], recorder: SpanRecorder
) -> None:
    """Shadow ``target``'s named bound methods with traced ones.

    Instance attributes win over class attributes, so calls the object
    makes on itself (``LSMRTree.update`` reaching ``self.flush``) are
    traced too.
    """
    for method in methods:
        setattr(target, method, recorder.wrap(f"{layer}.{method}", getattr(target, method)))


HASH_METHODS = ("get", "set", "set_many", "remove")
INDEX_METHODS = ("insert", "update", "range_search")
LSM_METHODS = INDEX_METHODS + ("flush", "compact_step")
BUFFER_METHODS = ("put", "flush")


class KnnView:
    """What ``knn_search`` sees in a traced run: the index's range scan
    under its own span name, so kNN time is not booked as range-query
    time.  Like the lazy-R-tree it offers no ``nearest``, which keeps
    ``knn_search`` on the expanding-window path the untraced run takes."""

    def __init__(self, raw_range_search: Callable, layer: str, recorder: SpanRecorder) -> None:
        self.range_search = recorder.wrap(f"{layer}.knn.range_search", raw_range_search)


#: ``repro.serve.protocol`` function -> span name stem.
CODEC_SPANS = {
    "pack_frame": "serve.client.encode",
    "_recv_exactly": "serve.client.wait",
    "decode_payload": "serve.client.decode",
}


def trace_serve_codec(recorder_of_thread: threading.local) -> Callable[[], None]:
    """Wrap the serve client's encode / receive / decode functions.

    ``ServeClient.request`` resolves ``pack_frame``, ``_recv_exactly`` and
    ``decode_payload`` from its module at call time, so replacing the module
    attributes brackets them for every client in this process.  Each
    connection thread records into its own recorder
    (``recorder_of_thread.recorder``); the span name carries the op kind the
    thread announced with ``begin_op``.  Returns the undo callable.
    """
    originals = {attr: getattr(protocol, attr) for attr in CODEC_SPANS}

    def bracket(attr: str) -> Callable:
        fn = originals[attr]
        stem = CODEC_SPANS[attr]

        def traced(*args, **kwargs):
            recorder = getattr(recorder_of_thread, "recorder", None)
            if recorder is None or not recorder.on:
                return fn(*args, **kwargs)
            recorder.push(f"{stem}.{recorder.op_kind}")
            try:
                return fn(*args, **kwargs)
            finally:
                recorder.pop()

        return traced

    for attr in originals:
        setattr(protocol, attr, bracket(attr))

    def undo() -> None:
        for attr, fn in originals.items():
            setattr(protocol, attr, fn)

    return undo
