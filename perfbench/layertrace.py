"""Outside-in layer tracer: wall-clock spans at each layer's public entry points.

The tracer lives entirely in the benchmark.  :meth:`LayerTrace.install`
replaces each target function (table :data:`TARGETS`) with a timing
wrapper *at every name that binds it* -- class attributes (including
aliases such as ``RankContext.send = isend``), module globals in every
loaded ``repro`` module (so ``from x import f`` call sites are covered)
and module-level dicts (``SENDERS``/``RECEIVERS``).  :meth:`uninstall`
puts every original back.

Span rules:

* a plain call is one span;
* a generator-returning function is timed *per resumption*: every
  ``send``/``throw`` into the generator is its own span, parented to
  whatever span drove the resumption (normally the event loop);
* deferred work is charged to the layer that enqueued it: the ``fn``
  callbacks of ``Stream.enqueue`` / ``Node.cpu_pack_op`` /
  ``Node.cpu_memcpy_op`` and callbacks added with ``Future.add_callback``
  are wrapped at enqueue time and, when the event loop later runs them,
  open a span named ``<layer>.deferred`` in the enqueuing layer (the
  nearest open span that is not ``hw``).  Callbacks defined in
  ``repro.sim.core`` itself (process resumption, ``all_of``) are charged
  to ``sim`` wherever they fire.

Spans are recorded only while a root span is open (:meth:`root`), so the
benchmark's set-up is not traced.  A layer's self time is its span time
minus the time covered by its child spans; the self times of all layers
sum to the root span's duration, with nothing counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Optional

__all__ = ["LAYERS", "TARGETS", "LayerTrace"]

_perf = time.perf_counter

#: layer names, outermost first; ``bench`` is the benchmark's own code
LAYERS = (
    "bench",
    "sim",
    "hw",
    "cuda",
    "datatype",
    "gpu_engine",
    "mpi.pml",
    "mpi.matching",
    "mpi.btl",
    "mpi.protocols",
    "mpi.collectives",
    "baselines",
)


def _range_bytes(bound: dict, result) -> int:
    """Bytes covered by a convertor ``*_range(buf, lo, hi)`` call."""
    return int(bound["hi"]) - int(bound["lo"])


def _returned_int(bound: dict, result) -> int:
    return int(result)


def _returned_len(bound: dict, result) -> int:
    return len(result)


def _packed_len(bound: dict, result) -> int:
    return len(bound["packed"])


def _arrive_unexpected(bound: dict, result) -> int:
    """An arrival that matched no posted receive was queued as unexpected."""
    return 1 if result is None else 0


#: (layer, module, qualified name, options).  Options:
#: ``defer`` -- name of a callback argument to charge to the enqueuing layer;
#: ``factory`` -- the function returns a handler; the handler is traced;
#: ``meter`` -- ``(counter, fn(bound arguments, result) -> amount)``.
TARGETS: tuple = (
    ("sim", "repro.sim.core", "Simulator.run", {}),
    ("hw", "repro.sim.resources", "FifoLink.transfer", {}),
    ("hw", "repro.sim.resources", "FifoLink.transfer_many", {}),
    ("hw", "repro.hw.gpu", "Stream.enqueue", {"defer": "fn"}),
    ("hw", "repro.hw.gpu", "Gpu.launch_kernel", {}),
    ("hw", "repro.hw.gpu", "Gpu.memcpy_d2d", {}),
    ("hw", "repro.hw.gpu", "Gpu.memcpy_d2h", {}),
    ("hw", "repro.hw.gpu", "Gpu.memcpy_h2d", {}),
    ("hw", "repro.hw.gpu", "Gpu.memcpy_peer", {}),
    ("hw", "repro.hw.gpu", "Gpu.dev_kernel_stats", {}),
    ("hw", "repro.hw.gpu", "Gpu.vector_kernel_stats", {}),
    ("hw", "repro.hw.node", "Node.cpu_pack_op", {"defer": "fn"}),
    ("hw", "repro.hw.node", "Node.cpu_memcpy_op", {"defer": "fn"}),
    ("hw", "repro.hw.nic", "Nic.send", {}),
    ("cuda", "repro.cuda.runtime", "CudaContext.memcpy", {}),
    ("cuda", "repro.cuda.runtime", "CudaContext.memcpy2d", {}),
    ("cuda", "repro.cuda.runtime", "CudaContext.stream", {}),
    ("cuda", "repro.cuda.runtime", "CudaContext.event", {}),
    ("cuda", "repro.cuda.runtime", "Event.record", {}),
    ("cuda", "repro.cuda.runtime", "Event.synchronize", {}),
    ("cuda", "repro.cuda.ipc", "IpcMemHandle.open", {}),
    ("datatype", "repro.datatype.convertor", "Convertor.__init__", {}),
    ("datatype", "repro.datatype.convertor", "Convertor.pack",
     {"meter": ("datatype.cpu_bytes", _returned_int)}),
    ("datatype", "repro.datatype.convertor", "Convertor.unpack",
     {"meter": ("datatype.cpu_bytes", _returned_int)}),
    ("datatype", "repro.datatype.convertor", "Convertor.pack_range",
     {"meter": ("datatype.cpu_bytes", _range_bytes)}),
    ("datatype", "repro.datatype.convertor", "Convertor.unpack_range",
     {"meter": ("datatype.cpu_bytes", _range_bytes)}),
    ("datatype", "repro.datatype.convertor", "pack_bytes",
     {"meter": ("datatype.cpu_bytes", _returned_len)}),
    ("datatype", "repro.datatype.convertor", "unpack_bytes",
     {"meter": ("datatype.cpu_bytes", _packed_len)}),
    ("datatype", "repro.datatype.ddt", "Datatype.spans_for_count", {}),
    ("datatype", "repro.datatype.canonical", "canonicalize", {}),
    ("gpu_engine", "repro.gpu_engine.engine", "GpuDatatypeEngine.pack_job", {}),
    ("gpu_engine", "repro.gpu_engine.engine", "GpuDatatypeEngine.unpack_job", {}),
    ("gpu_engine", "repro.gpu_engine.engine", "PackJob.prepare_for", {}),
    ("gpu_engine", "repro.gpu_engine.engine", "PackJob.run_kernel", {}),
    ("gpu_engine", "repro.gpu_engine.engine", "PackJob.fragments", {}),
    ("gpu_engine", "repro.gpu_engine.engine", "PackJob.range_fragment", {}),
    ("gpu_engine", "repro.gpu_engine.engine", "PackJob.process_fragment", {}),
    ("gpu_engine", "repro.gpu_engine.engine", "PackJob.process_all", {}),
    ("gpu_engine", "repro.gpu_engine.cache", "DevCache.get", {}),
    ("gpu_engine", "repro.gpu_engine.cache", "DevCache.put", {}),
    ("gpu_engine", "repro.gpu_engine.dev", "to_devs", {}),
    ("gpu_engine", "repro.gpu_engine.work_units", "split_units", {}),
    ("mpi.pml", "repro.mpi.world", "RankContext.isend", {}),
    ("mpi.pml", "repro.mpi.world", "RankContext.irecv", {}),
    ("mpi.pml", "repro.mpi.pml", "isend_coro", {}),
    ("mpi.pml", "repro.mpi.pml", "irecv_coro", {}),
    ("mpi.pml", "repro.mpi.pml", "_matched_recv_coro", {}),
    ("mpi.pml", "repro.mpi.pml", "eager_isend_fast", {}),
    ("mpi.pml", "repro.mpi.pml", "eager_irecv_fast", {}),
    ("mpi.pml", "repro.mpi.pml", "rts_handler", {"factory": True}),
    ("mpi.matching", "repro.mpi.matching", "MatchingEngine.arrive",
     {"meter": ("mpi.matching.unexpected", _arrive_unexpected)}),
    ("mpi.matching", "repro.mpi.matching", "MatchingEngine.post", {}),
    ("mpi.btl", "repro.mpi.btl.base", "Btl.am_send", {}),
    ("mpi.btl", "repro.mpi.btl.ib", "IbBtl.gpudirect_send", {}),
    ("mpi.btl", "repro.mpi.bml", "Bml.btl_for", {}),
    ("mpi.protocols", "repro.mpi.protocols.common", "choose_protocol", {}),
    ("mpi.protocols", "repro.mpi.protocols.common", "describe_side", {}),
    ("mpi.protocols", "repro.mpi.protocols.common", "CpuSideJob.process_range", {}),
    ("mpi.protocols", "repro.mpi.protocols.host_pipeline", "sender", {}),
    ("mpi.protocols", "repro.mpi.protocols.host_pipeline", "receiver", {}),
    ("mpi.protocols", "repro.mpi.protocols.copy_in_out", "sender", {}),
    ("mpi.protocols", "repro.mpi.protocols.copy_in_out", "receiver", {}),
    ("mpi.protocols", "repro.mpi.protocols.ipc_rdma", "sender", {}),
    ("mpi.protocols", "repro.mpi.protocols.ipc_rdma", "receiver", {}),
    ("mpi.collectives", "repro.mpi.collectives", "bcast", {}),
    ("mpi.collectives", "repro.mpi.collectives", "gather", {}),
    ("mpi.collectives", "repro.mpi.collectives", "allgather", {}),
    ("mpi.collectives", "repro.mpi.collectives", "alltoall", {}),
    ("mpi.collectives", "repro.mpi.collectives", "alltoallv", {}),
    ("baselines", "repro.baselines.mvapich", "MvapichLikeTransfer.transfer", {}),
    ("baselines", "repro.baselines.mvapich", "vectorize_spans", {}),
)

#: the simulator's own callback machinery stays with the event loop
_SIM_MODULE = "repro.sim.core"


class LayerTrace:
    """Span recorder plus the patch set that feeds it.

    Spans are stored column-wise (name id, parent index, start, end) so
    a traced run of thousands of ranks stays small in memory.
    """

    def __init__(self, workload: str = "") -> None:
        self.workload = workload
        self.names: list[str] = []
        self.name_layer: list[str] = []
        self._ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        #: open spans: [span index, layer, start, child seconds]
        self._stack: list[list] = []
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: inclusive seconds, self seconds and call counts per span name
        self.incl_s: dict[str, float] = {}
        self.name_self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        #: undo actions, applied last-first by :meth:`uninstall`
        self._patches: list[Callable[[], None]] = []
        #: wall seconds covered by root spans
        self.root_s = 0.0

    # -- spans ----------------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        """Intern a span name under its layer."""
        nid = self._ids.get(name)
        if nid is None:
            if layer not in self.self_s:
                raise ValueError(f"unknown layer {layer!r}")
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.name_layer.append(layer)
            self.incl_s[name] = 0.0
            self.name_self_s[name] = 0.0
            self.calls[name] = 0
        return nid

    def _open(self, nid: int) -> None:
        stack = self._stack
        idx = len(self.s_name)
        self.s_name.append(nid)
        self.s_parent.append(stack[-1][0] if stack else -1)
        t = _perf()
        self.s_start.append(t)
        self.s_end.append(t)
        stack.append([idx, self.name_layer[nid], t, 0.0])

    def _close(self) -> None:
        t = _perf()
        idx, layer, start, child = self._stack.pop()
        self.s_end[idx] = t
        dur = t - start
        self.self_s[layer] += dur - child
        name = self.names[self.s_name[idx]]
        self.name_self_s[name] += dur - child
        self.incl_s[name] += dur
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][3] += dur

    @contextmanager
    def root(self, name: str = "bench.measured"):
        """Open the root span (layer ``bench``) around the traced region."""
        if self._stack:
            raise RuntimeError("root span already open")
        self._open(self.name_id(name, "bench"))
        idx = self._stack[0][0]
        try:
            yield self
        finally:
            self._close()
            self.root_s += self.s_end[idx] - self.s_start[idx]

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named counter."""
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- wrappers -------------------------------------------------------------
    def wrap_plain(self, fn: Callable, name: str, layer: str, meter=None) -> Callable:
        """Time each call of ``fn`` as one span; ``meter`` adds to a counter."""
        nid = self.name_id(name, layer)
        tr = self
        sig = inspect.signature(fn) if meter is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr._stack:
                return fn(*args, **kwargs)
            tr._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._close()
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                tr.count(meter[0], meter[1](bound, result))
            return result

        return traced

    def wrap_gen(self, fn: Callable, name: str, layer: str) -> Callable:
        """Time every resumption of the generators ``fn`` returns."""
        nid = self.name_id(name, layer)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            if not tr._stack:
                return gen
            return tr.drive(gen, nid)

        return traced

    def drive(self, gen, nid: int):
        """Generator that forwards to ``gen``, timing each resumption."""
        wrapped = self._drive(gen, nid)
        wrapped.__name__ = getattr(gen, "__name__", wrapped.__name__)
        wrapped.__qualname__ = getattr(gen, "__qualname__", wrapped.__qualname__)
        return wrapped

    def _drive(self, gen, nid: int):
        value: Any = None
        exc: Optional[BaseException] = None
        while True:
            opened = bool(self._stack)
            if opened:
                self._open(nid)
            try:
                if exc is None:
                    out = gen.send(value)
                else:
                    out = gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                if opened:
                    self._close()
            exc = None
            try:
                value = yield out
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as err:  # forwarded into the wrapped generator
                exc = err
                value = None

    def wrap_program(self, program: Callable, name: str = "bench.rank_program"):
        """Trace a rank program's resumptions as benchmark code."""
        return self.wrap_gen(program, name, "bench")

    def _charge_layer(self) -> Optional[str]:
        """Layer of the nearest open span that is not a hardware model."""
        for entry in reversed(self._stack):
            if entry[1] != "hw":
                return entry[1]
        return None

    def defer(self, callback: Callable, layer: str) -> Callable:
        """Wrap a callback so it runs as a span of ``layer`` when fired."""
        nid = self.name_id(f"{layer}.deferred", layer)
        tr = self

        def deferred(*args, **kwargs):
            if not tr._stack:
                return callback(*args, **kwargs)
            tr._open(nid)
            try:
                return callback(*args, **kwargs)
            finally:
                tr._close()

        return deferred

    def wrap_deferring(
        self, fn: Callable, name: str, layer: str, arg: str
    ) -> Callable:
        """Like :meth:`wrap_plain`, also charging callback ``arg`` to the caller."""
        params = list(inspect.signature(fn).parameters)
        pos = params.index(arg)
        nid = self.name_id(name, layer)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr._stack:
                return fn(*args, **kwargs)
            target = tr._charge_layer()
            if target is not None:
                if len(args) > pos and args[pos] is not None:
                    args = args[:pos] + (tr.defer(args[pos], target),) + args[pos + 1:]
                elif kwargs.get(arg) is not None:
                    kwargs[arg] = tr.defer(kwargs[arg], target)
            tr._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tr._close()

        return traced

    def wrap_add_callback(self, fn: Callable) -> Callable:
        """``Future.add_callback`` that charges the callback to its adder.

        The simulator's own callbacks (process resumption, ``all_of``)
        are charged to ``sim`` wherever they fire.
        """
        tr = self

        @functools.wraps(fn)
        def add_callback(fut, cb):
            stack = tr._stack
            if stack:
                if getattr(cb, "__module__", None) == _SIM_MODULE:
                    cb = tr.defer(cb, "sim")
                elif stack[-1][1] not in ("hw", "sim"):
                    cb = tr.defer(cb, stack[-1][1])
            return fn(fut, cb)

        return add_callback

    def wrap_factory(self, fn: Callable, name: str, layer: str) -> Callable:
        """Trace the handlers a factory function returns."""
        tr = self
        self.name_id(name, layer)

        @functools.wraps(fn)
        def factory(*args, **kwargs):
            return tr.wrap_plain(fn(*args, **kwargs), name, layer)

        return factory

    # -- patching ---------------------------------------------------------------
    def install(self) -> "LayerTrace":
        """Patch every target at every name that binds it."""
        if self._patches:
            raise RuntimeError("layer trace already installed")
        for layer, modname, qualname, opts in TARGETS:
            module = importlib.import_module(modname)
            owner: Any = module
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, parts[-1])
            name = f"{modname.rsplit('.', 1)[-1]}.{qualname}"
            if opts.get("factory"):
                traced = self.wrap_factory(original, name, layer)
            elif "defer" in opts:
                traced = self.wrap_deferring(original, name, layer, opts["defer"])
            elif inspect.isgeneratorfunction(original):
                traced = self.wrap_gen(original, name, layer)
            else:
                traced = self.wrap_plain(original, name, layer, opts.get("meter"))
            before = len(self._patches)
            if owner is module:
                self._rebind_everywhere(original, traced)
            else:
                self._rebind_class(owner, original, traced)
            if len(self._patches) == before:
                self.uninstall()
                raise RuntimeError(f"trace target {modname}.{qualname} not bound")
        from repro.sim.core import Future

        original = Future.__dict__["add_callback"]
        self._rebind_class(Future, original, self.wrap_add_callback(original))
        return self

    def uninstall(self) -> None:
        """Restore every patched binding (last patched, first restored)."""
        while self._patches:
            self._patches.pop()()

    def _rebind_class(self, cls: type, original: Callable, traced: Callable) -> None:
        for attr, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, attr, traced)
                self._patches.append(
                    functools.partial(setattr, cls, attr, original)
                )

    def _rebind_everywhere(self, original: Callable, traced: Callable) -> None:
        for modname, module in list(sys.modules.items()):
            if not (modname == "repro" or modname.startswith("repro.")):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    setattr(module, attr, traced)
                    self._patches.append(
                        functools.partial(setattr, module, attr, original)
                    )
                elif type(value) is dict:
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = traced
                            self._patches.append(
                                functools.partial(value.__setitem__, key, original)
                            )

    @contextmanager
    def installed(self):
        """Context manager: install, yield, always uninstall."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer (sums to :attr:`root_s`)."""
        return dict(self.self_s)

    def span_count(self) -> int:
        return len(self.s_name)

    def summary(self) -> dict:
        """Totals of the trace as plain data (JSON-friendly)."""
        return {
            "self_s": self.layer_self_s(),
            "name_self_s": dict(self.name_self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counters": dict(self.counters),
            "root_s": self.root_s,
            "spans": self.span_count(),
        }

    def write(self, path: str) -> None:
        """Write every span as JSON (one record per span)."""
        base = self.s_start[0] if len(self.s_start) else 0.0
        doc = {
            "workload": self.workload,
            "fields": ["name", "layer", "start_s", "end_s", "parent"],
            "spans": [
                [
                    self.names[self.s_name[i]],
                    self.name_layer[self.s_name[i]],
                    self.s_start[i] - base,
                    self.s_end[i] - base,
                    self.s_parent[i],
                ]
                for i in range(len(self.s_name))
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
