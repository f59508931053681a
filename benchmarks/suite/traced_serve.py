"""Run the repro CLI with spans recorded around its layer boundaries.

    python traced_serve.py --trace-out FILE serve SNAP --port N ...
    python traced_serve.py --trace-out FILE gen --sf 0.01 --out SNAP

Tracing lives here, outside ``src/``: this file wraps public functions
of the repo's packages and then hands over to ``repro.cli.main``.  There
are two sets of wrappers:

* ``ALWAYS`` — start-up and background functions called a handful of
  times (snapshot load/save, recovery, checkpoint, data generation);
  installed before the CLI runs.
* ``ON_REQUEST`` and ``LEAVES`` — the request path; installed when the
  process receives ``SIGUSR1``, so the benchmark can measure a window on
  the very same warmed server before any request-path wrapper exists
  (that window is the base of ``trace.overhead_ratio``).

A span is ``(name, start_ns, end_ns, parent, request, leaf_ns)``: the
parent is the enclosing span on the same thread, the request id is
stamped when ``protocol.load_message`` decodes the next request on that
thread, and ``leaf_ns`` is the time spent in ``LEAVES`` directly under
the span.  Leaves are called tens of thousands of times a second, so
they are aggregated as (count, busy ns, self ns) per name instead of one
span each.  Spans stay in memory; they are written as JSON when the CLI
returns or on ``SIGUSR2`` (the benchmark asks for that before a
``SIGKILL``).  Self time of a span = duration - child spans - leaf_ns.

To add a hook point: add one ``(module, qualified name, span name)``
line to the right table and read the new name in ``layers.py``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import signal
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Tuple

Hook = Tuple[str, str, str]

ALWAYS: List[Hook] = [
    ("repro.io.snapshot", "load_collections", "io.load_collections"),
    ("repro.io.snapshot", "save_collections", "io.save_collections"),
    ("repro.durability.recovery", "recover", "durability.recover"),
    ("repro.durability.store", "DurableStore.checkpoint", "durability.checkpoint"),
    ("repro.tpch.datagen", "generate", "tpch.generate"),
    ("repro.tpch.loader", "load_smc", "tpch.load_smc"),
]

ON_REQUEST: List[Hook] = [
    ("repro.service.protocol", "load_message", "service.load_message"),
    ("repro.service.protocol", "send_message", "service.send_message"),
    ("repro.service.protocol", "encode_rows", "service.encode_rows"),
    ("repro.service.server", "QueryService.handle", "service.handle"),
    ("repro.service.admission", "AdmissionController.acquire", "service.admission_acquire"),
    ("repro.service.session", "SessionRegistry.require", "service.session_require"),
    ("repro.service.session", "Session.enter", "service.session_enter"),
    ("repro.service.session", "Session.exit", "service.session_exit"),
    ("repro.service.plancache", "PlanCache.get_or_build", "service.plan_cache"),
    ("repro.query.builder", "Query.run", "query.run"),
    ("repro.query.planner", "plan_scan", "query.plan_scan"),
    ("repro.query.planner", "estimate_query_rows", "query.estimate_rows"),
    ("repro.query.compiler", "get_compiled", "query.get_compiled"),
    ("repro.query.columnar_exec", "run_columnar", "query.run_columnar"),
    ("repro.query.columnar_exec", "build_scan_plan", "query.build_scan_plan"),
    ("repro.query.parallel", "run_parallel", "query.run_parallel"),
    ("repro.query.procexec", "ProcessScanPool.run", "query.procexec_run"),
    ("repro.memory.pager", "Pager.maintain", "memory.pager_maintain"),
    ("repro.memory.zonemap", "ensure", "memory.zonemap_ensure"),
    ("repro.core.collection", "Collection.remove", "core.remove"),
    ("repro.durability.store", "DurableStore.apply", "durability.apply"),
    ("repro.durability.wal", "WriteAheadLog.sync", "durability.wal_sync"),
]

LEAVES: List[Hook] = [
    ("repro.core.collection", "Collection.add", "core.add"),
    ("repro.memory.manager", "MemoryManager.allocate_object", "memory.allocate_object"),
    ("repro.memory.manager", "MemoryManager.free_object", "memory.free_object"),
    ("repro.durability.wal", "WriteAheadLog.append", "durability.wal_append"),
    ("repro.memory.pager", "Pager.touch", "memory.pager_touch"),
]

#: The span whose entry marks the start of a request on its thread.
REQUEST_START = "service.load_message"


class _ThreadState:
    __slots__ = ("spans", "stack", "leaf_ns", "leaf_stack", "leaves", "request")

    def __init__(self) -> None:
        self.spans: List[Any] = []
        self.stack: List[int] = []  # indices of open spans
        self.leaf_ns: List[int] = []  # leaf time under each open span
        self.leaf_stack: List[int] = []  # nested-leaf time under each open leaf
        self.leaves: Dict[int, List[int]] = {}
        self.request = 0


class Recorder:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._requests = itertools.count(1)

    def name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
            return state

    def span(self, fn: Callable, name: str) -> Callable:
        nid = self.name_id(name)
        starts_request = name == REQUEST_START
        state = self.state
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            if starts_request:
                st.request = next(self._requests)
            idx = len(st.spans)
            st.spans.append(None)
            parent = st.stack[-1] if st.stack else -1
            st.stack.append(idx)
            st.leaf_ns.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                st.stack.pop()
                st.spans[idx] = (nid, start, end, parent, st.request, st.leaf_ns.pop())

        return traced

    def leaf(self, fn: Callable, name: str) -> Callable:
        nid = self.name_id(name)
        state = self.state
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = state()
            st.leaf_stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                busy = clock() - start
                nested = st.leaf_stack.pop()
                agg = st.leaves.get(nid)
                if agg is None:
                    agg = st.leaves[nid] = [0, 0, 0]
                agg[0] += 1
                agg[1] += busy
                agg[2] += busy - nested
                if st.leaf_stack:
                    st.leaf_stack[-1] += busy
                elif st.leaf_ns:
                    st.leaf_ns[-1] += busy

        return traced

    def dump(self, path: str) -> None:
        with self._lock:
            threads = list(self._threads)
        leaves: Dict[str, List[int]] = {}
        for st in threads:
            for nid, agg in list(st.leaves.items()):
                total = leaves.setdefault(self.names[nid], [0, 0, 0])
                for i in range(3):
                    total[i] += agg[i]
        payload = {
            "pid": os.getpid(),
            "clock": "perf_counter_ns",
            "names": self.names,
            # One list per thread; a span's parent indexes its own list.
            # Spans still open at dump time are left out.
            "threads": [
                [list(s) if s is not None else None for s in list(st.spans)]
                for st in threads
            ],
            "leaves": leaves,
        }
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(payload, fh, separators=(",", ":"))
        os.replace(tmp, path)


def _patch(hook: Hook, wrap: Callable[[Callable, str], Callable]) -> None:
    module_name, qualname, span_name = hook
    module = importlib.import_module(module_name)
    owner: Any = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = owner.__dict__[attr] if path else getattr(owner, attr)
    wrapped = wrap(original, span_name)
    setattr(owner, attr, wrapped)
    if not path:
        # ``from module import function`` copies the binding: replace it
        # wherever a repro module already holds the original.
        for name, other in list(sys.modules.items()):
            if other is None or not name.startswith("repro"):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out":
        print(__doc__, file=sys.stderr)
        return 2
    trace_out, cli_args = argv[1], argv[2:]
    recorder = Recorder()
    for hook in ALWAYS:
        _patch(hook, recorder.span)

    def install_request_hooks(signum, frame):  # noqa: ARG001
        for hook in ON_REQUEST:
            _patch(hook, recorder.span)
        for hook in LEAVES:
            _patch(hook, recorder.leaf)
        signal.signal(signal.SIGUSR1, signal.SIG_IGN)
        with open(f"{trace_out}.on", "w"):
            pass

    signal.signal(signal.SIGUSR1, install_request_hooks)
    signal.signal(signal.SIGUSR2, lambda s, f: recorder.dump(trace_out))

    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
