"""Pluggable intra-job execution backends.

The engine's simulated costs are charged by the driver thread from
record counts, never from wall-clock measurements, so *how* a partition
kernel runs is free to vary: :class:`SerialBackend` runs kernels inline
(the default — byte-for-byte the seed behavior), :class:`ThreadBackend`
fans partitions out over a shared thread pool, and
:class:`ProcessBackend` keeps a persistent pool of forked worker
processes and ships kernels by reference with batched IPC. All three
produce bit-identical records, simulated time, metrics and superstep
counts; the only observable difference is wall-clock time and the
backend-owned ``parallel.*`` telemetry.

Determinism contract (why every backend agrees):

- Kernels (:mod:`repro.runtime.kernels`) are pure; the parent performs
  every clock/metrics charge itself, before or after dispatch, computed
  from record counts.
- Results merge in task order (partition order), regardless of which
  worker finished first — dynamic chunk assignment and stealing never
  reorder output.
- A kernel exception aborts the dispatch and re-raises in the parent;
  when several partitions fail, the lowest partition index wins, which
  is exactly the error the serial loop would have raised first.
  ``PartitionLostError`` therefore surfaces identically mid-superstep
  under every backend, keeping all recovery strategies equivalent.
- The process pool uses the ``fork`` start method where available, so
  workers inherit the parent's hash seed and set-iteration order
  (``co_group``'s key union) matches the serial path.

Process dispatch requires picklable kernel arguments (operator UDFs and
key extractors). Payloads that fail to pickle fall back to inline
execution in the parent, transparently and correctly — the fallback is
counted in ``parallel.inline_fallbacks`` so it is visible, not silent.

Large loop-invariant side inputs (join build indexes, cross broadcasts)
are shipped once per worker as :class:`Resident` values and cached in a
worker-local store keyed by ``(executor token, pin index)``; tasks that
reference residents are pinned to their home worker so the copy is
reused across supersteps instead of re-shipped.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Sequence

import multiprocessing as mp

from ..config import PARALLEL_BACKENDS
from ..errors import ConfigError, ExecutionError
from .metrics import MetricsRegistry

__all__ = [
    "PARALLEL_BACKENDS",
    "LIGHT",
    "HEAVY",
    "Resident",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "CoreBudget",
    "default_parallel_workers",
    "get_backend",
    "close_shared_backends",
    "iter_shared_backends",
]

#: dispatch weight hints. LIGHT marks kernels whose work is a single
#: cheap pass (shuffle routing): for process workers the IPC of moving
#: the records out and back dwarfs the routing itself, so LIGHT tasks
#: run inline in the parent.
LIGHT = "light"
HEAVY = "heavy"

#: distinguishes executors' resident namespaces (see Resident keys).
_EXECUTOR_TOKENS = itertools.count()


def next_resident_token() -> int:
    """A fresh namespace token for one executor's resident values."""
    return next(_EXECUTOR_TOKENS)


def default_parallel_workers() -> int:
    """Default worker count: the machine's cores, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


class Resident:
    """A ship-once side value for process workers.

    Pickles as its key only (``__getstate__`` drops the value); the
    parent ships ``(key, value)`` to a worker the first time a task
    referencing it lands there, and the worker caches it in a local
    store. Backends without worker-local state never see these — the
    executor only wraps side values when ``backend.uses_residents``.
    """

    __slots__ = ("key", "value")

    def __init__(self, key: tuple[int, int], value: Any):
        self.key = key
        self.value = value

    def __getstate__(self):
        return self.key

    def __setstate__(self, key):
        self.key = key
        self.value = None

    def __repr__(self) -> str:
        return f"Resident(key={self.key!r})"


def _resolve_local(args: Sequence[Any]) -> tuple:
    """Resolve residents parent-side (inline execution paths)."""
    return tuple(a.value if isinstance(a, Resident) else a for a in args)


def _run_inline(kernel: Callable, tasks: Sequence[tuple]) -> list[Any]:
    """Run tasks sequentially in the calling thread, serial semantics."""
    outs = []
    for args in tasks:
        out, _counters = kernel(*_resolve_local(args))
        outs.append(out)
    return outs


class ExecutionBackend:
    """Interface of an intra-job partition-execution backend.

    ``run(kernel, tasks)`` executes ``kernel(*args)`` for every args
    tuple in ``tasks`` and returns the kernels' output partitions in
    task order. Counters are aggregated into the backend-owned
    ``metrics`` registry (kept separate from the job's registry so job
    metrics stay bit-identical across backends).
    """

    name = "abstract"
    #: True only for the serial backend; the executor keeps its fused
    #: single-loop shuffle fast path when this is set.
    is_serial = False
    #: True when the backend keeps worker-local state and the executor
    #: should wrap reusable side values in :class:`Resident`.
    uses_residents = False

    def __init__(self, workers: int, metrics: MetricsRegistry | None = None):
        if workers < 1:
            raise ConfigError(f"parallel workers must be >= 1, got {workers}")
        self.workers = workers
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def run(self, kernel: Callable, tasks: Sequence[tuple], *, weight: str = HEAVY) -> list[Any]:
        raise NotImplementedError

    def drop_residents(self, token: int) -> None:
        """Forget every resident value in ``token``'s namespace."""

    def close(self) -> None:
        """Release pools/processes. Idempotent."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutionBackend):
    """Inline execution in the driver thread — the seed behavior."""

    name = "serial"
    is_serial = True

    def __init__(self, metrics: MetricsRegistry | None = None):
        super().__init__(1, metrics)

    def run(self, kernel: Callable, tasks: Sequence[tuple], *, weight: str = HEAVY) -> list[Any]:
        self.metrics.increment("parallel.chunks.dispatched")
        outs = _run_inline(kernel, tasks)
        self.metrics.increment("parallel.chunks.completed")
        return outs


def _timed_task(kernel: Callable, args: tuple) -> tuple[Any, float]:
    started = time.perf_counter()
    out, _counters = kernel(*args)
    return out, time.perf_counter() - started


class ThreadBackend(ExecutionBackend):
    """Shared-memory fan-out over a persistent thread pool.

    Pure-Python kernels mostly serialize on the GIL, so the speedup is
    modest; the backend's real value is keeping dispatch semantics
    honest (same task-order merge, same error propagation) with zero
    pickling constraints, which makes it the bridge between serial and
    processes in the equivalence tests.
    """

    name = "threads"

    def __init__(self, workers: int, metrics: MetricsRegistry | None = None):
        super().__init__(workers, metrics)
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-parallel"
        )
        self._closed = False

    def run(self, kernel: Callable, tasks: Sequence[tuple], *, weight: str = HEAVY) -> list[Any]:
        if not tasks:
            return []
        if weight == LIGHT or self.workers == 1 or len(tasks) == 1 or self._closed:
            self.metrics.increment("parallel.chunks.inline")
            return _run_inline(kernel, tasks)
        started = time.perf_counter()
        futures = [self._pool.submit(_timed_task, kernel, args) for args in tasks]
        self.metrics.increment("parallel.chunks.dispatched", len(futures))
        outs: list[Any] = []
        busy = 0.0
        error: BaseException | None = None
        for future in futures:
            # In-order gather: the first failing task index raises, like
            # the serial loop. Later futures still drain (no cancel races).
            try:
                out, elapsed = future.result()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None:
                    error = exc
                continue
            busy += elapsed
            outs.append(out)
        self.metrics.increment("parallel.chunks.completed", len(futures))
        wall = time.perf_counter() - started
        if wall > 0:
            self.metrics.observe(
                "parallel.worker_utilization", min(1.0, busy / (wall * self.workers))
            )
        if error is not None:
            raise error
        return outs

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True, cancel_futures=True)


# -- process backend -------------------------------------------------------------


def _worker_main(conn) -> None:
    """Process-worker loop: receive chunks, run kernels, reply in bulk.

    The worker owns a local resident store ``{key: value}``; ``run``
    messages carry the store updates their tasks need, ``drop`` messages
    clear one executor's namespace. All simulated-cost accounting stays
    in the parent — the worker only computes records.
    """
    store: dict[tuple[int, int], Any] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        command = message[0]
        if command == "stop":
            break
        if command == "drop":
            token = message[1]
            for key in [key for key in store if key[0] == token]:
                del store[key]
            continue
        _, chunk_id, kernel, items, updates = message
        for key, value in updates:
            store[key] = value
        started = time.perf_counter()
        results: list[tuple[int, Any, dict[str, int]]] = []
        failure = None
        for index, args in items:
            try:
                resolved = tuple(
                    store[a.key] if isinstance(a, Resident) else a for a in args
                )
                out, counters = kernel(*resolved)
                results.append((index, out, counters))
            except BaseException as exc:  # noqa: BLE001 - shipped to parent
                try:
                    payload = pickle.dumps(exc)
                except Exception:
                    payload = None
                failure = (index, payload, repr(exc))
                break
        busy = time.perf_counter() - started
        if failure is not None:
            reply = ("fail", chunk_id, *failure, busy)
        else:
            reply = ("ok", chunk_id, results, busy)
        try:
            conn.send(reply)
        except Exception:
            # Output records failed to pickle; ask the parent to redo
            # the chunk inline where no serialization is needed.
            try:
                conn.send(("redo", chunk_id))
            except Exception:
                break


def _pickle_context():
    """Prefer fork: workers inherit the parent's hash seed, keeping
    set-iteration order (co_group's key union) identical across
    processes. Falls back to spawn on platforms without fork."""
    try:
        return mp.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return mp.get_context("spawn")


class _WorkerHandle:
    __slots__ = ("proc", "conn", "sent")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        #: resident keys this worker already holds.
        self.sent: set[tuple[int, int]] = set()


class ProcessBackend(ExecutionBackend):
    """Persistent forked worker pool with batched IPC.

    Tasks are grouped into chunks (``~2 × workers`` chunks per
    dispatch), each chunk is one round-trip message, and idle workers
    steal unpinned chunks from the longest backlog. Tasks referencing
    :class:`Resident` values are pinned to ``partition % workers`` so
    the resident copy shipped in superstep 1 is reused in superstep N.
    A dead worker is respawned (bounded per dispatch) and its chunk
    re-dispatched; kernel errors are pickled back and re-raised in the
    parent, lowest task index first.
    """

    name = "processes"
    uses_residents = True

    #: errors conn.send raises when a payload cannot be pickled.
    _PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError)

    def __init__(self, workers: int, metrics: MetricsRegistry | None = None):
        super().__init__(workers, metrics)
        self._ctx = _pickle_context()
        self._handles: list[_WorkerHandle | None] | None = None
        # Reentrant so drop_residents/close compose with run's guard; the
        # lock also serializes concurrent service jobs sharing this pool,
        # doubling as the core-budget arbiter for intra-job workers.
        self._lock = threading.RLock()
        self._closed = False

    # -- pool management -----------------------------------------------------

    def _spawn(self, wid: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main, args=(child_conn,), daemon=True, name=f"repro-parallel-{wid}"
        )
        proc.start()
        child_conn.close()
        return _WorkerHandle(proc, parent_conn)

    def _ensure_workers(self) -> None:
        if self._closed:
            raise ExecutionError("process backend is closed")
        if self._handles is None:
            self._handles = [self._spawn(wid) for wid in range(self.workers)]
            return
        for wid, handle in enumerate(self._handles):
            if handle is None or not handle.proc.is_alive():
                self._discard(wid)
                self._handles[wid] = self._spawn(wid)

    def _discard(self, wid: int) -> None:
        handle = self._handles[wid] if self._handles else None
        if handle is None:
            return
        try:
            handle.conn.close()
        except OSError:
            pass
        if handle.proc.is_alive():  # pragma: no cover - defensive
            handle.proc.terminate()
        self._handles[wid] = None

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles, self._handles = self._handles, None
        if not handles:
            return
        for handle in handles:
            if handle is None:
                continue
            try:
                handle.conn.send(("stop",))
            except Exception:
                pass
        for handle in handles:
            if handle is None:
                continue
            handle.proc.join(timeout=2.0)
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass

    def drop_residents(self, token: int) -> None:
        with self._lock:
            if self._handles is None or self._closed:
                return
            for handle in self._handles:
                if handle is None or not handle.proc.is_alive():
                    continue
                stale = {key for key in handle.sent if key[0] == token}
                if not stale and not handle.sent:
                    continue
                handle.sent -= stale
                try:
                    handle.conn.send(("drop", token))
                except Exception:
                    pass

    # -- dispatch -------------------------------------------------------------

    def run(self, kernel: Callable, tasks: Sequence[tuple], *, weight: str = HEAVY) -> list[Any]:
        if not tasks:
            return []
        if weight == LIGHT or self.workers == 1 or len(tasks) == 1 or self._closed:
            self.metrics.increment("parallel.chunks.inline")
            return _run_inline(kernel, tasks)
        with self._lock:
            self._ensure_workers()
            return self._dispatch(kernel, tasks)

    def _chunk(self, tasks: Sequence[tuple]) -> list[deque]:
        """Split tasks into per-home chunk queues.

        Home = task index % workers, so pinned (resident-bearing) tasks
        revisit the worker that already holds their resident values.
        """
        nw = self.workers
        per_home: list[list[tuple[int, tuple]]] = [[] for _ in range(nw)]
        for index, args in enumerate(tasks):
            per_home[index % nw].append((index, args))
        chunk_size = max(1, -(-len(tasks) // (nw * 2)))
        pending: list[deque] = []
        for items in per_home:
            queue: deque = deque()
            for start in range(0, len(items), chunk_size):
                chunk = items[start : start + chunk_size]
                pinned = any(
                    isinstance(a, Resident) for _idx, args in chunk for a in args
                )
                queue.append((pinned, chunk))
            pending.append(queue)
        return pending

    def _take(self, pending: list[deque], wid: int):
        """Next chunk for ``wid``: own queue first, else steal an
        unpinned chunk from the tail of the longest other queue."""
        if pending[wid]:
            return pending[wid].popleft(), False
        best, best_len = None, 0
        for other in range(len(pending)):
            queue = pending[other]
            if queue and not queue[-1][0] and len(queue) > best_len:
                best, best_len = other, len(queue)
        if best is None:
            return None, False
        return pending[best].pop(), True

    def _dispatch(self, kernel: Callable, tasks: Sequence[tuple]) -> list[Any]:
        nw = self.workers
        pending = self._chunk(tasks)
        results: list[Any] = [None] * len(tasks)
        errors: list[tuple[int, BaseException]] = []
        outstanding: dict[int, tuple[int, list]] = {}  # wid -> (chunk_id, items)
        chunk_ids = itertools.count()
        dispatched = completed = stolen = fallbacks = respawns = 0
        busy_total = 0.0
        started = time.perf_counter()
        respawn_budget = nw * 2

        def run_chunk_inline(items):
            nonlocal fallbacks
            fallbacks += 1
            for index, args in items:
                try:
                    out, _counters = kernel(*_resolve_local(args))
                except BaseException as exc:  # noqa: BLE001 - collected
                    errors.append((index, exc))
                    break
                results[index] = out

        def revive(wid):
            nonlocal respawns
            if respawns >= respawn_budget:
                raise ExecutionError(
                    f"parallel worker {wid} died repeatedly "
                    f"({respawns} respawns); giving up"
                )
            respawns += 1
            self._discard(wid)
            self._handles[wid] = self._spawn(wid)

        def send_chunk(wid, chunk, was_stolen):
            """Ship one chunk; returns True when it is now outstanding."""
            nonlocal dispatched, stolen
            _pinned, items = chunk
            handle = self._handles[wid]
            updates = []
            update_keys = []
            for _index, args in items:
                for a in args:
                    if isinstance(a, Resident) and a.key not in handle.sent:
                        handle.sent.add(a.key)
                        updates.append((a.key, a.value))
                        update_keys.append(a.key)
            chunk_id = next(chunk_ids)
            while True:
                try:
                    handle.conn.send(("run", chunk_id, kernel, items, updates))
                except self._PICKLE_ERRORS:
                    # Unpicklable UDF/records: run inline, correctness first.
                    handle.sent.difference_update(update_keys)
                    run_chunk_inline(items)
                    return False
                except (BrokenPipeError, OSError, EOFError):
                    revive(wid)
                    handle = self._handles[wid]
                    # Fresh worker: previously-sent residents are gone.
                    updates = []
                    update_keys = []
                    for _index, args in items:
                        for a in args:
                            if isinstance(a, Resident) and a.key not in handle.sent:
                                handle.sent.add(a.key)
                                updates.append((a.key, a.value))
                                update_keys.append(a.key)
                    continue
                break
            dispatched += 1
            if was_stolen:
                stolen += 1
            outstanding[wid] = (chunk_id, items)
            return True

        while True:
            for wid in range(nw):
                while wid not in outstanding:
                    chunk, was_stolen = self._take(pending, wid)
                    if chunk is None:
                        break
                    if send_chunk(wid, chunk, was_stolen):
                        break
            if not outstanding:
                if any(pending):  # pragma: no cover - invariant guard
                    raise ExecutionError("internal: undispatchable parallel chunks")
                break
            conn_to_wid = {
                self._handles[wid].conn: wid for wid in outstanding
            }
            ready = mp_connection.wait(list(conn_to_wid))
            for conn in ready:
                wid = conn_to_wid[conn]
                chunk_id, items = outstanding[wid]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # Worker died mid-chunk: respawn and redo its chunk.
                    del outstanding[wid]
                    revive(wid)
                    pending[wid].appendleft((True, items))
                    continue
                del outstanding[wid]
                kind = message[0]
                if kind == "ok":
                    _, _cid, chunk_results, busy = message
                    busy_total += busy
                    completed += 1
                    for index, out, _counters in chunk_results:
                        results[index] = out
                elif kind == "fail":
                    _, _cid, index, payload, text, busy = message
                    busy_total += busy
                    completed += 1
                    exc: BaseException | None = None
                    if payload is not None:
                        try:
                            exc = pickle.loads(payload)
                        except Exception:
                            exc = None
                    if exc is None:
                        exc = ExecutionError(f"parallel worker kernel failed: {text}")
                    errors.append((index, exc))
                else:  # "redo": worker output failed to pickle
                    run_chunk_inline(items)

        wall = time.perf_counter() - started
        metrics = self.metrics
        metrics.increment("parallel.chunks.dispatched", dispatched)
        metrics.increment("parallel.chunks.completed", completed)
        metrics.increment("parallel.tasks", len(tasks))
        if stolen:
            metrics.increment("parallel.chunks.stolen", stolen)
        if fallbacks:
            metrics.increment("parallel.inline_fallbacks", fallbacks)
        if respawns:
            metrics.increment("parallel.worker_respawns", respawns)
        if wall > 0 and dispatched:
            metrics.observe(
                "parallel.worker_utilization", min(1.0, busy_total / (wall * nw))
            )
            metrics.observe("parallel.dispatch_seconds", wall)
        if errors:
            # The serial loop raises the first failing partition's error.
            errors.sort(key=lambda pair: pair[0])
            raise errors[0][1]
        return results


# -- core budget (service layer) --------------------------------------------------


class CoreBudget:
    """Splits one machine's cores between job slots and intra-job workers.

    The job service runs ``pool_size`` engine runs concurrently; with
    intra-job parallel backends each run would additionally fan out,
    oversubscribing the machine ``pool_size × workers`` ways. The budget
    grants each slot ``total // pool_size`` workers (at least one), and
    the supervisor clamps every job's ``parallel_workers`` to the grant.
    """

    def __init__(self, total: int | None = None):
        if total is not None and total < 1:
            raise ConfigError(f"core budget must be >= 1, got {total}")
        self.total = total if total is not None else (os.cpu_count() or 1)

    def workers_per_slot(self, slots: int) -> int:
        return max(1, self.total // max(1, slots))

    def __repr__(self) -> str:
        return f"CoreBudget(total={self.total})"


# -- shared backend registry ------------------------------------------------------

_SHARED: dict[tuple[str, int], ExecutionBackend] = {}
_SHARED_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False


def get_backend(name: str, workers: int | None = None) -> ExecutionBackend:
    """Resolve a backend by configuration.

    Serial backends are stateless and returned fresh (so their
    ``parallel.*`` counters are per-run); thread and process pools are
    expensive to start, so one pool per ``(backend, workers)`` pair is
    shared across runs and closed at interpreter exit.
    """
    global _ATEXIT_REGISTERED
    if name not in PARALLEL_BACKENDS:
        raise ConfigError(
            f"parallel_backend must be one of {PARALLEL_BACKENDS}, got {name!r}"
        )
    if name == "serial":
        return SerialBackend()
    resolved = workers if workers is not None else default_parallel_workers()
    if resolved < 1:
        raise ConfigError(f"parallel_workers must be >= 1, got {resolved}")
    key = (name, resolved)
    with _SHARED_LOCK:
        backend = _SHARED.get(key)
        if backend is None:
            if name == "threads":
                backend = ThreadBackend(resolved)
            else:
                backend = ProcessBackend(resolved)
            _SHARED[key] = backend
            if not _ATEXIT_REGISTERED:
                atexit.register(close_shared_backends)
                _ATEXIT_REGISTERED = True
    return backend


def close_shared_backends() -> None:
    """Close every shared pool (tests and interpreter exit)."""
    with _SHARED_LOCK:
        backends = list(_SHARED.values())
        _SHARED.clear()
    for backend in backends:
        backend.close()


def iter_shared_backends() -> list[tuple[str, int, MetricsRegistry]]:
    """``(backend_name, workers, metrics)`` per live shared pool.

    Telemetry reads this to fold the shared thread/process pools'
    ``parallel.*`` counters and utilization histograms into service
    health reports and Prometheus scrapes. Read-only; the registries
    themselves are thread-safe.
    """
    with _SHARED_LOCK:
        items = list(_SHARED.items())
    return [(name, workers, backend.metrics) for (name, workers), backend in items]
