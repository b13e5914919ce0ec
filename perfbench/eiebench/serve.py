"""The ``serve_alexnet`` workload: a ``repro serve`` daemon driven over TCP.

The daemon is a subprocess started exactly as a user starts it (``python -m
repro.cli serve ...``) with an empty artifact store.  Load comes from one
:class:`~repro.serve.AsyncServeClient` connection in this process, driven by
the time-bounded generators below:

* :func:`closed_loop` keeps ``concurrency`` requests in flight; its capacity
  is the least-squares slope of good completions over completion time inside
  the measurement window, so batch-sized bursts of completions do not
  quantize it.
* :func:`open_loop` sends on a seeded Poisson schedule; latency runs from
  each request's scheduled arrival, and ``lags_ms`` records how late the
  generator itself sent each request.

Every completed response's output is compared with the first output served
for the same input vector.  After the timed window the first
``OFFLINE_SAMPLE`` vectors (every phase serves them first) are re-run offline
through ``Session.run_model``; each offline output must equal the served one
and hash to the digest recorded in ``serve_digests.json`` for the seed's
input set, so a change to the compressed model or to the engine shows.  Any
difference counts as a failed operation.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable

import numpy as np

from eiebench.paper import input_set

#: Distinct request vectors per run; request ``i`` carries vector ``i % POOL``.
POOL = 256

#: Input vectors re-run offline per run: the first ``OFFLINE_SAMPLE`` of the pool.
OFFLINE_SAMPLE = 16

DIGESTS = Path(__file__).resolve().parent.parent / "serve_digests.json"

_READY = re.compile(r"listening on (\S+):(\d+)")

#: How long a daemon may take from spawn to its readiness line.
READY_TIMEOUT_S = 150.0


@dataclass
class Phase:
    """What one load phase sent and got back."""

    name: str
    sent: int = 0
    completed: int = 0
    rejected: int = 0
    failed: int = 0
    late: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    lags_ms: list[float] = field(default_factory=list)
    queue_wait_ms: list[float] = field(default_factory=list)
    service_ms: list[float] = field(default_factory=list)
    wire_ms: list[float] = field(default_factory=list)
    batch_sizes: list[int] = field(default_factory=list)
    good_done: list[float] = field(default_factory=list)
    rate_rps: float = 0.0
    first_error: str | None = None


class OutputLedger:
    """Checks that every response for one input vector carries the same bits."""

    def __init__(self) -> None:
        self.first: dict[int, np.ndarray] = {}
        self.mismatched = 0
        self.checked = 0

    def add(self, vector_index: int, output: np.ndarray) -> None:
        reference = self.first.setdefault(vector_index, output)
        self.checked += 1
        if reference is not output and not np.array_equal(reference, output):
            self.mismatched += 1


def _record(phase, ledger, index, issued, done, response, error, limit_s, window_start,
            window_end=float("inf")):
    """Account one finished request into ``phase``.

    Requests issued inside the window (from ``window_start``) are counted and
    sampled.  Capacity counts good completions (no error, within ``limit_s``)
    that land inside ``[window_start, window_end]``, whenever they were issued.
    """
    in_window = issued >= window_start
    if error is not None:
        from repro.errors import ServerOverloadedError

        if in_window:
            if isinstance(error, ServerOverloadedError):
                phase.rejected += 1
            else:
                phase.failed += 1
                phase.first_error = phase.first_error or repr(error)
        return
    ledger.add(index % POOL, response.output)
    latency = done - issued
    if latency <= limit_s and window_start <= done <= window_end:
        phase.good_done.append(done)
    if not in_window:
        return
    phase.completed += 1
    phase.late += latency > limit_s
    phase.latencies_ms.append(latency * 1e3)
    phase.queue_wait_ms.append(response.queue_wait_s * 1e3)
    phase.service_ms.append(response.service_s * 1e3)
    phase.wire_ms.append((latency - response.queue_wait_s - response.service_s) * 1e3)
    phase.batch_sizes.append(int(response.batch_size))


def capacity_rps(done_times: list[float]) -> float:
    """Least-squares slope of the cumulative completion count over time."""
    if len(done_times) < 2:
        return 0.0
    times = np.sort(np.asarray(done_times))
    if times[-1] <= times[0]:
        return 0.0
    slope, _ = np.polyfit(times - times[0], np.arange(1, times.size + 1), 1)
    return float(slope)


async def closed_loop(
    name: str,
    submit: Callable[[np.ndarray], Awaitable[Any]],
    inputs: np.ndarray,
    ledger: OutputLedger,
    concurrency: int,
    warmup_s: float,
    duration_s: float,
    limit_s: float,
    min_samples: int = 0,
) -> Phase:
    """``concurrency`` workers, each issuing its next request on completion.

    The phase runs for ``warmup_s + duration_s`` and, past that, until at
    least ``min_samples`` requests issued inside the window have completed.
    """
    phase = Phase(name)
    counter = itertools.count()
    start = time.perf_counter()
    window_start = start + warmup_s
    stop_at = window_start + duration_s

    async def worker() -> None:
        while time.perf_counter() < stop_at or len(phase.latencies_ms) < min_samples:
            index = next(counter)
            issued = time.perf_counter()
            phase.sent += issued >= window_start
            response = error = None
            try:
                response = await submit(inputs[index % POOL])
            except Exception as exc:  # counted as a rejected or failed request
                error = exc
            _record(phase, ledger, index, issued, time.perf_counter(), response, error,
                    limit_s, window_start, stop_at)

    await asyncio.gather(*(worker() for _ in range(concurrency)))
    phase.rate_rps = capacity_rps(phase.good_done)
    return phase


async def open_loop(
    name: str,
    submit: Callable[[np.ndarray], Awaitable[Any]],
    inputs: np.ndarray,
    ledger: OutputLedger,
    rate_rps: float,
    warmup_s: float,
    duration_s: float,
    limit_s: float,
    seed: int,
) -> Phase:
    """Poisson arrivals at ``rate_rps``; latency from scheduled arrival."""
    phase = Phase(name)
    rng = np.random.default_rng([seed, int(rate_rps)])
    total = warmup_s + duration_s
    gaps = rng.exponential(1.0 / rate_rps, size=int(rate_rps * total * 1.5) + 16)
    arrivals = np.cumsum(gaps)
    arrivals = arrivals[arrivals < total]
    tasks = []

    async def one(index: int, scheduled: float) -> None:
        response = error = None
        try:
            response = await submit(inputs[index % POOL])
        except Exception as exc:  # counted as a rejected or failed request
            error = exc
        _record(phase, ledger, index, scheduled, time.perf_counter(), response, error,
                limit_s, window_start)

    start = time.perf_counter()
    window_start = start + warmup_s
    for offset, arrival in enumerate(arrivals):
        scheduled = start + float(arrival)
        delay = scheduled - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        if scheduled >= window_start:
            phase.sent += 1
            phase.lags_ms.append((time.perf_counter() - scheduled) * 1e3)
        tasks.append(asyncio.create_task(one(offset, scheduled)))
    await asyncio.gather(*tasks)
    phase.rate_rps = float(rate_rps)
    return phase


class Daemon:
    """One ``repro serve`` subprocess."""

    def __init__(self, process: subprocess.Popen, host: str, port: int, setup_s: float):
        self.process = process
        self.host = host
        self.port = port
        self.setup_s = setup_s

    @classmethod
    def spawn(cls, src: Path, params: dict, store_dir: Path, log_path: Path) -> "Daemon":
        shutil.rmtree(store_dir, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH=str(src), REPRO_STORE_DIR=str(store_dir))
        env.pop("REPRO_STORE", None)
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--models", params["model"],
            "--scale", str(params["scale"]),
            "--pes", str(params["pes"]),
            "--max-batch", str(params["max_batch"]),
            "--engine", params["engine"],
            "--host", "127.0.0.1",
            "--port", "0",
        ]
        with open(log_path, "ab") as log:
            started = time.perf_counter()
            process = subprocess.Popen(
                command, stdout=subprocess.PIPE, stderr=log, stdin=subprocess.DEVNULL, env=env
            )
        try:
            line = _read_line(process, started + READY_TIMEOUT_S)
            setup_s = time.perf_counter() - started
            match = _READY.search(line)
            if match is None:
                raise RuntimeError(f"daemon did not report readiness: {line!r}")
        except BaseException as exc:
            _stop(process)
            if isinstance(exc, Exception):
                log_tail = log_path.read_text(errors="replace")[-2000:]
                raise RuntimeError(f"{exc}; daemon log:\n{log_tail}") from exc
            raise
        return cls(process, match.group(1), int(match.group(2)), setup_s)

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        _stop(self.process)


def _read_line(process: subprocess.Popen, deadline: float) -> str:
    buffer = b""
    fd = process.stdout.fileno()
    while b"\n" not in buffer:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError("daemon did not become ready in time")
        readable, _, _ = select.select([fd], [], [], remaining)
        if readable:
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"daemon exited with code {process.wait()} before it was ready"
                )
            buffer += chunk
    return buffer.decode(errors="replace")


def _stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()


def model_spec(params: dict):
    from repro.models.spec import ModelSpec

    return ModelSpec(model=params["model"], scale=float(params["scale"]))


def request_inputs(model, seed: int) -> np.ndarray:
    """The run's ``POOL`` request vectors, generated from the seed's input set."""
    from repro.models.inputs import synthetic_model_inputs

    return synthetic_model_inputs(model, batch=POOL, seed=input_set(seed))


def output_digest(output: np.ndarray) -> str:
    """sha256 of one output's dtype, shape and bytes."""
    array = np.ascontiguousarray(output)
    header = f"{array.dtype.str}{array.shape}".encode()
    return hashlib.sha256(header + array.tobytes()).hexdigest()


def expected_digests(workload: str, seed: int) -> list[str]:
    """The recorded offline-output digests of this seed's input set."""
    recorded = json.loads(DIGESTS.read_text())
    return recorded["workloads"][workload][str(input_set(seed))]


def offline_outputs(model, description: dict, store_dir: Path,
                    inputs: np.ndarray) -> list[np.ndarray]:
    """Outputs of the first ``OFFLINE_SAMPLE`` vectors through ``Session.run_model``.

    The session loads the daemon's compressed layers from its store, so the
    outputs come from the compressed model the daemon served.
    """
    from repro.compression.pipeline import CompressionConfig
    from repro.core.config import EIEConfig
    from repro.engine.session import Session
    from repro.store import ArtifactStore

    config = EIEConfig(num_pes=description["num_pes"], fifo_depth=description["fifo_depth"])
    session = Session(
        CompressionConfig.from_dict(description["compression"]),
        config=config,
        store=ArtifactStore(store_dir),
    )
    return [
        session.run_model(description["engine"], model, inputs[index], config).outputs[0]
        for index in range(OFFLINE_SAMPLE)
    ]


def offline_check(model, description: dict, store_dir: Path, inputs: np.ndarray,
                  ledger: OutputLedger, expected: list[str]) -> tuple[int, dict]:
    """Re-run the sampled vectors offline: ``(checked, mismatched index lists)``.

    A vector fails when it was not served, when its served output differs
    from the offline one, or when the offline output's digest differs from
    ``expected``.
    """
    outputs = offline_outputs(model, description, store_dir, inputs)
    mismatched: dict[str, list[int]] = {"served": [], "digest": []}
    for index, output in enumerate(outputs):
        served = ledger.first.get(index)
        if served is None or not np.array_equal(served, output):
            mismatched["served"].append(index)
        if output_digest(output) != expected[index]:
            mismatched["digest"].append(index)
    return len(outputs), mismatched


async def _describe(daemon: "Daemon", model_name: str) -> dict:
    from repro.serve import AsyncServeClient

    client = await AsyncServeClient.connect(daemon.host, daemon.port)
    try:
        return (await client.models())[model_name]
    finally:
        await client.close()


def record_digests(src: Path, params: dict, input_sets, scratch: Path) -> dict[str, list[str]]:
    """Offline-output digests per input set, from one daemon's compressed model."""
    from repro.models.registry import ModelRegistry

    model = ModelRegistry.build(model_spec(params))
    store_dir = scratch / "record-store"
    daemon = Daemon.spawn(src, params, store_dir, scratch / "daemon.log")
    try:
        description = asyncio.run(_describe(daemon, params["model"]))
    finally:
        daemon.stop()
    recorded = {
        str(index): [
            output_digest(output)
            for output in offline_outputs(model, description, store_dir,
                                          request_inputs(model, index))
        ]
        for index in input_sets
    }
    shutil.rmtree(store_dir, ignore_errors=True)
    return recorded


async def drive_daemon(daemon: Daemon, params: dict, inputs: np.ndarray, seed: int,
                       ledger: OutputLedger, capacity_s: float, one_client_s: float,
                       min_samples: int = 0, open_loop_s: float = 0.0) -> tuple[list[Phase], dict]:
    """Over one connection: capacity, one-client latency, then an open loop.

    A phase with no time is skipped.  The one-client loop runs until it has
    ``min_samples`` samples; the open loop runs at the fixed ``open_loop_rps``.
    """
    from repro.serve import AsyncServeClient

    client = await AsyncServeClient.connect(daemon.host, daemon.port)
    try:
        description = (await client.models())[params["model"]]

        def submit(vector):
            return client.infer(params["model"], vector)

        limit, warmup = params["latency_limit_s"], params["warmup_s"]
        phases = []
        if capacity_s > 0:
            phases.append(await closed_loop(
                "capacity", submit, inputs, ledger, params["concurrency"], warmup,
                capacity_s, limit,
            ))
        phases.append(await closed_loop(
            "one_client", submit, inputs, ledger, 1, warmup, one_client_s, limit,
            min_samples=min_samples,
        ))
        if open_loop_s > 0:
            phases.append(await open_loop(
                "open_loop", submit, inputs, ledger, params["open_loop_rps"], warmup,
                open_loop_s, limit, seed,
            ))
    finally:
        await client.close()
    return phases, description
