"""Serving workloads: ``python -m repro serve`` under seeded open-loop arrivals.

The server runs as its own process.  One run spawns it :data:`SETUP_REPEATS`
times; each spawn is timed until its warm-up requests (one per town) are
done, and the last spawn then serves the measured schedule.  The client side
is one submitter thread, which sends each request when it is due, and one
collector thread, which waits for the results in submission order, so at
most two connections are open at once.

A request's latency runs from its *due* time to the ``finished_at`` stamp of
its session record (both clocks are this host's wall clock), so a stall that
delays later submissions is charged to them.  A request that is refused,
fails, expires or returns a payload different from a solo ``repro.api.run``
of the same request misses every latency limit.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import queue
import random
import selectors
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

from perfbench import stats

HOUSEHOLDS = 1000
TOWNS = 8
BETAS: tuple[float, ...] = tuple(1.0 + 0.5 * step for step in range(8))
SETUP_REPEATS = 5
#: A Poisson schedule always holds at least this many requests, so the p90
#: has ten samples beyond it.
MIN_REQUESTS = 100
#: A paced schedule always holds at least this many, so the median has ten
#: samples beyond it; a paced run reports no p90.
MIN_PACED_REQUESTS = 21
#: Delay between building the schedule and its first due time.
LEAD_SECONDS = 0.2
#: How long after the last due time the collector keeps waiting for results.
DRAIN_SECONDS = 30.0
#: A run whose generator sent any request later than this after its due
#: time is invalid: the client, not the server, set the pace.
MAX_GENERATOR_LAG_SECONDS = 0.5
#: ``serve_fresh`` checks every this-many-th request against a solo run.
FRESH_CHECK_EVERY = 4
#: Server state directories, under the repository root (git ignores it).
STATE_DIR = ".bench_state"


@dataclass(frozen=True)
class ServeWorkload:
    rate: float
    #: Whether every request names a town no earlier request used.
    fresh: bool
    #: Poisson arrivals, so queueing and coalescing show; otherwise evenly
    #: spaced arrivals, far enough apart that every request runs alone.
    poisson: bool


WORKLOADS: dict[str, ServeWorkload] = {
    "serve_towns": ServeWorkload(rate=10.0, fresh=False, poisson=True),
    "serve_fresh": ServeWorkload(rate=3.0, fresh=True, poisson=False),
}


def request_body(town: int, beta: float) -> dict[str, Any]:
    """A 1000-household synthetic scenario request with the default config."""
    return {"scenario": {"households": HOUSEHOLDS, "seed": town, "beta": beta}}


def warmup_bodies() -> list[dict[str, Any]]:
    """One request per town; both serving workloads warm up the same way."""
    return [request_body(town, BETAS[0]) for town in range(TOWNS)]


def poisson_offsets(rng: random.Random, rate: float, count: int) -> list[float]:
    """Arrival offsets (seconds from the start) of a Poisson process at ``rate``.

    Conditioned on ``count`` arrivals in ``count / rate`` seconds: the
    arrivals are sorted uniform draws over that span, so the schedule spans
    exactly ``count / rate`` seconds whatever the draw.
    """
    span = count / rate
    return sorted(rng.uniform(0.0, span) for _ in range(count))


def paced_offsets(rate: float, count: int) -> list[float]:
    """Evenly spaced arrival offsets at ``rate``, mid-slot (the first at ``0.5 / rate``)."""
    return [(index + 0.5) / rate for index in range(count)]


def schedule(workload: str, seed: int, seconds: float) -> list[tuple[float, dict[str, Any]]]:
    """The measured requests as ``(due offset, body)``, fixed by workload and seed.

    The arrival times are the same for every seed: one Poisson draw per
    workload, so every run sees the same burst pattern, or evenly spaced.
    The seed draws which request arrives at each time.  With a burst pattern
    per seed, median latency spread by 20% across five seeds: it measured the
    schedule more than the server.
    """
    spec = WORKLOADS[workload]
    if spec.poisson:
        count = max(MIN_REQUESTS, round(spec.rate * seconds))
        offsets = poisson_offsets(random.Random(f"{workload}:arrivals"), spec.rate, count)
    else:
        count = max(MIN_PACED_REQUESTS, round(spec.rate * seconds))
        offsets = paced_offsets(spec.rate, count)
    rng = random.Random(f"{workload}:{seed}")
    if spec.fresh:
        # Every beta equally often, in an order drawn from the seed: a
        # request's cost depends mostly on its beta (rounds), so every run
        # serves the same mix.
        betas = [BETAS[index % len(BETAS)] for index in range(count)]
        rng.shuffle(betas)
    bodies = []
    for index in range(count):
        if spec.fresh:
            # Every server starts with an empty cache, so towns past the
            # warm-up ones are fresh however many runs came before.
            bodies.append(request_body(TOWNS + index, betas[index]))
        else:
            choice = rng.randrange(TOWNS * len(BETAS))
            bodies.append(request_body(choice % TOWNS, BETAS[choice // TOWNS]))
    return list(zip(offsets, bodies))


def checked_indices(workload: str, count: int) -> list[int]:
    """Which measured requests are compared with a solo run."""
    step = FRESH_CHECK_EVERY if WORKLOADS[workload].fresh else 1
    return list(range(0, count, step))


# -- HTTP ----------------------------------------------------------------------------


def _http(port: int, method: str, path: str, body: Optional[bytes] = None,
          timeout: float = 60.0) -> tuple[int, bytes]:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


def _get_json(port: int, path: str) -> dict[str, Any]:
    status, data = _http(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(data)


def _submit(port: int, body: dict[str, Any]) -> tuple[int, Optional[str]]:
    status, data = _http(port, "POST", "/submit", json.dumps(body).encode("utf-8"))
    return status, json.loads(data).get("session_id") if status == 202 else None


def payload_sha256(payload: Any) -> str:
    """Digest of a result payload's canonical JSON form."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


# -- the server process -----------------------------------------------------------------


class ServerProcess:
    """One ``repro serve`` process on an OS-chosen port.

    With ``spans_path`` the server starts through ``serve_launcher.py``, which
    records spans around the layer calls and writes them there at exit.
    """

    def __init__(self, root: Path, state_dir: Path, spans_path: Optional[Path] = None) -> None:
        self.root = root
        self.state_dir = state_dir
        self.spans_path = spans_path
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        serve = ["serve", "--port", "0", "--state-dir", str(self.state_dir)]
        if self.spans_path is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            launcher = self.root / "perfbench" / "serve_launcher.py"
            command = [sys.executable, str(launcher), "--spans", str(self.spans_path), *serve]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (str(self.root / "src"), env.get("PYTHONPATH")) if part
        )
        self.process = subprocess.Popen(
            command, cwd=self.root, env=env, stdout=subprocess.PIPE, text=True
        )
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError(f"server did not announce its port within {timeout}s")
        line = self.process.stdout.readline().strip()
        if "listening on http://" not in line:
            raise RuntimeError(f"unexpected server banner {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> None:
        """Interrupt the server, wait for it, and kill it if it will not stop."""
        process = self.process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()
        self.process = None


def warm_up(server: ServerProcess, bodies: list[dict[str, Any]]) -> None:
    """Submit every warm-up request, then wait until all are done."""
    session_ids = []
    for body in bodies:
        status, session_id = _submit(server.port, body)
        if status != 202:
            raise RuntimeError(f"warm-up submit answered {status}")
        session_ids.append(session_id)
    for session_id in session_ids:
        record = _get_json(server.port, f"/result/{session_id}?wait=1&timeout=120")
        if record["state"] != "done":
            raise RuntimeError(f"warm-up request ended {record['state']}: {record.get('error')}")


# -- the open-loop generator ----------------------------------------------------------------


@dataclass
class RequestOutcome:
    """One scheduled request, as the client saw it and as the server recorded it."""

    due: float
    body: dict[str, Any]
    lag: float = 0.0
    submit_seconds: float = math.inf
    status: int = 0
    session_id: Optional[str] = None
    state: Optional[str] = None
    submitted_at: Optional[float] = None
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    payload_sha256: Optional[str] = None
    rounds: int = 0
    #: ``False`` once the payload was found to differ from the solo run.
    matches_solo: bool = True

    @property
    def ok(self) -> bool:
        return self.status == 202 and self.state == "done" and self.matches_solo

    @property
    def latency(self) -> float:
        return self.finished_at - self.due if self.ok else math.inf


@dataclass
class Window:
    """The measured part of a serving run."""

    outcomes: list[RequestOutcome]
    metrics_before: dict[str, Any]
    metrics_after: dict[str, Any]
    #: ``perf_counter`` at the start of the window (for filtering server spans).
    started_perf: float
    generator_lag_max: float = 0.0


def _submit_all(port: int, outcomes: list[RequestOutcome], pending: queue.Queue) -> None:
    try:
        for index, outcome in enumerate(outcomes):
            delay = outcome.due - time.time()
            if delay > 0:
                time.sleep(delay)
            outcome.lag = max(0.0, time.time() - outcome.due)
            began = time.perf_counter()
            try:
                outcome.status, outcome.session_id = _submit(port, outcome.body)
            except (OSError, http.client.HTTPException):
                outcome.status = 0
            outcome.submit_seconds = time.perf_counter() - began
            if outcome.session_id is not None:
                pending.put(index)
    finally:
        pending.put(None)


def _collect_all(port: int, outcomes: list[RequestOutcome], pending: queue.Queue,
                 deadline: float, raw: dict[int, bytes]) -> None:
    while True:
        index = pending.get()
        if index is None:
            return
        remaining = deadline - time.time()
        if remaining <= 0:
            continue
        session_id = outcomes[index].session_id
        try:
            status, data = _http(
                port, "GET", f"/result/{session_id}?wait=1&timeout={remaining:.3f}",
                timeout=remaining + 10,
            )
        except (OSError, http.client.HTTPException):
            continue
        if status == 200:
            raw[index] = data


def drive(server: ServerProcess, plan: list[tuple[float, dict[str, Any]]]) -> Window:
    """Send the schedule open-loop and collect every result."""
    before = _get_json(server.port, "/metrics")
    started_perf = time.perf_counter()
    start = time.time() + LEAD_SECONDS
    outcomes = [RequestOutcome(due=start + offset, body=body) for offset, body in plan]
    pending: queue.Queue = queue.Queue()
    raw: dict[int, bytes] = {}
    deadline = outcomes[-1].due + DRAIN_SECONDS
    submitter = threading.Thread(target=_submit_all, args=(server.port, outcomes, pending))
    collector = threading.Thread(
        target=_collect_all, args=(server.port, outcomes, pending, deadline, raw)
    )
    submitter.start()
    collector.start()
    submitter.join()
    collector.join()
    after = _get_json(server.port, "/metrics")
    # Parsed after the window, so the client spends no CPU on payloads while
    # the server is measured.
    for index, data in raw.items():
        record = json.loads(data)
        outcome = outcomes[index]
        outcome.state = record["state"]
        outcome.submitted_at = record["submitted_at"]
        outcome.started_at = record["started_at"]
        outcome.finished_at = record["finished_at"]
        if record.get("result") is not None:
            outcome.payload_sha256 = payload_sha256(record["result"])
            outcome.rounds = int(record["result"]["rounds"])
    return Window(
        outcomes=outcomes,
        metrics_before=before,
        metrics_after=after,
        started_perf=started_perf,
        generator_lag_max=max(outcome.lag for outcome in outcomes),
    )


def solo_sha256(body: dict[str, Any], population_cache: dict) -> str:
    """Payload digest of a solo ``repro.api.run`` of the same request."""
    from repro.api import run
    from repro.serve.schemas import ServeRequest, result_payload

    request = ServeRequest.from_mapping(body)
    scenario = request.scenario.build_scenario(population_cache)
    result = run(scenario, backend=request.backend, config=request.config)
    return payload_sha256(result_payload(result))


def check_payloads(workload: str, outcomes: list[RequestOutcome]) -> None:
    """Mark every checked, finished request whose payload differs from its solo run."""
    expected: dict[str, str] = {}
    population_cache: dict = {}
    for index in checked_indices(workload, len(outcomes)):
        outcome = outcomes[index]
        if outcome.state != "done":
            continue
        key = json.dumps(outcome.body, sort_keys=True)
        if key not in expected:
            expected[key] = solo_sha256(outcome.body, population_cache)
        outcome.matches_solo = outcome.payload_sha256 == expected[key]


# -- one workload run -------------------------------------------------------------------------


@dataclass
class ServeMeasurement:
    setup_seconds: list[float]
    window: Window
    peak_rss_mb: float
    #: Span rows of the measured server, restricted to the window (traced runs).
    spans: Optional[list] = None
    population_cache_entries: int = 0

    @property
    def outcomes(self) -> list[RequestOutcome]:
        return self.window.outcomes

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        """Refused submits, requests not done and payload mismatches."""
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def valid(self) -> bool:
        """Whether the generator kept to its schedule."""
        return self.window.generator_lag_max <= MAX_GENERATOR_LAG_SECONDS

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        outcomes = self.outcomes
        done = [outcome for outcome in outcomes if outcome.ok]
        span = max((outcome.finished_at for outcome in done), default=0.0) - outcomes[0].due
        return {
            "setup_s": (stats.median(self.setup_seconds), "s"),
            "latency_p50_s": (stats.percentile([o.latency for o in outcomes], 0.5), "s"),
            "households_per_s": (HOUSEHOLDS * len(done) / span if span > 0 else 0.0, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }

    def outside_metrics(self) -> dict[str, tuple[float, str]]:
        """Serve-layer figures measured from the client and ``/metrics``."""
        outcomes = self.outcomes
        waits = [
            o.started_at - o.submitted_at if o.ok else math.inf for o in outcomes
        ]
        executions = [
            o.finished_at - o.started_at if o.ok else math.inf for o in outcomes
        ]
        before, after = self.window.metrics_before, self.window.metrics_after

        def delta(key: str) -> float:
            return after[key] - before[key]

        def occupancy_sum(snapshot: dict) -> float:
            occupancy = snapshot["batch_occupancy"]
            return occupancy["mean"] * occupancy["count"]

        passes = after["batch_occupancy"]["count"] - before["batch_occupancy"]["count"]
        cycles = delta("lockstep_cycles")
        figures = {
            "serve.submit_p50_s": (stats.percentile([o.submit_seconds for o in outcomes], 0.5), "s"),
            "serve.wait_p50_s": (stats.percentile(waits, 0.5), "s"),
            "serve.buffer_wait_p50_s": (after["queue_wait_seconds"]["p50"], "s"),
            "serve.exec_p50_s": (stats.percentile(executions, 0.5), "s"),
            "serve.batch_occupancy": (
                (occupancy_sum(after) - occupancy_sum(before)) / passes if passes else 0.0,
                "requests",
            ),
            "serve.kernel_passes": (delta("kernel_passes"), "count"),
            "serve.solo_passes": (delta("solo_passes"), "count"),
            "serve.lockstep_cycles": (cycles, "count"),
            "serve.fused_ratio": (delta("fused_kernel_cycles") / cycles if cycles else 0.0, "ratio"),
            "serve.generator_lag_max_s": (self.window.generator_lag_max, "s"),
            "core.rounds": (sum(o.rounds for o in outcomes if o.ok), "count"),
        }
        if len(outcomes) >= MIN_REQUESTS:
            figures["serve.wait_p90_s"] = (stats.percentile(waits, 0.9), "s")
            figures["serve.latency_p90_s"] = (
                stats.percentile([o.latency for o in outcomes], 0.9), "s"
            )
        return figures


def measure(workload: str, seed: int, seconds: float, root: Path, traced: bool) -> ServeMeasurement:
    """Run one serving workload end to end and check its payloads."""
    warm = warmup_bodies()
    plan = schedule(workload, seed, seconds)
    # Each spawn gets a fresh state directory, so no server starts by loading
    # an earlier run's sessions.  The directories are left behind: the session
    # files are fsynced, and on hosts that discard on delete, unlinking them
    # costs ~40 ms each, longer than serving them.
    state_root = root / STATE_DIR / f"{workload}-{os.getpid()}-{time.time_ns()}"
    setup_seconds: list[float] = []
    spans_path = state_root / "spans.json"
    for repeat in range(SETUP_REPEATS):
        last = repeat == SETUP_REPEATS - 1
        server = ServerProcess(
            root, state_root / f"state-{repeat}", spans_path if traced else None
        )
        try:
            began = time.perf_counter()
            server.start()
            warm_up(server, warm)
            setup_seconds.append(time.perf_counter() - began)
            if last:
                window = drive(server, plan)
                peak_rss_mb = stats.process_peak_rss_mb(server.pid)
        finally:
            server.stop()
    measurement = ServeMeasurement(setup_seconds, window, peak_rss_mb)
    if traced:
        from perfbench.tracing import rows_since

        traced_output = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
        measurement.spans = rows_since(traced_output["spans"], window.started_perf)
        measurement.population_cache_entries = traced_output["population_cache_entries"]
    check_payloads(workload, measurement.outcomes)
    return measurement
