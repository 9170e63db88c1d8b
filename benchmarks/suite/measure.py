"""The timed window and the end-to-end metrics computed from it.

Noise discipline, declared once and the same on every commit:

* one fresh process per workload run, and all load comes from that process;
* requests and mutation schedules are fully generated before the window;
* `gc.collect()` then `gc.freeze()` after set-up, so the collector never walks
  the catalog during the window;
* no more client threads than processors;
* throughput is the median over `SEGMENTS` equal parts of the window, so a
  burst from a noisy neighbour spoils one part, not the figure; the
  quartile distance between the parts is printed beside it as its spread;
* every time is divided by the machine's slowdown at that moment. The box this
  was written on alternates between two speeds 14% apart, in phases of 15 to
  50 s: no window the run-time budget allows averages that out, and medians of
  whole runs came out bimodal. So twice a second all clients stop between
  operations and client 0 runs `calibrate`, a fixed 1.7 ms of interpreter
  work (booked as a pause), and a time measured in a one-second slice of the
  window is multiplied by `NOMINAL_CALIBRATION_S` over the slice's median
  calibration. Times are thus reported as on a machine that runs the loop in
  exactly the nominal time; the loop is the harness's own, so a change to the
  system cannot move it.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import sys
import threading
import time
import traceback

from tracing import Tracer

SEGMENTS = 5
#: Thread processor seconds `calibrate` takes on the nominal machine (the
#: faster of the two speeds of the box this was written on).
NOMINAL_CALIBRATION_S = 0.0017
CALIBRATE_EVERY_S = 0.5
SLICE_S = 1.0
#: A window never ends before each client made this many operations.
MIN_OPS = 8


def calibrate() -> float:
    """Thread processor seconds that a fixed piece of interpreter work takes now.

    Processor time of this thread, not wall time: waiting for the interpreter
    lock or for the processor does not count, slower execution does. Small
    integers only: the loop touches no memory to speak of, so what the system
    under test leaves in the caches moves it by 1 to 2%, where a loop over a
    dict moved by 17%. It follows the machine's two speeds to within 3%.
    """
    start = time.thread_time()
    x = 1
    for i in range(40000):
        x = (x * 31 + i) & 0xFFFFF
    return time.thread_time() - start


def speed() -> float:
    """What to multiply a time measured just now by, to state it at nominal speed."""
    calibrate()  # the first after real work reads 5 to 10% slow
    return NOMINAL_CALIBRATION_S / statistics.median(calibrate() for _ in range(3))


def median_seconds(call, repeats: int) -> float:
    """Median raw wall seconds of *call* over *repeats* calls."""
    clock = time.perf_counter
    samples = []
    for _ in range(repeats):
        start = clock()
        call()
        samples.append(clock() - start)
    return statistics.median(samples)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; the sample count is printed beside it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1))]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


class Recording:
    """What one closed-loop client saw during one window.

    An *operation* is the workload's unit of work and feeds throughput and the
    operation latencies. A *sample* is one query (or mutation) of a named
    class and feeds the per-class medians; in every workload but
    `warm_prepared`, whose operation is a sweep of seven queries, each
    operation is one sample. A *pause* is harness work between operations,
    such as clearing caches or checking an answer: it is taken out of the
    window's wall and processor time, so the figures describe the system.
    """

    def __init__(self, client: int, clients: int, traced: bool):
        self.client, self.clients = client, clients
        self.op_end: list[float] = []
        self.op_lat: list[float] = []
        self.cls: list[str] = []
        self.end: list[float] = []
        self.lat: list[float] = []
        #: (moment, `calibrate()`) pairs; client 0 takes them.
        self.calibrations: list[tuple[float, float]] = []
        self.attempted = 0
        self.failed = 0
        self.pauses: list[tuple[float, float]] = []
        self.pause_cpu = 0.0
        #: `ru_maxrss` (KiB) when this client reached the workload's `rss_ops`.
        self.rss_kib = 0
        self.tracer = Tracer() if traced else None

    def sample(self, cls: str, start: float, end: float) -> int:
        """Record one sample; with tracing on, returns its root span."""
        self.cls.append(cls)
        self.end.append(end)
        self.lat.append(end - start)
        if self.tracer is None:
            return -1
        op_id = (len(self.cls) - 1) * self.clients + self.client
        return self.tracer.root(start, end, op_id)

    def op(self, start: float, end: float, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        self.op_end.append(end)
        self.op_lat.append(end - start)

    def error(self, start: float) -> None:
        """The operation raised: it counts as attempted and failed."""
        if self.failed < 3:
            traceback.print_exc(file=sys.stderr)
        self.op(start, time.perf_counter(), ok=False)

    def pause(self, start: float, cpu_start: float) -> None:
        """Book harness work that began at *start*, with `time.thread_time()` then."""
        self.pauses.append((start, time.perf_counter() - start))
        self.pause_cpu += time.thread_time() - cpu_start


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Window:
    """The recordings of every client over one timed window."""

    def __init__(self, workload, seconds: float, traced: bool = False, min_ops: int = MIN_OPS):
        clients = workload.clients
        self.recordings = [Recording(i, clients, traced) for i in range(clients)]
        gc.collect()
        gc.freeze()
        cpu = _cpu_seconds()
        self.start = time.perf_counter()
        deadline = self.start + seconds
        barrier = threading.Barrier(clients)
        threads = [
            threading.Thread(target=self._client, args=(workload, rec, deadline, min_ops, barrier))
            for rec in self.recordings[1:]
        ]
        for thread in threads:
            thread.start()
        self._client(workload, self.recordings[0], deadline, min_ops, barrier)
        for thread in threads:
            thread.join()
        self.end = time.perf_counter()
        if not self.recordings[0].calibrations:  # shorter than the first stop
            self.recordings[0].calibrations.append((self.end, calibrate()))
        self.cpu = _cpu_seconds() - cpu - sum(r.pause_cpu for r in self.recordings)
        #: Per one-second slice: what a time measured in it is multiplied by.
        self.factors = [1.0] * max(1, math.ceil((self.end - self.start) / SLICE_S))
        self._set_factors()
        self.attempted = sum(r.attempted for r in self.recordings)
        self.failed = sum(r.failed for r in self.recordings)

    def _client(self, workload, rec: Recording, deadline: float, min_ops: int, barrier) -> None:
        step, clock = workload.step, time.perf_counter
        # Not at once: right after the collector's walk over the whole heap
        # the loop reads slow for reasons that are not the machine's speed.
        next_stop = self.start + CALIBRATE_EVERY_S / 2
        while clock() < deadline or rec.attempted < min_ops:
            if clock() >= next_stop:
                # Every client stops between two operations, so the system is
                # idle while client 0 calibrates: what it reads is the machine,
                # not the slowdown the system's own threads cause each other.
                paused, paused_cpu = clock(), time.thread_time()
                try:
                    barrier.wait()
                    if rec.client == 0:
                        calibrate()  # the first after real work reads 5 to 10% slow
                        rec.calibrations += [(paused, calibrate()) for _ in range(2)]
                    barrier.wait()
                    next_stop += CALIBRATE_EVERY_S
                except threading.BrokenBarrierError:
                    next_stop = math.inf  # another client is done: the window is ending
                rec.pause(paused, paused_cpu)
            step(rec)
            if rec.attempted == workload.rss_ops:
                rec.rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        barrier.abort()

    def _slice(self, moment: float) -> int:
        return min(len(self.factors) - 1, max(0, int((moment - self.start) / SLICE_S)))

    def factor_at(self, moment: float) -> float:
        """What a time measured around *moment* is multiplied by."""
        return self.factors[self._slice(moment)]

    def _set_factors(self) -> None:
        slices = [[] for _ in self.factors]
        samples = self.recordings[0].calibrations
        for moment, seconds in samples:
            slices[self._slice(moment)].append(seconds)
        overall = statistics.median(seconds for _moment, seconds in samples)
        self.factors = [
            NOMINAL_CALIBRATION_S / (statistics.median(found) if found else overall)
            for found in slices
        ]

    def by_class(self) -> dict[str, list[float]]:
        """Class -> latencies of its samples, at nominal speed."""
        out: dict[str, list[float]] = {}
        for rec in self.recordings:
            for cls, end, lat in zip(rec.cls, rec.end, rec.lat):
                out.setdefault(cls, []).append(lat * self.factor_at(end))
        return out

    def _busy(self) -> tuple[list[float], list[float]]:
        """Per slice: operations done, and seconds at nominal speed without pauses.

        An operation that spans two slices counts in each by the share of its
        time there: with whole operations, a 70 ms sweep ending just before or
        just after a boundary moved a part's rate by 2%.
        """
        ops = [0.0] * len(self.factors)
        paused = [0.0] * len(self.factors)
        for rec in self.recordings:
            for end, lat in zip(rec.op_end, rec.op_lat):
                first, last = self._slice(end - lat), self._slice(end)
                cut = self.start + last * SLICE_S
                before = (cut - (end - lat)) / lat if first < last else 0.0
                ops[last - 1] += before
                ops[last] += 1.0 - before
            for start, wall in rec.pauses:
                paused[self._slice(start)] += wall / len(self.recordings)
        busy = [
            (min(SLICE_S, self.end - self.start - i * SLICE_S) - paused[i]) * factor
            for i, factor in enumerate(self.factors)
        ]
        return ops, busy

    def segment_rates(self) -> list[float]:
        """Operations per second at nominal speed in each of `SEGMENTS` parts."""
        ops, busy = self._busy()
        cuts = [round(k * len(ops) / SEGMENTS) for k in range(SEGMENTS + 1)]
        return [sum(ops[a:b]) / sum(busy[a:b]) for a, b in zip(cuts, cuts[1:]) if b > a]

    def end_to_end(self) -> tuple[dict, dict]:
        """(metric name -> value, metric name -> note printed beside it)."""
        op_ms = [
            lat * 1e3 * self.factor_at(end)
            for rec in self.recordings
            for end, lat in zip(rec.op_end, rec.op_lat)
        ]
        _ops, busy = self._busy()
        mean_factor = sum(busy) / sum(b / f for b, f in zip(busy, self.factors))
        class_p50 = {cls: statistics.median(lats) * 1e3 for cls, lats in self.by_class().items()}
        rates = self.segment_rates()
        rss_kib, rss_note = max(rec.rss_kib for rec in self.recordings), "after rss_ops operations"
        if not rss_kib:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rss_note = "at the end: the window was too short to reach rss_ops"
        p95 = percentile(op_ms, 95)
        beyond = sum(1 for v in op_ms if v > p95)
        values = {
            "ops_per_s": statistics.median(rates),
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_p95": p95,
            "query_ms_geomean": geomean(class_p50.values()),
            "cpu_ms_per_op": self.cpu * mean_factor * 1e3 / len(op_ms),
            "peak_rss_mb": rss_kib / 1024,
        }
        notes = {
            "ops_per_s": f"median of {SEGMENTS} segments, IQR {iqr(rates):.4g}",
            "op_ms_p95": f"{len(op_ms)} samples, {beyond} beyond",
            "query_ms_geomean": f"{len(class_p50)} classes",
            "cpu_ms_per_op": f"machine at {1 / mean_factor:.3f} of nominal time per instruction",
            "peak_rss_mb": rss_note,
        }
        return values, notes
