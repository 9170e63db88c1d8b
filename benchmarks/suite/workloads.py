"""The four workloads: what each sets up, what one operation is, what is checked.

Each workload exists to load one part of the system and leave the rest idle,
so that a change to one layer has a workload that shows it and another that
must not move (see README.md for the table):

* `warm_prepared`     the engine's kernels and the value model, at the 64x tier;
* `adhoc_cold`        parse to compile, on catalogs too small for execution to count;
* `serve_mixed`       the query service around cheap queries, two clients;
* `mutate_and_query`  tables and caches with writes beside the reads.

The seed decides the data, the order of requests and the keys; it never
decides how much work a run holds, so runs with different seeds compare.
"""

from __future__ import annotations

import itertools
import random
import statistics
import sys
import time
from pathlib import Path

import adapters as sut
import reference
from measure import Window, median_seconds, speed

CORPUS = Path(__file__).with_name("corpus") / "adhoc.txt"

#: Rows of the 1x mixed catalog; tier *m* multiplies every entry by *m*.
BASE = {"r": 200, "s": 1200, "chain": 40, "dept": 8, "emp": 80}


def tier(mult: int) -> dict[str, int]:
    return {name: rows * mult for name, rows in BASE.items()}


def mixed_catalog(seed: int, r: int, s: int, chain: int, dept: int, emp: int):
    """R/S (COUNT bug), X/Y/Z (Section 8) and EMP/DEPT (Q1, Q2) in one catalog."""
    join = sut.load("make_join_workload")(n_left=r, n_right=s, fanout=3, seed=seed).catalog
    chained = sut.load("make_chain_workload")(
        n_x=chain, n_y=chain, n_z=chain, set_size=1, seed=seed + 1
    )
    company = sut.load("make_company")(n_departments=dept, n_employees=emp, seed=seed + 2)
    catalog = sut.load("Catalog")()
    for source in (join, chained, company):
        for name in source:
            catalog.add(source[name])
    return catalog


def fuzz_catalog(rows: int = 16, domain: int = 4):
    """X(a: set int, b, c, v: variant), Y(a, b), W(a, b): the corpus's schema.

    The same rows on every seed, like the corpus itself: `adhoc_cold` is about
    the front end, and other contents of three 16-row tables moved the cost of
    the execution third of an operation by several per cent.
    """
    tup, variant = sut.load("Tup"), sut.load("Variant")
    rng = random.Random(1994)

    def flat():
        return [tup(a=rng.randrange(domain), b=rng.randrange(domain)) for _ in range(rows)]

    catalog = sut.load("Catalog")()
    catalog.add_rows(
        "X",
        [
            tup(
                a=frozenset(rng.randrange(domain) for _ in range(rng.randrange(3))),
                b=rng.randrange(domain),
                c=rng.randrange(domain),
                v=variant(rng.choice(["ok", "err"]), rng.randrange(domain)),
            )
            for _ in range(rows)
        ],
    )
    catalog.add_rows("Y", flat())
    catalog.add_rows("W", flat())
    return catalog


def wrong_answers(catalog, values: dict, seed: int, where: str) -> int:
    """How many of *values* (paper query name -> answer) differ from `reference`."""
    convert = sut.plainer()
    names = {table for query in values for table in reference.PAPER[query][1]}
    tables = {name: [convert(row) for row in catalog[name]] for name in names}
    wrong = 0
    for query, value in values.items():
        expected = reference.PAPER[query][0](tables)
        if convert(value) != expected:
            wrong += 1
            print(
                f"WRONG ANSWER {where}: query={query} seed={seed} "
                f"rows={len(value)} reference_rows={len(expected)}",
                file=sys.stderr,
            )
    return wrong


def prove_reference(seed: int) -> int:
    """reference.py against the interpreter, which defines the semantics, at 1x."""
    catalog = mixed_catalog(seed, **tier(1))
    run_query = sut.load("run_query")
    values = {
        name: run_query(text, catalog, engine="interpret").value
        for name, text in sut.paper_queries().items()
    }
    return wrong_answers(catalog, values, seed, "interpreter at 1x")


class Workload:
    """Set-up, one operation, and the checks after the window."""

    name = ""
    clients = 1
    #: `peak_rss_mb` is read when each client has made this many operations,
    #: some two fifths of a 20 s window today: memory after a fixed amount of
    #: work, so that a faster system is not charged for serving more.
    rss_ops = 0

    def __init__(self, seed: int):
        self.seed = seed
        #: Wrong answers found outside the windows (set-up and last iteration).
        self.wrong = 0
        self.catalog_build_s = 0.0

    def build(self, **sizes):
        """Empty the system's caches, then build the mixed catalog and time it."""
        sut.clear_caches()
        start = time.perf_counter()
        catalog = mixed_catalog(self.seed, **sizes)
        self.catalog_build_s = (time.perf_counter() - start) * speed()
        return catalog

    def setup(self) -> None:
        raise NotImplementedError

    def step(self, rec) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks on the last timed iteration, after the windows."""

    def close(self) -> None:
        """Stops what set-up started."""


class WarmPrepared(Workload):
    """One client sweeping the seven paper queries over warm plans and builds."""

    name = "warm_prepared"
    rss_ops = 100

    def setup(self) -> None:
        self.wrong += prove_reference(self.seed)
        self.catalog = self.build(**tier(64))
        self.prepared = sut.load("prepared")
        self.queries = list(sut.paper_queries().items())
        # This first sweep compiles every plan and fills the build cache.
        self.last = {name: self.prepared(text, self.catalog).execute(self.catalog)
                     for name, text in self.queries}
        self.wrong += wrong_answers(self.catalog, self.last, self.seed, "set-up at 64x")

    def step(self, rec) -> None:
        prepared, catalog, clock = self.prepared, self.catalog, time.perf_counter
        values, stamps = {}, [clock()]
        try:
            for name, text in self.queries:
                plan = prepared(text, catalog)
                stamps.append(clock())
                values[name] = plan.execute(catalog)
                stamps.append(clock())
        except Exception:
            rec.error(stamps[0])
            return
        self.last = values
        rec.op(stamps[0], stamps[-1], ok=True)
        for i, (name, _text) in enumerate(self.queries):
            start, middle, end = stamps[2 * i : 2 * i + 3]
            root = rec.sample(name, start, end)
            if rec.tracer is not None:
                rec.tracer.child("core.prepared", start, middle, root)
                rec.tracer.child("engine.execute", middle, end, root)

    def finish(self) -> None:
        self.wrong += wrong_answers(self.catalog, self.last, self.seed, "last iteration at 64x")


class AdhocCold(Workload):
    """One client sending never-seen texts: every operation parses and plans."""

    name = "adhoc_cold"
    rss_ops = 8000

    def setup(self) -> None:
        self.wrong += prove_reference(self.seed)
        # Tables this small keep execution near a third of an operation; at
        # 64-row tables it is already four fifths, and the front end drowns.
        paper_catalog = self.build(r=50, s=300, chain=10, dept=4, emp=40)
        fuzz = fuzz_catalog()
        run_query = self.run_query = sut.load("run_query")
        paper = sut.paper_queries()
        corpus = [line for line in CORPUS.read_text().splitlines() if not line.startswith("#")]
        items = [(name, text, paper_catalog) for name, text in paper.items()]
        items += [(f"adhoc{i:03d}", text, fuzz) for i, text in enumerate(corpus)]
        # Every text is checked once against the interpreter; the windows
        # then compare with that answer.
        self.items = [
            (name, text, catalog, run_query(text, catalog, engine="interpret").value)
            for name, text, catalog in items
        ]
        random.Random(self.seed).shuffle(self.items)
        self.next_item = itertools.cycle(self.items).__next__
        answers = {name: run_query(paper[name], paper_catalog).value for name in paper}
        self.wrong += wrong_answers(paper_catalog, answers, self.seed, "set-up at 1/4x")

    def step(self, rec) -> None:
        clock = time.perf_counter
        name, text, catalog, expected = self.next_item()
        paused, paused_cpu = clock(), time.thread_time()
        sut.clear_caches()
        rec.pause(paused, paused_cpu)
        start = clock()
        try:
            if rec.tracer is None:
                value = self.run_query(text, catalog).value
                end = clock()
            else:
                value, stamps = sut.staged_query(text, catalog)
                start, end = stamps[0], stamps[-1]
        except Exception:
            rec.error(start)
            return
        # Comparing takes a few microseconds on answers this small, so unlike
        # clearing the caches it is not booked as a pause.
        rec.op(start, end, ok=value == expected)
        root = rec.sample(name, start, end)
        if rec.tracer is not None:
            for stage, begin, finish in zip(sut.STAGES, stamps, stamps[1:]):
                rec.tracer.child(stage, begin, finish, root)


class ServeMixed(Workload):
    """Two clients blocking on a two-worker `QueryService`, mostly point lookups."""

    name = "serve_mixed"
    clients = 2
    rss_ops = 10_000
    LOOKUP = "SELECT r FROM R r WHERE r.a = $key"
    REQUESTS_PER_CLIENT = 20_000

    def setup(self) -> None:
        self.wrong += prove_reference(self.seed)
        sizes = tier(4)
        self.catalog = self.build(**sizes)
        rng = random.Random(self.seed)
        # Zipf(s=1.0) over 880 keys, a tenth of which match no row: more
        # distinct texts than the 256-entry result cache and the 128-entry
        # plan cache hold, so both caches evict throughout the window.
        keys = list(range(int(sizes["r"] * 1.1)))
        rng.shuffle(keys)
        weights = [1.0 / rank for rank in range(1, len(keys) + 1)]
        paper = sut.paper_queries()
        names = list(paper)
        self.requests = []
        for _client in range(self.clients):
            stream = []
            for key in rng.choices(keys, weights, k=self.REQUESTS_PER_CLIENT):
                if rng.random() < 0.7:
                    stream.append(("lookup", self.LOOKUP, {"key": key}, ("lookup", key)))
                else:
                    name = rng.choice(names)
                    stream.append((name, paper[name], None, name))
            self.requests.append(itertools.cycle(stream).__next__)
        # Expected answers: the paper queries from a direct run that the
        # reference confirms, the lookups from the rows themselves.
        prepared = sut.load("prepared")
        self.expected = {name: prepared(paper[name], self.catalog).execute(self.catalog)
                         for name in names}
        self.wrong += wrong_answers(self.catalog, self.expected, self.seed, "set-up at 4x")
        #: Seconds one warm direct execution of each class takes, without the
        #: service: what the traced pass books as plan execution per miss.
        self.direct_s = {name: self._direct_s(paper[name]) for name in names}
        self.direct_s["lookup"] = statistics.median(
            self._direct_s(self.LOOKUP.replace("$key", str(key))) for key in keys[:16]
        )
        by_key = {row["a"]: row for row in self.catalog["R"]}
        for key in keys:
            self.expected["lookup", key] = frozenset([by_key[key]] if key in by_key else [])
        sut.clear_caches()
        self.request_type = sut.load("QueryRequest")
        self.service = sut.load("QueryService")(self.catalog, workers=2)
        self.service.start()
        for name in names:  # compile each paper plan once, as a live service has
            self.service.execute(self.request_type(paper[name]))
        convert = sut.plainer()
        tables = {"R": [convert(row) for row in self.catalog["R"]]}
        for key in rng.sample(keys, 32):
            served = self.service.execute(self.request_type(self.LOOKUP, params={"key": key}))
            if served.value is None or convert(served.value) != reference.lookup(tables, key):
                self.wrong += 1
                print(f"WRONG ANSWER set-up at 4x: lookup key={key} seed={self.seed}", file=sys.stderr)
        # Two clients and two workers share one interpreter lock and take a
        # second or two to settle into their steady interleaving; the first
        # requests also fill the result and plan caches.
        Window(self, 0.0, min_ops=3000)

    def _direct_s(self, text: str) -> float:
        plan = sut.load("prepared")(text, self.catalog)
        plan.execute(self.catalog)
        return median_seconds(lambda: plan.execute(self.catalog), 3)

    def step(self, rec) -> None:
        clock = time.perf_counter
        cls, text, params, answer = self.requests[rec.client]()
        start = clock()
        try:
            response = self.service.execute(self.request_type(text, params=params))
        except Exception:
            rec.error(start)
            return
        end = clock()
        # Every response is checked. A result-cache hit hands back the very
        # object checked before, so most checks are one identity test.
        expected = self.expected[answer]
        ok = response.outcome == "ok" and (response.value is expected or response.value == expected)
        if ok and cls != "lookup":
            self.expected[answer] = response.value
        rec.op(start, end, ok)
        root = rec.sample(cls, start, end)
        if rec.tracer is not None:
            # The service reports how long the request queued and how long a
            # worker held it; placed back to back at the end of the call, what
            # is left at the front is the hand-off between the threads.
            handled = end - response.execute_seconds
            rec.tracer.child("server.queue", handled - response.queue_seconds, handled, root)
            rec.tracer.child(f"server.handle.{response.result_cache}", handled, end, root)
            if response.attempts > 1:
                rec.tracer.child("server.retry", end, end, root)

    def close(self) -> None:
        self.service.stop()


class MutateAndQuery(Workload):
    """One client; nine queries to one mutation, tables kept at a steady size."""

    name = "mutate_and_query"
    rss_ops = 2000
    CHECK_EVERY = 50
    BATCH = 8

    def setup(self) -> None:
        self.wrong += prove_reference(self.seed)
        self.catalog = self.build(**tier(16))
        self.prepared = sut.load("prepared")
        paper = sut.paper_queries()
        rng = random.Random(self.seed)
        batches = self._batches(rng)
        # One unit of the schedule: 56 mutations (each table gets 7 inserts,
        # each followed four mutations later by the delete of the very row
        # objects it added), and after each mutation nine queries taken round
        # robin from the seven. The seed picks the rows, not the order: every
        # run holds the same sequence of cold and warm queries.
        mutations = []
        for round_ in range(7):
            fresh = [(table, rows[round_]) for table, rows in batches.items()]
            mutations += [("insert", table, rows) for table, rows in fresh]
            mutations += [("delete", table, frozenset(map(id, rows))) for table, rows in fresh]
        queries = itertools.cycle([("query", name, text) for name, text in paper.items()])
        schedule = []
        for mutation in mutations:
            schedule.append(mutation)
            schedule += itertools.islice(queries, 9)
        self.next_op = itertools.cycle(schedule).__next__
        self.count = 0
        self.check_due = False
        #: Tables mutated since each query last ran.
        self.dirty = {name: set() for name in paper}
        self.reads = {name: set(reference.PAPER[name][1]) for name in paper}
        answers = {name: self.prepared(text, self.catalog).execute(self.catalog)
                   for name, text in paper.items()}
        self.wrong += wrong_answers(self.catalog, answers, self.seed, "set-up at 16x")

    def _batches(self, rng) -> dict[str, list[list]]:
        """Seven batches of fresh rows per mutated table; S and Z rows join."""
        tup = sut.load("Tup")
        sizes = tier(16)
        emp = list(self.catalog["EMP"])

        def rows(make):
            return [[make(b * self.BATCH + i) for i in range(self.BATCH)] for b in range(7)]

        return {
            "S": rows(lambda i: tup(c=rng.randrange(sizes["r"] // 2), d=-10_000_000 - i)),
            "Z": rows(lambda i: tup(c=rng.randrange(8), d=rng.randrange(sizes["chain"]))),
            "Y": rows(
                lambda i: tup(
                    a=rng.randrange(8),
                    b=rng.randrange(sizes["chain"]),
                    c=frozenset([rng.randrange(8)]),
                    d=rng.randrange(sizes["chain"]),
                )
            ),
            "EMP": rows(lambda i: rng.choice(emp).replace(name=f"Fresh Hire #{i}")),
        }

    def step(self, rec) -> None:
        clock = time.perf_counter
        kind, target, payload = self.next_op()
        self.count += 1
        self.check_due |= self.count % self.CHECK_EVERY == 0
        start = clock()
        try:
            if kind == "query":
                plan = self.prepared(payload, self.catalog)
                middle = clock()
                value = plan.execute(self.catalog)
            elif kind == "insert":
                self.catalog[target].insert(payload)
            else:
                self.catalog[target].delete(lambda row: id(row) in payload)
        except Exception:
            rec.error(start)
            return
        end = clock()
        if kind != "query":
            for dirty in self.dirty.values():
                dirty.add(target)
            rec.op(start, end, ok=True)
            root = rec.sample(kind, start, end)
            if rec.tracer is not None:
                rec.tracer.child(f"engine.table.{kind}", start, end, root)
            return
        ok = True
        if self.check_due:
            # Every 50th operation, or the first query after it, is checked
            # against the reference on the rows as they are now.
            self.check_due = False
            paused, paused_cpu = clock(), time.thread_time()
            ok = not wrong_answers(
                self.catalog, {target: value}, self.seed, f"operation {self.count} at 16x"
            )
            rec.pause(paused, paused_cpu)
        rec.op(start, end, ok)
        root = rec.sample(target, start, end)
        if rec.tracer is not None:
            dirty = self.dirty[target]
            state = "steady" if not dirty else "touched" if dirty & self.reads[target] else "untouched"
            rec.tracer.child("core.prepared", start, middle, root)
            rec.tracer.child(f"engine.execute.{state}", middle, end, root)
        self.dirty[target].clear()

    def finish(self) -> None:
        # The last answer of each query may predate later mutations: run the
        # seven once more on the rows as they now are.
        answers = {name: self.prepared(text, self.catalog).execute(self.catalog)
                   for name, text in sut.paper_queries().items()}
        self.wrong += wrong_answers(self.catalog, answers, self.seed, "after the window at 16x")


WORKLOADS = {w.name: w for w in (WarmPrepared, AdhocCold, ServeMixed, MutateAndQuery)}
