"""Cooperative cancellation: tokens, scopes, and executor checkpoints."""

import dataclasses
import time

import pytest

from repro.core.pipeline import prepared, run_query
from repro.engine.batch import DEFAULT_BATCH_SIZE, batches_from_rows
from repro.engine.cancel import CancelToken, cancel_scope, checkpoint, current_token
from repro.engine.executor import execute
from repro.engine.physical import PhysicalOp, PJoin, PNest, compile_plan
from repro.errors import CancelledError
from repro.model.values import Tup
from repro.workloads import COUNT_BUG_NESTED, make_join_workload


class TestToken:
    def test_fresh_token_passes(self):
        CancelToken().check()  # no deadline, not cancelled: no raise

    def test_explicit_cancel(self):
        token = CancelToken()
        token.cancel("shutting down")
        assert token.cancelled
        with pytest.raises(CancelledError, match="shutting down"):
            token.check()

    def test_past_deadline_raises(self):
        token = CancelToken(deadline=time.monotonic() - 1)
        assert token.expired()
        assert token.remaining() == 0.0
        with pytest.raises(CancelledError, match="deadline"):
            token.check()

    def test_after_constructor(self):
        assert CancelToken.after(None).deadline is None
        token = CancelToken.after(60)
        assert token.remaining() > 0
        token.check()


class TestScope:
    def test_scope_installs_and_restores(self):
        assert current_token() is None
        outer, inner = CancelToken(), CancelToken()
        with cancel_scope(outer):
            assert current_token() is outer
            with cancel_scope(inner):
                assert current_token() is inner
            assert current_token() is outer
        assert current_token() is None

    def test_checkpoint_without_scope_is_a_noop(self):
        checkpoint()

    def test_checkpoint_raises_inside_scope(self):
        token = CancelToken()
        token.cancel()
        with cancel_scope(token):
            with pytest.raises(CancelledError):
                checkpoint()


class TestExecutionCancellation:
    @pytest.fixture
    def catalog(self):
        return make_join_workload(n_left=50, n_right=200, seed=4).catalog

    def test_expired_deadline_stops_physical_execution(self, catalog):
        pq = prepared(COUNT_BUG_NESTED, catalog)
        with cancel_scope(CancelToken(deadline=time.monotonic() - 1)):
            with pytest.raises(CancelledError):
                pq.execute(catalog)

    def test_cancel_flag_stops_run_query(self, catalog):
        token = CancelToken()
        token.cancel()
        with cancel_scope(token):
            with pytest.raises(CancelledError):
                run_query(COUNT_BUG_NESTED, catalog)

    def test_execution_unaffected_without_scope(self, catalog):
        value = prepared(COUNT_BUG_NESTED, catalog).execute(catalog)
        assert value == run_query(COUNT_BUG_NESTED, catalog, engine="interpret").value


class _NoPollRows(PhysicalOp):
    """A stub child that yields pre-built rows and never polls the token."""

    def __init__(self, rows):
        self.rows = list(rows)
        self.est_rows = float(len(self.rows))

    def run_batches(self, tables, batch_size=DEFAULT_BATCH_SIZE):
        return batches_from_rows(self.rows, batch_size)

    def describe(self):
        return "NoPollRows"


def _find_join(op, mode):
    if isinstance(op, PJoin) and op.mode == mode:
        return op
    for child in op.children():
        found = _find_join(child, mode)
        if found is not None:
            return found
    return None


class TestBatchBoundaryPolls:
    """Probe/grouping loops must poll even when no child ever does.

    Index and cached-group-table probes bypass the right child's scan —
    the usual checkpoint — and a left operand need not be a scan either.
    Feeding a non-polling stub as the left/child input proves the loops
    themselves notice cancellation at batch boundaries.
    """

    SEMI_QUERY = "SELECT r.a FROM R r WHERE r.c IN (SELECT s.c FROM S s WHERE s.d = r.b)"

    @pytest.fixture
    def catalog(self):
        return make_join_workload(n_left=50, n_right=200, seed=4).catalog

    def _stub_left(self, text, mode, catalog):
        join = _find_join(prepared(text, catalog).compile_for(catalog), mode)
        assert join is not None and join.algorithm == "index_nested_loop"
        left_rows = execute(join.left, catalog)  # no scope: scan completes
        return dataclasses.replace(join, left=_NoPollRows(left_rows))

    def test_nest_join_group_probe_polls(self, catalog):
        stubbed = self._stub_left(COUNT_BUG_NESTED, "nest", catalog)
        assert stubbed.group_source is not None  # cached-group probe path
        token = CancelToken()
        token.cancel()
        with cancel_scope(token):
            with pytest.raises(CancelledError):
                list(stubbed.run_batches(catalog))

    def test_semi_join_index_probe_polls(self, catalog):
        stubbed = self._stub_left(self.SEMI_QUERY, "semi", catalog)
        token = CancelToken()
        token.cancel()
        with cancel_scope(token):
            with pytest.raises(CancelledError):
                list(stubbed.run_batches(catalog))

    def test_stubbed_joins_still_correct_without_scope(self, catalog):
        for text, mode in ((COUNT_BUG_NESTED, "nest"), (self.SEMI_QUERY, "semi")):
            join = _find_join(prepared(text, catalog).compile_for(catalog), mode)
            stubbed = dataclasses.replace(
                join, left=_NoPollRows(execute(join.left, catalog))
            )
            assert execute(stubbed, catalog) == execute(join, catalog)

    def test_pnest_grouping_polls(self):
        rows = [Tup(a=i % 3, b=i) for i in range(10)]
        op = PNest(
            child=_NoPollRows(rows), by=("a",), nest="b", label="zs", null_to_empty=False
        )
        assert len(execute(op, {})) == 3  # sanity: groups fine un-cancelled
        token = CancelToken()
        token.cancel()
        with cancel_scope(token):
            with pytest.raises(CancelledError):
                list(op.run_batches({}))

    @pytest.mark.parametrize("algorithm", ["nested_loop", "sort_merge"])
    def test_tuple_kernels_poll(self, catalog, algorithm):
        plan = prepared(COUNT_BUG_NESTED, catalog).plan
        join = _find_join(compile_plan(plan, catalog, force_algorithm=algorithm), "nest")
        assert join.algorithm == algorithm
        stubbed = dataclasses.replace(
            join,
            left=_NoPollRows(execute(join.left, catalog)),
            right=_NoPollRows(execute(join.right, catalog)),
        )
        assert execute(stubbed, catalog) == execute(join, catalog)
        token = CancelToken()
        token.cancel()
        with cancel_scope(token):
            with pytest.raises(CancelledError):
                list(stubbed.run_batches(catalog))


def test_deadline_bounds_a_nested_loop_join():
    """A join whose work per left row is |right| predicate evaluations must
    poll by work done: the child scans poll once per 1 024 left rows, which
    here is four seconds of work."""
    catalog = make_join_workload(n_left=1000, n_right=2000).catalog
    pq = prepared(
        "SELECT (a = r.a, n = COUNT(SELECT s FROM S s WHERE r.c < s.c)) FROM R r", catalog
    )
    join = _find_join(pq.compile_for(catalog), "nest")
    assert join is not None and join.algorithm == "nested_loop"
    started = time.monotonic()
    with cancel_scope(CancelToken(deadline=started + 0.05)):
        with pytest.raises(CancelledError):
            pq.execute(catalog)
    assert time.monotonic() - started < 0.5
