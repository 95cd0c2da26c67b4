import json
import multiprocessing
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from multiset_eulerian import combinatorics, lattice, verify
from multiset_eulerian.combinatorics import (
    Shape,
    chain_block_sizes,
    chain_classes,
    descent_set,
    iter_shapes,
)
from multiset_eulerian.lattice import chain_weight_sum
from multiset_eulerian.qpoly import QPolynomial, q_binomial
from multiset_eulerian.verify import (
    IdentityId,
    SuiteRun,
    check_identity,
    suite_jobs,
)
from oracles import brute_chains, ordered_partition_count

REF = Path(__file__).resolve().parent.parent / "perfbench" / "ref"

# each benchmark workload's `suite_jobs` selection and worker count; a
# workload over listed shapes has one reference stream per shape
WORKLOADS = {
    "suite_q": (dict(d_max=5, n_max=6, include_q=True), 2),
    "decomp_points": (dict(n_max=4, identities=["decomp_first", "decomp_second"]), 1),
    "chain_q": (
        dict(
            n_max=2,
            identities=["stirling2", "stirling2_q", "lah_q", "chain_q_corrected"],
        ),
        1,
    ),
}


def _iterate_on_thread(run, seconds):
    """Iterate `run` on a daemon thread for at most `seconds`; return the
    reports it yielded and the exception that ended it, if any.  A run that
    hangs fails the test instead of stalling the suite."""
    reports, errors = [], []

    def consume():
        try:
            reports.extend(run)
        except Exception as exc:
            errors.append(exc)

    thread = threading.Thread(target=consume, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"the run did not end within {seconds} s"
    return reports, errors[0] if errors else None


class TestRegistry:
    def test_enum_order(self):
        assert [i.value for i in IdentityId] == [
            "worpitzky",
            "carlitz_q",
            "stirling2",
            "stirling2_q",
            "lah",
            "lah_q",
            "chain_q_corrected",
            "decomp_first",
            "decomp_second",
        ]

    def test_checkers_are_built_from_the_members(self):
        # each member declares its checker once; the table check_identity
        # dispatches through maps the members to them, in registry order
        table = [(i, i.checker) for i in IdentityId]
        assert list(verify._CHECKERS.items()) == table

    def test_expected_fail_subset_of_q(self):
        expected_fail = {i for i in IdentityId if not i.expected}
        assert expected_fail == {IdentityId.STIRLING2_Q, IdentityId.LAH_Q}
        assert all(i.is_q for i in expected_fail)


class TestKnownCounterexamples:
    def test_stirling2_q_two_distinct_letters(self):
        report = check_identity("stirling2_q", Shape((1, 1)), 2)
        assert not report.expected
        assert report.status == "fail"
        assert report.records[0].equal  # n = 0 agrees
        ce = report.counterexample
        assert ce.n == 1
        assert ce.lhs.coeffs == (1, 2, 1)
        assert ce.rhs.coeffs == (1, 3)
        assert ce.lhs(1) == ce.rhs(1)  # the q = 1 shadow still balances

    def test_lah_q_two_distinct_letters(self):
        report = check_identity("lah_q", Shape((1, 1)), 2)
        assert report.status == "fail"
        ce = report.counterexample
        assert ce.n == 1
        assert ce.lhs.coeffs == (2, 2, 2)
        assert ce.rhs.coeffs == (2, 4)
        assert ce.lhs(1) == ce.rhs(1)

    def test_single_letter_shape_also_fails(self):
        for identity in ("stirling2_q", "lah_q"):
            report = check_identity(identity, Shape((2,)), 2)
            assert report.status == "fail"
            assert report.counterexample.n == 1

    def test_integer_shadows_pass(self):
        for identity in ("stirling2", "lah"):
            for shape in (Shape((1, 1)), Shape((2,)), Shape((2, 1))):
                assert check_identity(identity, shape, 6).passed


def _also_classify_origin_into(monkeypatch, key):
    """Make the oracle's walk also put the origin (coordinate sum 0) into
    the fiber `key` at level 0, where the origin is first classified,
    leaving the new-point count and the fibers it found as they are; the
    extra tally stays in the running table.  A key the oracle never visits
    is then caught only by the comparison of the table's size."""
    walk = verify.classify_new_points

    def classify(kind, shape, n, fibers):
        count = walk(kind, shape, n, fibers)
        if n == 0:
            fibers[key] = {0: 1}
        return count

    monkeypatch.setattr(verify, "classify_new_points", classify)


def _move_one_point_up(monkeypatch, key):
    """Make the oracle's walk move one point of the fiber `key` from the
    fiber's largest coordinate sum to the next one up, at the level where
    the fiber first gets points; the move stays in the running table.  The
    fiber keeps its count, so only the q-weight comparison can catch the
    move."""
    walk = verify.classify_new_points

    def classify(kind, shape, n, fibers):
        had = key in fibers
        count = walk(kind, shape, n, fibers)
        if had or key not in fibers:
            return count
        tally = fibers[key]
        top = max(tally)
        tally[top] -= 1
        if not tally[top]:
            del tally[top]
        tally[top + 1] = tally.get(top + 1, 0) + 1
        return count

    monkeypatch.setattr(verify, "classify_new_points", classify)


def _retally_at_level(monkeypatch, at, value, step):
    """Make the oracle's walk, at level `at` only, add `step` to the new-point
    count and to the tally of the point whose every coordinate is `value`,
    keyed by the one-point classifier.  Step 1 with value at - 1 classifies
    a point of the level below again; step -1 with value at drops a new
    point."""
    walk = verify.classify_new_points

    def classify(kind, shape, n, fibers):
        count = walk(kind, shape, n, fibers)
        if n != at:
            return count
        point = tuple((value,) * p for p in shape.parts)
        one = lattice.classify_first if kind == "first" else lattice.classify_second
        tally = fibers.setdefault(one(point), {})
        s = lattice.coordinate_sum(point)
        tally[s] = tally.get(s, 0) + step
        if not tally[s]:
            del tally[s]
        return count + step

    monkeypatch.setattr(verify, "classify_new_points", classify)


class TestPassingIdentities:
    def test_worpitzky(self):
        for shape in iter_shapes(4):
            assert check_identity("worpitzky", shape, 6).passed

    def test_carlitz_q(self):
        for shape in iter_shapes(4):
            assert check_identity("carlitz_q", shape, 5).passed

    def test_chain_q_corrected(self):
        for shape in iter_shapes(4):
            assert check_identity("chain_q_corrected", shape, 5).passed

    def test_chain_q_rhs_is_the_per_chain_sum(self):
        # the checker groups chains by block sizes; its rhs must equal the
        # ungrouped sum over independently enumerated chains
        for shape in iter_shapes(4):
            records = check_identity("chain_q_corrected", shape, 4).records
            for n, record in enumerate(records):
                expected = QPolynomial()
                for k in range(1, shape.size + 1):
                    for chain in brute_chains(shape.parts, k):
                        expected = expected + chain_weight_sum(chain, n)
                assert record.rhs == expected

    def test_degenerate_single_cell(self):
        for identity in IdentityId:
            assert check_identity(identity, Shape((1,)), 5).passed

    def test_decompositions(self):
        for shape in iter_shapes(4):
            assert check_identity(IdentityId.DECOMP_FIRST, shape, 3).passed
            assert check_identity(IdentityId.DECOMP_SECOND, shape, 3).passed

    def test_point_in_empty_chain_fiber_fails(self, monkeypatch):
        # at n = 0 a two-block chain has C(1, 2) = 0 points, so the oracle
        # never visits it; a point classified into it must still fail
        _also_classify_origin_into(monkeypatch, ((0, 0), (1, 0), (1, 1)))
        assert not check_identity(IdentityId.DECOMP_SECOND, Shape((1, 1)), 0).passed

    def test_point_in_wrong_region_fails(self, monkeypatch):
        # the only point at n = 0 reads 12; the region of 21 is empty there,
        # and 11 is no word of the shape, so enumeration never visits it
        for word in ((2, 1), (1, 1)):
            with monkeypatch.context() as patch:
                _also_classify_origin_into(patch, word)
                report = check_identity(IdentityId.DECOMP_FIRST, Shape((1, 1)), 0)
                assert not report.passed

    def test_moved_point_in_a_shared_word_class_fails(self, monkeypatch):
        # 132 and 231 share (des, maj) = (1, 2), so they share one closed
        # value per level; each member's fiber must still be compared
        members = ((1, 3, 2), (2, 3, 1))
        assert len({descent_set(w) for w in members}) == 1
        for word in members:
            with monkeypatch.context() as patch:
                _move_one_point_up(patch, word)
                report = check_identity(IdentityId.DECOMP_FIRST, Shape((1, 1, 1)), 1)
                # the word has no point at level 0, which still passes
                assert report.counterexample.n == 1

    def test_moved_point_in_a_shared_chain_class_fails(self, monkeypatch):
        # the two 2-block chains of shape 1,1 both have block sizes (1, 1)
        members = (((0, 0), (1, 0), (1, 1)), ((0, 0), (0, 1), (1, 1)))
        assert len({chain_block_sizes(c) for c in members}) == 1
        for chain in members:
            with monkeypatch.context() as patch:
                _move_one_point_up(patch, chain)
                report = check_identity(IdentityId.DECOMP_SECOND, Shape((1, 1)), 1)
                # the chain has no point at level 0, which still passes
                assert report.counterexample.n == 1

    @pytest.mark.parametrize(
        "identity", [IdentityId.DECOMP_FIRST, IdentityId.DECOMP_SECOND]
    )
    @pytest.mark.parametrize(
        "offset, step", [(-1, 1), (0, -1)], ids=["classified-again", "dropped"]
    )
    def test_running_total_catches_a_double_count_or_a_gap(
        self, monkeypatch, identity, offset, step
    ):
        # each point is classified once, at the first level that contains
        # it; a point of the level below classified again, or a new point
        # left out, must fail that level and every level after it
        shape = Shape((2, 1))
        for at in range(1, 4):
            with monkeypatch.context() as patch:
                _retally_at_level(patch, at, at + offset, step)
                records = check_identity(identity, shape, 4).records
            assert [r.equal for r in records] == [True] * at + [False] * (5 - at)
            assert records[at].rhs == lattice.point_count(shape, at) + step

    @pytest.mark.parametrize(
        "identity, closed",
        [
            (IdentityId.DECOMP_FIRST, "region_point_count"),
            (IdentityId.DECOMP_SECOND, "chain_region_count"),
        ],
    )
    def test_wrong_closed_count_fails_its_level(self, monkeypatch, identity, closed):
        # every fiber still equals its closed q-weight and the totals still
        # agree; only each class's closed count is off by one
        count = getattr(verify, closed)
        monkeypatch.setattr(verify, closed, lambda *args: count(*args) + 1)
        records = check_identity(identity, Shape((1, 1)), 1).records
        assert [r.equal for r in records] == [False, False]
        assert all(r.lhs == r.rhs for r in records)

    def test_shape_with_many_copies_of_one_letter(self):
        # 1200 copies of one letter, deeper than the recursion limit
        for identity in ("worpitzky", "decomp_first", "decomp_second"):
            assert check_identity(identity, Shape((1200,)), 0).passed


class TestReportSerialization:
    def test_json_schema(self):
        report = check_identity("worpitzky", Shape((2, 1)), 2)
        data = json.loads(report.to_json_line())
        assert list(data) == [
            "identity",
            "shape",
            "expected",
            "results",
            "status",
            "counterexample",
        ]
        assert data["identity"] == "worpitzky"
        assert data["shape"] == [2, 1]
        assert data["expected"] is True
        assert data["status"] == "pass"
        assert data["counterexample"] is None
        assert len(data["results"]) == 3
        first = data["results"][0]
        assert list(first) == ["n", "lhs", "rhs", "equal"]
        assert first == {"n": 0, "lhs": "1", "rhs": "1", "equal": True}

    def test_json_poly_encoding(self):
        report = check_identity("stirling2_q", Shape((1, 1)), 1)
        data = json.loads(report.to_json_line())
        assert data["expected"] is False
        assert data["status"] == "fail"
        assert data["results"][1]["lhs"] == ["1", "2", "1"]
        assert data["results"][1]["rhs"] == ["1", "3"]
        assert data["counterexample"] == {
            "n": 1,
            "lhs": ["1", "2", "1"],
            "rhs": ["1", "3"],
        }

    def test_json_line_is_compact(self):
        line = check_identity("lah", Shape((1,)), 0).to_json_line()
        assert "\n" not in line and ": " not in line and ", " not in line


class TestSuite:
    def test_job_order(self):
        jobs = suite_jobs(d_max=2, n_max=3)
        identities = [j[0] for j in jobs]
        shapes = [j[1].parts for j in jobs]
        assert identities[:3] == [IdentityId.WORPITZKY] * 3
        assert shapes[:3] == [(1,), (2,), (1, 1)]
        assert IdentityId.STIRLING2_Q not in identities
        assert len(jobs) == 5 * 3
        assert all(j[2] == 3 for j in jobs)

    def test_job_order_with_q(self):
        jobs = suite_jobs(d_max=2, n_max=3, include_q=True)
        assert [j[0] for j in jobs[:9:3]] == [
            IdentityId.WORPITZKY,
            IdentityId.CARLITZ_Q,
            IdentityId.STIRLING2,
        ]
        assert len(jobs) == 9 * 3

    def test_identity_filter_keeps_registry_order(self):
        jobs = suite_jobs(
            d_max=1, identities=["lah", "worpitzky"], n_max=2
        )
        assert [j[0] for j in jobs] == [IdentityId.WORPITZKY, IdentityId.LAH]

    def test_explicit_shapes(self):
        jobs = suite_jobs(
            shapes=[Shape((3, 1))], identities=["stirling2"], n_max=4
        )
        assert jobs == [(IdentityId.STIRLING2, Shape((3, 1)), 4)]

    def test_all_integer_identities_pass(self):
        run = SuiteRun(suite_jobs(d_max=3, n_max=4, l_max=3))
        reports = list(run)
        assert not run.truncated
        assert all(r.passed for r in reports)

    def test_q_failures_are_expected_only(self):
        run = SuiteRun(suite_jobs(d_max=2, n_max=3, include_q=True))
        reports = list(run)
        assert not run.truncated
        failing = {(r.identity, r.shape.parts) for r in reports if not r.passed}
        assert failing == {
            (IdentityId.STIRLING2_Q, (2,)),
            (IdentityId.STIRLING2_Q, (1, 1)),
            (IdentityId.LAH_Q, (2,)),
            (IdentityId.LAH_Q, (1, 1)),
        }
        assert [r for r in reports if r.expected and not r.passed] == []

    def test_caches_are_bounded_and_do_not_evict(self):
        # a serial d <= 4 run with every identity fits the four caches
        caches = (
            q_binomial,
            lattice._strict_weight,
            lattice._factor_points,
            chain_classes,
        )
        for cache in caches:
            cache.cache_clear()
        run = SuiteRun(suite_jobs(d_max=4, n_max=6, include_q=True))
        reports = list(run)
        assert not run.truncated
        assert all(r.passed or not r.expected for r in reports)
        for cache in caches:
            info = cache.cache_info()
            assert isinstance(info.maxsize, int)
            assert info.misses == info.currsize < info.maxsize

    def test_chains_are_enumerated_once_per_shape_per_run(self, monkeypatch):
        # the two q-identities of chains read one class table per shape, a
        # run starts without the tables of an earlier one, and stirling2
        # counts its chains without grouping them
        yielded = []
        enumerate_all = combinatorics.iter_all_chains

        def counted(shape):
            for chain in enumerate_all(shape):
                yielded.append(chain)
                yield chain

        monkeypatch.setattr(combinatorics, "iter_all_chains", counted)
        jobs = suite_jobs(
            d_max=4,
            n_max=3,
            identities=["stirling2", "stirling2_q", "chain_q_corrected"],
        )
        chains = sum(
            ordered_partition_count(shape.parts, k)
            for shape in iter_shapes(4)
            for k in range(1, shape.size + 1)
        )
        for runs in (1, 2):
            run = SuiteRun(jobs)
            assert all(r.passed or not r.expected for r in run)
            assert not run.truncated
            assert len(yielded) == runs * chains
        jobs = suite_jobs(d_max=4, n_max=3, identities=["stirling2"])
        assert all(r.passed for r in SuiteRun(jobs))
        assert len(yielded) == 2 * chains

    def test_worker_pool_matches_serial(self):
        jobs = suite_jobs(d_max=2, n_max=3, include_q=True)
        serial = SuiteRun(jobs, workers=1)
        pooled = SuiteRun(jobs, workers=2)
        assert [r.to_json_line() for r in serial] == [
            r.to_json_line() for r in pooled
        ]

    @pytest.mark.parametrize(
        "name",
        [
            "suite_q",
            "decomp_points.2-2-2-1",
            "decomp_points.1-1-1-1-1-1",
            "chain_q.3-2-2-1",
            "chain_q.3-3-1-1",
        ],
    )
    def test_reference_stream(self, name):
        # each benchmark workload's output, pinned byte for byte
        workload, _, parts = name.partition(".")
        selection, workers = WORKLOADS[workload]
        if parts:
            shape = Shape(tuple(int(p) for p in parts.split("-")))
            selection = dict(selection, shapes=[shape])
        run = SuiteRun(suite_jobs(**selection), workers=workers)
        stream = "".join(r.to_json_line() + "\n" for r in run)
        assert stream == (REF / f"{name}.jsonl").read_text()

    def test_pool_starts_no_more_processes_than_jobs(self, monkeypatch):
        started = []
        start = multiprocessing.Process.start

        def counted_start(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.Process, "start", counted_start)
        jobs = suite_jobs(shapes=[Shape((1,)), Shape((2,))], identities=["lah"])
        reports = list(SuiteRun(jobs, workers=10**6))
        assert len(started) == 2
        assert [r.shape for r in reports] == [Shape((1,)), Shape((2,))]
        # every worker is reaped when the run ends
        assert [p.exitcode for p in started] == [-signal.SIGTERM] * 2

    def test_idle_worker_waits_to_be_terminated(self, monkeypatch):
        # A spawned worker holds only its own end of its pipe.  The second
        # and third workers answer their quick jobs while the first is still
        # busy; they must wait idle until the run ends and terminates all
        # three, not read the end of a closed pipe and exit on an error
        spawn = multiprocessing.get_context("spawn").Process
        started = []
        start = spawn.start

        def counted_start(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(spawn, "start", counted_start)
        monkeypatch.setattr(multiprocessing, "Process", spawn)
        jobs = [
            (IdentityId.DECOMP_SECOND, Shape((1,) * 7), 4),  # about 0.4 s
            (IdentityId.LAH, Shape((1,)), 0),
            (IdentityId.LAH, Shape((2,)), 0),
        ]
        assert all(r.passed for r in SuiteRun(jobs, workers=3))
        assert [p.exitcode for p in started] == [-signal.SIGTERM] * 3

    def test_zero_time_limit_truncates(self):
        run = SuiteRun(suite_jobs(d_max=2, n_max=2), time_limit=0.0)
        assert list(run) == []
        assert run.truncated

    def test_pool_does_not_wait_for_running_job(self):
        # decomp_second on 1^8 up to n = 6 classifies 7^8, about 5.8
        # million points; the levels up to n = 4 alone (5^8, 0.39 million)
        # take seconds, so the job runs far beyond both the 0.2 s budget
        # and the 5 s bound
        start = time.monotonic()
        jobs = suite_jobs(
            shapes=[Shape((1,) * 8)], identities=["decomp_second"], n_max=6
        )
        run = SuiteRun(jobs, workers=2, time_limit=0.2)
        reports = list(run)
        assert time.monotonic() - start < 5
        assert run.truncated
        assert reports == []

    def test_serial_run_does_not_wait_for_running_job(self):
        # the same job as above, run serially: a timed run starts one
        # worker, and terminating it stops the job
        start = time.monotonic()
        run = SuiteRun(
            [(IdentityId.DECOMP_SECOND, Shape((1,) * 8), 6)],
            workers=1,
            time_limit=0.2,
        )
        reports = list(run)
        assert time.monotonic() - start < 5
        assert run.truncated
        assert reports == []

    @pytest.mark.usefixtures("fork_workers")
    def test_run_ends_on_time_while_a_job_sits_in_a_finalizer(self, monkeypatch):
        # The budget runs out while the job sits in a finalizer, and the
        # job goes on after it.  Terminating the worker stops the job
        # wherever it is, so the run still ends on time.
        class SlowFinalizer:
            def __del__(self):
                time.sleep(0.5)

        def checker(shape, n_max):
            SlowFinalizer()  # finalised at once, sleeping past the budget
            end = time.monotonic() + 3
            while time.monotonic() < end:
                pass
            return []

        monkeypatch.setitem(verify._CHECKERS, IdentityId.LAH, checker)
        start = time.monotonic()
        job = (IdentityId.LAH, Shape((1,)), 0)
        run = SuiteRun([job], workers=1, time_limit=0.2)
        reports = list(run)
        elapsed = time.monotonic() - start
        assert elapsed < 2
        assert run.truncated
        assert reports == []

    @pytest.mark.usefixtures("fork_workers")
    def test_dead_worker_is_an_error(self, monkeypatch):
        # the forked worker inherits the patched table and dies mid-job;
        # the run must end with an exception (the CLI's error line and
        # exit 4), not wait out the budget and report a truncation
        monkeypatch.setitem(
            verify._CHECKERS, IdentityId.LAH, lambda shape, n_max: os._exit(1)
        )
        start = time.monotonic()
        run = SuiteRun([(IdentityId.LAH, Shape((1,)), 0)], workers=1, time_limit=5)
        with pytest.raises(ChildProcessError, match="exitcode=1"):
            list(run)
        assert time.monotonic() - start < 4
        assert not run.truncated

    @pytest.mark.usefixtures("fork_workers")
    def test_dead_worker_ends_an_untimed_run(self, monkeypatch):
        # without a budget there is no deadline to fall back on: the run
        # must notice the death itself, so it runs on a daemon thread and
        # a hang fails the test instead of stalling the suite
        monkeypatch.setitem(
            verify._CHECKERS, IdentityId.LAH, lambda shape, n_max: os._exit(9)
        )
        jobs = suite_jobs(shapes=[Shape((1,)), Shape((2,))], identities=["lah"])
        reports, error = _iterate_on_thread(SuiteRun(jobs, workers=2), 5)
        assert reports == []
        assert isinstance(error, ChildProcessError)
        assert "exitcode=9" in str(error)

    @pytest.mark.usefixtures("fork_workers")
    def test_killed_worker_names_the_signal(self, monkeypatch):
        def killed(shape, n_max):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setitem(verify._CHECKERS, IdentityId.LAH, killed)
        run = SuiteRun([(IdentityId.LAH, Shape((2,)), 0)], workers=2)
        reports, error = _iterate_on_thread(run, 5)
        assert reports == []
        assert isinstance(error, ChildProcessError)
        assert "exitcode=-SIGKILL" in str(error)

    @pytest.mark.usefixtures("fork_workers")
    def test_dead_worker_raises_at_its_place_in_the_order(self, monkeypatch):
        # Two workers: job 0 is quick, job 1 sleeps, and job 2, handed to
        # the worker that ran job 0, dies while job 1 is still running.
        # Jobs 0 and 1 still stream, and the error belongs to job 2.
        lah = verify._CHECKERS[IdentityId.LAH]

        def checker(shape, n_max):
            if shape == Shape((1, 1)):
                time.sleep(0.5)
            if shape == Shape((2,)):
                os._exit(3)
            return lah(shape, n_max)

        monkeypatch.setitem(verify._CHECKERS, IdentityId.LAH, checker)
        shapes = [Shape((1,)), Shape((1, 1)), Shape((2,)), Shape((3,))]
        jobs = suite_jobs(shapes=shapes, identities=["lah"], n_max=1)
        reports, error = _iterate_on_thread(SuiteRun(jobs, workers=2), 5)
        assert [r.shape for r in reports] == shapes[:2]
        assert all(r.passed for r in reports)
        assert isinstance(error, ChildProcessError)
        assert "exitcode=3" in str(error)

    def test_timed_serial_run_off_the_main_thread(self):
        # the decomp_second job above, iterated on a thread that cannot
        # receive signals; the worker process still stops at the deadline
        run = SuiteRun(
            [(IdentityId.DECOMP_SECOND, Shape((1,) * 8), 6)],
            workers=1,
            time_limit=0.2,
        )
        reports, error = _iterate_on_thread(run, 5)
        assert error is None
        assert run.truncated
        assert reports == []

    def test_validation(self):
        with pytest.raises(ValueError):
            suite_jobs()
        with pytest.raises(ValueError):
            SuiteRun([], workers=0)
        for bad_limit in (-5.0, float("nan")):
            with pytest.raises(ValueError):
                SuiteRun([], time_limit=bad_limit)
        with pytest.raises(ValueError):
            check_identity("mystery", Shape((1,)), 1)
        with pytest.raises(ValueError):
            check_identity("worpitzky", Shape((1,)), -1)
        for bad_range in (
            {"d_max": 2, "n_max": -1},
            {"shapes": [Shape((1, 1))], "n_max": -1},
            {"d_max": 0},
            {"d_max": -3},
            {"d_max": 3, "l_max": 0},
            {"d_max": 2, "identities": []},
            {"shapes": []},
            # an explicit shape list is filtered by d_max and l_max
            {"shapes": [Shape((2, 1))], "l_max": 1},
            {"shapes": [Shape((3,))], "d_max": 2},
        ):
            with pytest.raises(ValueError):
                suite_jobs(**bad_range)
