"""Per-layer metrics from an in-process, traced run of ``verify``.

The benchmark wraps timing spans around calls into each module's public
functions; the wrappers live here only, and the package is left as it is
once the run ends.  Each span records (name, start, end, parent) in compact
arrays kept in memory and written to ``perfbench/out`` at the end.  A span's
self time is its duration minus the time its child spans cover.  Generators
are exhausted inside their span, so their span holds the enumeration work
and ``items`` counts what they yielded.

For each command of the workload three in-process runs of ``cli.main`` are
made, each after clearing the ``q_binomial``, ``_strict_weight`` and
``_factor_points`` caches:

1. untraced, ``--workers 1``: per-job times, seen from the consumer side of
   the ``SuiteRun`` iterator, and the untraced wall time;
2. untraced, with the workload's own worker count (skipped when that is 1,
   where run 1 serves): time the consumer spends blocked on the in-order
   iterator, and pool utilisation.  Pool workers are forked, so spans
   recorded inside them would be lost; this run therefore has no spans;
3. traced, ``--workers 1``: spans, call and item counts and cache hit ratios.

``trace_overhead_ratio`` is the traced wall time over the untraced one.
"""

from __future__ import annotations

import hashlib
import io
import json
import statistics
import sys
import time
from array import array
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from multiset_eulerian import cli, combinatorics, lattice, numbers, qpoly, verify  # noqa: E402

CACHES = (qpoly.q_binomial, lattice._strict_weight, lattice._factor_points)

# (module, function, span name, is a generator): the names that the upper
# layers import from the lower ones are patched wherever they are bound.
FUNCTIONS = (
    (qpoly, "q_binomial", "qpoly.q_binomial", False),
    (combinatorics, "iter_permutations", "combinatorics.iter_permutations", True),
    (combinatorics, "iter_chains", "combinatorics.iter_chains", True),
    (combinatorics, "iter_all_chains", "combinatorics.iter_all_chains", True),
    (lattice, "iter_points", "lattice.iter_points", True),
    (lattice, "classify_first", "lattice.classify_first", False),
    (lattice, "classify_second", "lattice.classify_second", False),
    (lattice, "coordinate_sum", "lattice.coordinate_sum", False),
    (lattice, "region_gf", "lattice.region_gf", False),
    (lattice, "chain_weight_sum", "lattice.chain_weight_sum", False),
    (lattice, "f1", "lattice.f1", False),
    (numbers, "a_polynomials", "numbers.a_polynomials", False),
    (numbers, "b_polynomials", "numbers.b_polynomials", False),
    (numbers, "c_polynomials", "numbers.c_polynomials", False),
    (numbers, "eulerian_row_enum", "numbers.eulerian_row_enum", False),
    (numbers, "stirling2_row_enum", "numbers.stirling2_row_enum", False),
    (verify, "check_identity", "verify.job", False),
)
METHODS = (
    (qpoly.QPolynomial, "__add__", "qpoly.add"),
    (qpoly.QPolynomial, "__radd__", "qpoly.add"),
    (qpoly.QPolynomial, "__mul__", "qpoly.mul"),
    (qpoly.QPolynomial, "__rmul__", "qpoly.mul"),
    (qpoly.QPolynomial, "shift", "qpoly.shift"),
    (verify.IdentityReport, "to_json_line", "cli.encode"),
)
MODULES = (qpoly, combinatorics, lattice, numbers, verify, cli)
IDENTITIES = tuple(i.value for i in verify.IdentityId)

# Per-layer metrics in the order they are reported, with their units.
SELF_TIMES = (
    "lattice.iter_points",
    "lattice.classify_first",
    "lattice.classify_second",
    "lattice.coordinate_sum",
    "lattice.region_gf",
    "lattice.chain_weight_sum",
    "lattice.f1",
    "combinatorics.iter_chains",
    "combinatorics.iter_permutations",
    "numbers.stirling2_row_enum",
    "numbers.b_polynomials",
    "numbers.c_polynomials",
    "numbers.a_polynomials",
    "numbers.eulerian_row_enum",
    "qpoly.add",
    "qpoly.mul",
    "qpoly.shift",
    "qpoly.q_binomial",
    "cli.encode",
) + tuple(f"verify.{i}" for i in IDENTITIES)
CALLS = (
    "lattice.classify_first",
    "lattice.classify_second",
    "lattice.chain_weight_sum",
    "qpoly.add",
    "qpoly.mul",
    "qpoly.shift",
)
ITEMS = (
    "lattice.iter_points",
    "combinatorics.iter_chains",
    "combinatorics.iter_permutations",
    "combinatorics.iter_all_chains",
)


def metric_units() -> dict[str, str]:
    units = {f"{n}.items": "count" for n in ITEMS}
    units.update({f"{n}.calls": "count" for n in CALLS})
    units.update({f"{n}.self_s": "s" for n in SELF_TIMES})
    units.update(
        {
            "lattice.strict_weight.hit_ratio": "ratio",
            "qpoly.q_binomial.hit_ratio": "ratio",
            "lattice.factor_points.entries": "count",
            "verify.job.p50_s": "s",
            "verify.job.max_s": "s",
            "verify.suite_run.wait_s": "s",
            "verify.pool.utilisation": "ratio",
            "verify.pool.job_sum_s": "s",
            "verify.pool.wall_s": "s",
            "verify.pool.workers": "count",
            "cli.report_bytes": "bytes",
            "trace_overhead_ratio": "ratio",
        }
    )
    return units


class Tracer:
    """Spans in parallel arrays; index -1 is the parent of a root span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.items: dict[int, int] = {}

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, generator: bool = False):
        nid = self.name_id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, items, clock = self.stack, self.items, time.perf_counter

        def wrapped(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if generator:
                    result = list(result)
            finally:
                end[idx] = clock()
                stack.pop()
            if generator:
                items[nid] = items.get(nid, 0) + len(result)
                return iter(result)
            return result

        return wrapped

    def totals(self) -> dict[str, tuple[int, float, int]]:
        """(calls, self seconds, items) per span name."""
        n = len(self.span_name)
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += self.end[i] - self.start[i] - covered[i]
        return {
            name: (calls[i], self_s[i], self.items.get(i, 0))
            for i, name in enumerate(self.names)
        }

    def write(self, prefix: Path) -> None:
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "layout": "int32 name[], int32 parent[], float64 start[], float64 end[]",
        }
        prefix.with_suffix(".spans.json").write_text(json.dumps(header) + "\n")
        with open(prefix.with_suffix(".spans.bin"), "wb") as fh:
            for arr in (self.span_name, self.parent, self.start, self.end):
                arr.tofile(fh)


@contextmanager
def patched(tracer: Tracer):
    """Install span wrappers; restore every original binding on exit."""
    saved = []

    def put(owner, attr, value):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        for owner, attr, name, generator in FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, generator)
            for mod in MODULES:
                for bound, value in list(vars(mod).items()):
                    if value is original:
                        put(mod, bound, wrapper)
        for owner, attr, name in METHODS:
            put(owner, attr, tracer.wrap(name, vars(owner)[attr]))
        checkers = verify._CHECKERS
        saved.append((checkers, None, dict(checkers)))
        for identity, fn in checkers.items():
            checkers[identity] = tracer.wrap(f"verify.{identity.value}", fn)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            if attr is None:
                owner.update(value)
            else:
                setattr(owner, attr, value)


class _ConsumerTimedRun(verify.SuiteRun):
    """SuiteRun observed from the consumer side: the time each ``next``
    blocks, the final one that ends the iteration included.  The iterator
    itself and its workers are the package's own."""

    waits: list[float] = []

    def __iter__(self):
        inner = super().__iter__()
        clock = time.perf_counter
        while True:
            t0 = clock()
            try:
                report = next(inner)
            except StopIteration:
                self.waits.append(clock() - t0)
                return
            self.waits.append(clock() - t0)
            yield report


def _cli(argv: tuple[str, ...]) -> tuple[int, bytes, float]:
    for cache in CACHES:
        cache.cache_clear()
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue().encode(), time.perf_counter() - start


def _consumer_run(argv: tuple[str, ...]) -> tuple[int, bytes, float, list[float]]:
    """Untraced in-process run; also returns the consumer's waits."""
    waits = _ConsumerTimedRun.waits = []
    cli.SuiteRun = _ConsumerTimedRun
    try:
        rc, out, wall = _cli(argv)
    finally:
        cli.SuiteRun = verify.SuiteRun
    return rc, out, wall, waits


def _serial(argv: tuple[str, ...]) -> tuple[str, ...]:
    argv = list(argv)
    argv[argv.index("--workers") + 1] = "1"
    return tuple(argv)


def run(cmds, workers: int, failed_jobs, out_prefix: Path):
    """Run the workload's commands in-process; return per-layer metrics,
    attempted and failed job counts, and the traced report hashes."""
    attempted = failed = 0

    def check(cmd, rc, out):
        nonlocal attempted, failed
        attempted += len(cmd.ref_lines)
        failed += failed_jobs(cmd, out, rc)

    job_times: list[float] = []
    untraced_wall = pool_wall = pool_wait = 0.0
    for cmd in cmds:
        rc, out, wall, waits = _consumer_run(_serial(cmd.argv))
        check(cmd, rc, out)
        untraced_wall += wall
        job_times += waits[:-1]  # with one worker, each next runs one job
        if workers > 1:
            rc, out, wall, waits = _consumer_run(cmd.argv)
            check(cmd, rc, out)
        pool_wall += wall
        pool_wait += sum(waits)

    tracer = Tracer()
    traced_wall = 0.0
    report_bytes = 0
    hashes = {}
    hits = {c: 0 for c in CACHES}
    misses = dict(hits)
    factor_entries = 0
    for cmd in cmds:
        with patched(tracer):
            rc, out, wall = _cli(_serial(cmd.argv))
        check(cmd, rc, out)
        traced_wall += wall
        report_bytes += len(out)
        hashes[cmd.key] = hashlib.sha256(out).hexdigest()
        for cache in CACHES:
            info = cache.cache_info()
            hits[cache] += info.hits
            misses[cache] += info.misses
        factor_entries = max(
            factor_entries, lattice._factor_points.cache_info().currsize
        )
    tracer.write(out_prefix)

    def ratio(cache):
        total = hits[cache] + misses[cache]
        return hits[cache] / total if total else 0.0

    totals = tracer.totals()
    values = {}
    for name in ITEMS:
        values[f"{name}.items"] = totals.get(name, (0, 0.0, 0))[2]
    for name in CALLS:
        values[f"{name}.calls"] = totals.get(name, (0, 0.0, 0))[0]
    for name in SELF_TIMES:
        values[f"{name}.self_s"] = totals.get(name, (0, 0.0, 0))[1]
    job_sum = sum(job_times)
    values.update(
        {
            "lattice.strict_weight.hit_ratio": ratio(lattice._strict_weight),
            "qpoly.q_binomial.hit_ratio": ratio(qpoly.q_binomial),
            "lattice.factor_points.entries": factor_entries,
            "verify.job.p50_s": statistics.median(job_times),
            "verify.job.max_s": max(job_times),
            "verify.suite_run.wait_s": pool_wait,
            "verify.pool.utilisation": job_sum / (workers * pool_wall),
            "verify.pool.job_sum_s": job_sum,
            "verify.pool.wall_s": pool_wall,
            "verify.pool.workers": workers,
            "cli.report_bytes": report_bytes,
            "trace_overhead_ratio": traced_wall / untraced_wall,
        }
    )
    units = metric_units()
    metrics = {name: (values[name], units[name]) for name in units}
    return metrics, attempted, failed, hashes
