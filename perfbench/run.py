"""End-to-end and per-layer benchmark of ``multiset-eulerian verify``.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite_q --seed 0 --seconds 30 --trace 0

A user's cost is the time ``verify`` takes to reach a verdict, so the
end-to-end figures (``--trace 0``) come from running the real CLI,
``python -m multiset_eulerian verify ...``, as a fresh subprocess for every
sample.  Each process starts with cold caches, as it does for a user.  The
loop is closed: one CLI run at a time, and a workload never asks for more
than two workers.

Workloads (each stresses a different layer):

* ``suite_q``: ``--dmax 5 --nmax 6 --q --workers 2``, 279 jobs covering every
  composition with d <= 5 and all nine identities.  It is the only workload
  that uses the process pool, per-job overhead and report encoding.
* ``decomp_points``: both decomposition oracles at ``--nmax 4`` on shapes
  2,2,2,1 and 1,1,1,1,1,1.  Nearly all of its time is lattice-point
  enumeration and classification.
* ``chain_q``: ``stirling2,stirling2_q,lah_q,chain_q_corrected`` at
  ``--nmax 2`` on shapes 3,2,2,1 and 3,3,1,1 (34,516 and 24,924 chains).
  It enumerates chains and words and adds q-polynomials, and calls no
  lattice-point code.

The seed picks an ordering of each shape's parts for ``decomp_points`` and
``chain_q`` (seed 0 keeps the canonical order).  Point, word and chain counts
do not depend on that order, so the amount of work is fixed.  ``suite_q``
covers every composition already and ignores the seed.

Correctness: every report stream is compared with a reference pinned in
``perfbench/ref`` from the parent commit of the benchmark (the ``suite_q``
reference has 279 lines and sha256 prefix ``be7f648d9a79``).  With the
canonical order the comparison is byte for byte; with a reordered shape each
line must carry the reordered ``shape`` and otherwise equal the reference
line field for field.  A job whose line is missing or different counts as
failed; a wrong exit code fails every job of that command.

End-to-end metrics (``--trace 0``):

* ``verdict_s``: wall time from launching the CLI to its exit, summed over
  the workload's commands.
* ``setup_s``: the same commands with ``--workers 1 --time-limit 0``, which
  import the package, parse arguments, build the job list, print only the
  truncation marker and exit 3.
* ``cpu_s``: user + system CPU time of the process tree (``os.wait4``).
* ``objects_per_s``: points, words and chains covered by the checks, from
  closed-form counts, divided by ``verdict_s - setup_s``.
* ``peak_rss_mb``: largest peak RSS of any process in the tree, median over
  the rounds.

The speed of a small shared host swings by tens of percent, over seconds
and over minutes, for the same process.  So every run of the program is
paired with a run of the same command on ``perfbench/pinned``, a copy of the
package as it stood when the benchmark was defined, which is never edited;
the order within a pair alternates from round to round.  Each time metric
of a command is the median, over its pairs, of the program's time over the
pinned copy's, times the seconds the pinned copy takes on the reference
host (``REFERENCE_S``).  The figures are thus seconds at the reference
host's speed; the raw seconds of the pinned copy are kept in the run
record.

``failed_share`` (failed jobs over attempted jobs) is printed in the summary
and carried by the ``failed`` and ``attempted`` fields of the result.

``--trace 1`` runs the workload in-process instead, once whatever
``--seconds`` says, and reports per-layer metrics; see ``tracing.py``.
Every run prints a run record (machine, load, commit, seed, report hashes)
before the result and writes it, with the spans of a traced run, to
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
REF = BENCH / "ref"
OUT = BENCH / "out"
# the package as it stood when the benchmark was defined, never edited
PINNED = BENCH / "pinned"

IDENTITIES = (
    "worpitzky",
    "carlitz_q",
    "stirling2",
    "stirling2_q",
    "lah",
    "lah_q",
    "chain_q_corrected",
    "decomp_first",
    "decomp_second",
)

# The whole run must end within 180 s; CLI runs still going after this
# many seconds are killed and their jobs count as failed.
TIME_LIMIT_S = 170

# Each verdict pair is followed by a set-up pair, so set-up is sampled as
# often as the verdict, over the whole run.  The untimed warm-up before them
# writes the bytecode caches a user would have.
SETUP_PAIRS_PER_ROUND = 1

# Seconds the pinned copy takes per command on the reference host (2 vCPU
# x86_64, Python 3.11.7), medians over 5 to 13 runs: (verdict, set-up, CPU).
# A time metric is this figure times the median ratio of the program's time
# to the pinned copy's in the same pair.
REFERENCE_S = {
    "suite_q": (3.10, 0.147, 5.52),
    "decomp_points.2-2-2-1": (1.12, 0.122, 1.12),
    "decomp_points.1-1-1-1-1-1": (1.15, 0.122, 1.15),
    "chain_q.3-2-2-1": (1.59, 0.134, 1.59),
    "chain_q.3-3-1-1": (1.23, 0.138, 1.22),
}


@dataclass(frozen=True)
class Workload:
    name: str
    identities: tuple[str, ...]
    n_max: int
    workers: int
    # one CLI command per shape; an empty tuple means the --dmax suite
    shapes: tuple[tuple[int, ...], ...] = ()
    d_max: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("suite_q", IDENTITIES, n_max=6, workers=2, d_max=5),
        Workload(
            "decomp_points",
            ("decomp_first", "decomp_second"),
            n_max=4,
            workers=1,
            shapes=((2, 2, 2, 1), (1, 1, 1, 1, 1, 1)),
        ),
        Workload(
            "chain_q",
            ("stirling2", "stirling2_q", "lah_q", "chain_q_corrected"),
            n_max=2,
            workers=1,
            shapes=((3, 2, 2, 1), (3, 3, 1, 1)),
        ),
    )
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload, with its pinned reference."""

    key: str
    canonical: tuple[int, ...]  # shape as pinned; () for the suite
    parts: tuple[int, ...]  # shape as run under this seed
    argv: tuple[str, ...]  # arguments after ``-m multiset_eulerian``
    ref_lines: tuple[bytes, ...]

    def setup_argv(self) -> tuple[str, ...]:
        argv = list(self.argv)
        argv[argv.index("--workers") + 1] = "1"
        return tuple(argv) + ("--time-limit", "0")


def _shape_text(parts: tuple[int, ...], sep: str = ",") -> str:
    return sep.join(str(p) for p in parts)


def commands(wl: Workload, seed: int) -> list[Command]:
    rng = random.Random(seed)
    base = ["verify"]
    if wl.d_max:
        base += ["--dmax", str(wl.d_max), "--q"]
    else:
        base += ["--identity", ",".join(wl.identities)]
    base += ["--nmax", str(wl.n_max)]
    out = []
    for canonical in wl.shapes or ((),):
        parts = canonical
        if seed != 0 and canonical:
            parts = tuple(rng.sample(canonical, len(canonical)))
        argv = list(base)
        key = wl.name
        if canonical:
            argv += ["--shape", _shape_text(parts)]
            key += "." + _shape_text(canonical, "-")
        argv += ["--workers", str(wl.workers)]
        ref = (REF / f"{key}.jsonl").read_bytes().splitlines(keepends=True)
        out.append(Command(key, canonical, parts, tuple(argv), tuple(ref)))
    return out


# -- correctness --------------------------------------------------------


def _line_ok(cmd: Command, got: bytes, ref: bytes) -> bool:
    if cmd.parts == cmd.canonical:
        return got == ref
    try:
        doc = json.loads(got)
    except ValueError:
        return False
    want = json.loads(ref)
    want["shape"] = list(cmd.parts)
    return doc == want and got.endswith(b"\n")


def failed_jobs(cmd: Command, stdout: bytes, rc: int) -> int:
    """Jobs of one command whose report line is missing or wrong.

    A wrong exit code or extra output fails every job of the command.
    """
    lines = stdout.splitlines(keepends=True)
    total = len(cmd.ref_lines)
    if rc != 0 or len(lines) > total:
        return total
    ok = sum(_line_ok(cmd, g, r) for g, r in zip(lines, cmd.ref_lines))
    return total - ok


def setup_ok(cmd: Command, stdout: bytes, rc: int) -> bool:
    marker = {"truncated": True, "completed": 0, "total": len(cmd.ref_lines)}
    return rc == 3 and stdout == (
        json.dumps(marker, separators=(",", ":")).encode() + b"\n"
    )


# -- closed-form work size ----------------------------------------------


def _point_count(parts: tuple[int, ...], n: int) -> int:
    return math.prod(math.comb(n + p, p) for p in parts)


def _multinomial(parts: tuple[int, ...]) -> int:
    return math.factorial(sum(parts)) // math.prod(
        math.factorial(p) for p in parts
    )


def _chain_count(parts: tuple[int, ...]) -> int:
    """All ordered multiset partitions, summed over the ordered Stirling row."""
    d = sum(parts)
    return sum(
        (-1) ** (k - 1 - h) * math.comb(k, h + 1) * _point_count(parts, h)
        for k in range(1, d + 1)
        for h in range(k)
    )


def covered_objects(identity: str, parts: tuple[int, ...], n_max: int) -> int:
    """Points, words and chains one check covers, counted the way the
    checker visits them: once if its enumeration does not depend on the
    dilation level n, else once per level."""
    levels = range(n_max + 1)
    words, chains = _multinomial(parts), _chain_count(parts)
    if identity in ("worpitzky", "carlitz_q"):
        return words
    if identity in ("stirling2", "stirling2_q"):
        return chains
    if identity == "lah_q":
        # every word with every cut into contiguous segments
        return words * 2 ** (sum(parts) - 1)
    if identity == "chain_q_corrected":
        return chains * len(levels)
    if identity == "decomp_first":
        return sum(_point_count(parts, n) + words for n in levels)
    if identity == "decomp_second":
        return sum(_point_count(parts, n) + chains for n in levels)
    return 0  # lah: closed forms only


def _compositions(d_max: int):
    for d in range(1, d_max + 1):
        for cuts in product((0, 1), repeat=d - 1):
            parts, size = [], 1
            for cut in cuts:
                if cut:
                    parts.append(size)
                    size = 1
                else:
                    size += 1
            yield tuple(parts + [size])


def workload_objects(wl: Workload) -> int:
    shapes = wl.shapes or tuple(_compositions(wl.d_max))
    return sum(
        covered_objects(i, s, wl.n_max) for i in wl.identities for s in shapes
    )


# -- subprocess sampling -------------------------------------------------


@dataclass(frozen=True)
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    stdout: bytes


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: tuple[str, ...], deadline: float, src: Path = SRC) -> Proc:
    """Run the CLI from ``src`` once and measure it from launch to exit.

    A run still going at ``deadline`` (a ``time.monotonic`` value) is
    killed with its pool workers, so the benchmark always ends in time.
    """
    # a fixed hash seed removes one source of run-to-run variance
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    env.pop("MULTISET_EULERIAN_WORKERS", None)
    # users run with bytecode caches, which the untimed warm-up writes
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    with tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "multiset_eulerian", *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            cwd=ROOT,
            env=env,
            start_new_session=True,
        )
        watchdog = threading.Timer(
            max(0.0, deadline - time.monotonic()), _kill_group, (proc.pid,)
        )
        watchdog.daemon = True
        watchdog.start()
        stdout = proc.stdout.read()
        proc.stdout.close()
        # wait4 reports the child together with the pool workers it reaped
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode not in (0, 3):
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace")[-2000:])
    return Proc(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        proc.returncode,
        stdout,
    )


def _summary(name: str, values: list[float], unit: str) -> str:
    return (
        f"{name:40s} median {statistics.median(values):.6g} {unit}"
        f"  min {min(values):.6g}  max {max(values):.6g}  n={len(values)}"
    )


def paired(argv: tuple[str, ...], deadline: float, pinned_first: bool):
    """Run ``argv`` on the program and on the pinned copy, back to back."""
    if pinned_first:
        pinned = spawn(argv, deadline, PINNED)
        return spawn(argv, deadline), pinned
    program = spawn(argv, deadline)
    return program, spawn(argv, deadline, PINNED)


def end_to_end(
    wl: Workload, cmds: list[Command], seconds: float, deadline: float, record: dict
):
    """Closed loop of rounds: a round runs every command once as a pair,
    then its set-up as ``SETUP_PAIRS_PER_ROUND`` pairs."""
    keys = [c.key for c in cmds]
    times = {
        side: {m: {k: [] for k in keys} for m in ("verdict_s", "setup_s", "cpu_s")}
        for side in ("program", "pinned")
    }
    prog, pin = times["program"], times["pinned"]
    rsss: list[float] = []
    attempted = failed = setup_failures = pinned_failures = 0
    for cmd in cmds:  # untimed warm-up
        paired(cmd.setup_argv(), deadline, False)
    start = time.perf_counter()
    rounds: list[float] = []
    while True:
        round_start = time.perf_counter()
        pinned_first = len(rounds) % 2 == 1
        rss = 0.0
        for cmd in cmds:
            p, b = paired(cmd.argv, deadline, pinned_first)
            attempted += len(cmd.ref_lines)
            failed += failed_jobs(cmd, p.stdout, p.rc)
            pinned_failures += failed_jobs(cmd, b.stdout, b.rc)
            for side, run in ((prog, p), (pin, b)):
                side["verdict_s"][cmd.key].append(run.wall_s)
                side["cpu_s"][cmd.key].append(run.cpu_s)
            rss = max(rss, p.rss_mb)
            record["report_sha256"].setdefault(
                cmd.key, hashlib.sha256(p.stdout).hexdigest()
            )
            for _ in range(SETUP_PAIRS_PER_ROUND):
                p, b = paired(cmd.setup_argv(), deadline, pinned_first)
                setup_failures += not setup_ok(cmd, p.stdout, p.rc)
                pinned_failures += not setup_ok(cmd, b.stdout, b.rc)
                prog["setup_s"][cmd.key].append(p.wall_s)
                pin["setup_s"][cmd.key].append(b.wall_s)
        rsss.append(rss)
        rounds.append(time.perf_counter() - round_start)
        # stop once the next round would end more than half a round late
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(rounds) / 2 >= seconds:
            break

    record["samples"] = {**times, "peak_rss_mb": rsss}
    scaled = {}
    for i, m in enumerate(("verdict_s", "setup_s", "cpu_s")):
        scaled[m] = 0.0
        for k in keys:
            ratios = [a / b for a, b in zip(prog[m][k], pin[m][k])]
            scaled[m] += REFERENCE_S[k][i] * statistics.median(ratios)
            print(_summary(f"{k} {m}", prog[m][k], "s"))
            print(_summary(f"{k} {m} pinned", pin[m][k], "s"))
            print(_summary(f"{k} {m} ratio", ratios, ""))
    verdict, setup = scaled["verdict_s"], scaled["setup_s"]
    objects = workload_objects(wl)
    print(_summary("peak_rss_mb", rsss, "MB"))
    print(f"{len(rounds)} rounds; {objects} objects")
    print(f"failed_share {failed / attempted:.6g}  ({failed} of {attempted}"
          f" jobs; {setup_failures} bad set-up runs;"
          f" {pinned_failures} bad pinned-copy jobs)")
    metrics = {
        "verdict_s": (verdict, "s"),
        "setup_s": (setup, "s"),
        "cpu_s": (scaled["cpu_s"], "s"),
        "objects_per_s": (objects / (verdict - setup), "1/s"),
        "peak_rss_mb": (statistics.median(rsss), "MB"),
    }
    return metrics, attempted, failed, setup_failures + pinned_failures == 0


# -- run record -----------------------------------------------------------


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "multiset_eulerian" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload]
    cmds = commands(wl, args.seed)
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "commands": [" ".join(c.argv) for c in cmds],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _git_commit(),
        "loadavg_1m_start": os.getloadavg()[0],
        "report_sha256": {},
    }
    if args.trace:
        import tracing

        metrics, attempted, failed, record["report_sha256"] = tracing.run(
            cmds, wl.workers, failed_jobs, OUT / wl.name
        )
        for name, (value, unit) in metrics.items():
            print(f"{name:40s} {value:.6g} {unit}")
        setup_ok_all = True
    else:
        metrics, attempted, failed, setup_ok_all = end_to_end(
            wl, cmds, args.seconds, deadline, record
        )
    record["loadavg_1m_end"] = os.getloadavg()[0]
    record_text = json.dumps(record, sort_keys=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        record_text + "\n"
    )
    print(record_text)
    print(
        json.dumps(
            {
                "correct": failed == 0 and setup_ok_all,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
