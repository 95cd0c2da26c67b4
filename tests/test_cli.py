import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import multiset_eulerian
from multiset_eulerian import verify
from multiset_eulerian.cli import main
from multiset_eulerian.combinatorics import Shape


DATA = Path(__file__).parent / "data" / "cli"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class PairError(Exception):
    """Pickles by its args, one message, but its __init__ takes two
    arguments, so it cannot be rebuilt from its pickle."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def _pair_error(shape, n_max):
    raise PairError(1, 2)


def _lambda_error(shape, n_max):
    raise ValueError(lambda: None)  # a lambda cannot be pickled


# a device on which every write fails with ENOSPC
needs_dev_full = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="needs /dev/full"
)
_FULL_DEVICE = [
    pytest.param(
        ("verify", "--shape", "2,1", "--nmax", "1", "--identity", "decomp_first"),
        id="verify",
    ),
    pytest.param(
        ("verify", "--dmax", "3", "--nmax", "2", "--workers", "2"),
        id="verify-workers-2",
    ),
    pytest.param(("table", "--shape", "2,1", "--kind", "lah"), id="table"),
    pytest.param(("qtable", "--shape", "2,1", "--kind", "C"), id="qtable"),
    pytest.param(
        ("classify", "--shape", "2,1", "--n", "2", "--point", "2,1;1"),
        id="classify",
    ),
]


def _run_fresh(argv, stdout):
    """Run the CLI in a fresh interpreter whose real standard output is
    `stdout`; return its exit code and stderr lines, the last of which
    counts the workers still alive after `main`.  Standard output is
    block-buffered, as it is for a user, so the interpreter's own flush
    at exit is exercised too."""
    script = (
        "import multiprocessing, sys\n"
        "from multiset_eulerian import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "children = len(multiprocessing.active_children())\n"
        "print('children:', children, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    src = Path(multiset_eulerian.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run(
        [sys.executable, "-c", script, *argv],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        timeout=60,
    )
    return done.returncode, done.stderr.splitlines()


def _import_check(tmp_path, *argv, modules=("multiprocessing",)):
    """Run `verify *argv --workers 1` in a fresh interpreter.  Its stdout
    lists which of `modules` were loaded after importing the CLI and after
    the run, with the exit code in between."""
    script = (
        "import sys\n"
        "modules = sys.argv[2].split(',')\n"
        "from multiset_eulerian import cli\n"
        "print([m for m in modules if m in sys.modules])\n"
        "code = cli.main(['verify', *sys.argv[3:], '--workers', '1',\n"
        "                 '--output', sys.argv[1]])\n"
        "print(code, [m for m in modules if m in sys.modules])\n"
    )
    src = Path(multiset_eulerian.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = str(tmp_path / "out.jsonl")
    return subprocess.run(
        [sys.executable, "-c", script, out, ",".join(modules), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestTable:
    def test_eulerian_json(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--shape", "1,1,1", "--kind", "eulerian"
        )
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc == {
            "shape": [1, 1, 1],
            "kind": "eulerian",
            "rows": [
                {"index": 0, "value": "1"},
                {"index": 1, "value": "4"},
                {"index": 2, "value": "1"},
            ],
        }
        assert out.endswith("\n")

    def test_lah_json(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--shape", "2,1", "--kind", "lah")
        doc = json.loads(out)
        assert [r["value"] for r in doc["rows"]] == ["3", "6", "3"]
        assert [r["index"] for r in doc["rows"]] == [1, 2, 3]

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "row.json"
        code, out, _ = run_cli(
            capsys,
            "table",
            "--shape",
            "2,2",
            "--kind",
            "eulerian",
            "--output",
            str(target),
        )
        assert code == 0 and out == ""
        doc = json.loads(target.read_text())
        assert [r["value"] for r in doc["rows"]] == ["1", "4", "1", "0"]

    def test_zero_parts_warn(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--shape", "2,0,1", "--kind", "eulerian"
        )
        assert code == 0
        assert "warning: dropping zero parts" in err
        assert json.loads(out)["shape"] == [2, 1]

    def test_empty_shape_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "table", "--shape", "0", "--kind", "lah")
        assert code == 2
        assert err.splitlines()[-1].startswith("error:")

    def test_malformed_shape(self, capsys):
        code, _, err = run_cli(capsys, "table", "--shape", "2,x", "--kind", "lah")
        assert code == 2
        assert "malformed shape" in err

    def test_negative_part(self, capsys):
        code, _, err = run_cli(capsys, "table", "--shape=-1,2", "--kind", "lah")
        assert code == 2
        assert "shape parts must be nonnegative: '-1,2'" in err


class TestQTable:
    def test_a_family_json(self, capsys):
        code, out, _ = run_cli(capsys, "qtable", "--shape", "1,1", "--kind", "A")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "A"
        assert [r["coefficients"] for r in doc["rows"]] == [["0", "1"], ["1"]]
        assert [r["at_q1"] for r in doc["rows"]] == ["1", "1"]

    def test_c_family_json(self, capsys):
        code, out, _ = run_cli(capsys, "qtable", "--shape", "2,1", "--kind", "C")
        doc = json.loads(out)
        assert [r["coefficients"] for r in doc["rows"]] == [
            ["3"],
            ["0", "3", "3"],
            ["0", "0", "0", "3"],
        ]
        assert [r["at_q1"] for r in doc["rows"]] == ["3", "6", "3"]


# (file under tests/data/cli holding the exact output, argv)
_PINNED = [
    *(
        (
            f"{cmd}-{kind}-2-1.{fmt}",
            (cmd, "--shape", "2,1", "--kind", kind, "--format", fmt),
        )
        for cmd, kinds in (
            ("table", ("eulerian", "stirling2", "lah")),
            ("qtable", ("A", "B", "C")),
        )
        for kind in kinds
        for fmt in ("json", "csv")
    ),
    (
        "qtable-B-1-1.csv",
        ("qtable", "--shape", "1,1", "--kind", "B", "--format", "csv"),
    ),
    # the README example
    (
        "classify-2-1.json",
        ("classify", "--shape", "2,1", "--n", "2", "--point", "2,1;1"),
    ),
    # 13 levels of both oracles, each level adding its new points to the
    # running fiber table
    (
        "verify-decomp-2-1-1.jsonl",
        (
            "verify",
            "--identity",
            "decomp_first,decomp_second",
            "--shape",
            "2,1,1",
            "--nmax",
            "12",
            "--workers",
            "1",
        ),
    ),
]


class TestOutputBytes:
    @pytest.mark.parametrize(
        "name, argv", _PINNED, ids=[name for name, _ in _PINNED]
    )
    def test_exact_bytes(self, capsys, name, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.encode() == (DATA / name).read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ("table", "--shape", "2,1", "--kind", "lah"),
            ("qtable", "--shape", "2,1", "--kind", "A"),
            ("verify", "--dmax", "1", "--nmax", "0"),
            ("classify", "--shape", "2,1", "--n", "2", "--point", "2,1;1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, argv):
        # a missing directory, then a directory in place of the file
        for target in (tmp_path / "missing" / "out", tmp_path):
            code, out, err = run_cli(capsys, *argv, "--output", str(target))
            assert (code, out) == (2, "")
            assert err.startswith("error:") and "Traceback" not in err

    @needs_dev_full
    @pytest.mark.parametrize("argv", _FULL_DEVICE)
    def test_full_output_file_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--output", "/dev/full")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot write output: ")
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert multiprocessing.active_children() == []

    @needs_dev_full
    @pytest.mark.parametrize("argv", _FULL_DEVICE)
    def test_full_stdout_is_usage_error(self, argv):
        with open("/dev/full", "w") as full:
            code, lines = _run_fresh(argv, full)
        assert code == 2, lines
        assert lines[0].startswith("error: cannot write output: ")
        assert lines[1:] == ["children: 0"], lines

    @pytest.mark.parametrize("argv", _FULL_DEVICE)
    def test_broken_stdout_pipe_exits_0(self, argv):
        # the reading end is closed first, so every write fails with EPIPE
        read, write = os.pipe()
        os.close(read)
        try:
            code, lines = _run_fresh(argv, write)
        finally:
            os.close(write)
        assert (code, lines) == (0, ["children: 0"])


class TestClassify:
    def test_example(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "classify",
            "--shape",
            "2,1",
            "--n",
            "2",
            "--point",
            "2,1;1",
        )
        assert code == 0
        assert json.loads(out) == {
            "sigma": "112",
            "descents": [],
            "maj": 0,
            "chain": "0,0;1,0;2,1",
            "block_sizes": [1, 2],
            "k": 2,
        }

    def test_single_letter(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--shape", "2", "--n", "1", "--point", "1,0"
        )
        doc = json.loads(out)
        assert doc["sigma"] == "11"
        assert doc["k"] == 2
        assert doc["block_sizes"] == [1, 1]

    def test_descent_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "classify", "--shape", "1,1", "--n", "3", "--point", "1;3"
        )
        doc = json.loads(out)
        assert doc["sigma"] == "21"
        assert doc["descents"] == [1]
        assert doc["maj"] == 1

    def test_invalid_point(self, capsys):
        code, _, err = run_cli(
            capsys, "classify", "--shape", "2,1", "--n", "1", "--point", "1,2;0"
        )
        assert code == 2
        assert "error:" in err

    def test_out_of_bounds_point(self, capsys):
        code, _, _ = run_cli(
            capsys, "classify", "--shape", "2,1", "--n", "1", "--point", "2,1;1"
        )
        assert code == 2

    def test_negative_n(self, capsys):
        code, _, _ = run_cli(
            capsys, "classify", "--shape", "1", "--n", "-1", "--point", "0"
        )
        assert code == 2


class TestVerify:
    def test_single_identity_single_shape(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--identity",
            "worpitzky",
            "--shape",
            "2,1",
            "--nmax",
            "10",
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        doc = json.loads(lines[0])
        assert doc["identity"] == "worpitzky"
        assert doc["status"] == "pass"
        assert len(doc["results"]) == 11

    def test_expected_failures_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--dmax", "2", "--nmax", "3", "--q"
        )
        assert code == 0
        docs = [json.loads(line) for line in out.splitlines()]
        assert len(docs) == 27
        failing = {(d["identity"], tuple(d["shape"])) for d in docs if d["status"] == "fail"}
        assert failing == {
            ("stirling2_q", (2,)),
            ("stirling2_q", (1, 1)),
            ("lah_q", (2,)),
            ("lah_q", (1, 1)),
        }
        assert all(not d["expected"] for d in docs if d["status"] == "fail")

    def test_counterexample_surfaces(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--identity",
            "stirling2_q",
            "--shape",
            "1,1",
            "--nmax",
            "2",
        )
        assert code == 0
        doc = json.loads(out.splitlines()[0])
        assert doc["counterexample"] == {
            "n": 1,
            "lhs": ["1", "2", "1"],
            "rhs": ["1", "3"],
        }

    def test_output_matches_stdout(self, capsys, tmp_path):
        target = tmp_path / "reports.jsonl"
        code, out, _ = run_cli(
            capsys, "verify", "--dmax", "2", "--nmax", "2"
        )
        code2, out2, _ = run_cli(
            capsys,
            "verify",
            "--dmax",
            "2",
            "--nmax",
            "2",
            "--output",
            str(target),
        )
        assert code == code2 == 0
        assert out2 == ""
        assert target.read_text() == out

    def test_workers_byte_identical(self, capsys, tmp_path):
        one = tmp_path / "one.jsonl"
        two = tmp_path / "two.jsonl"
        code1, _, _ = run_cli(
            capsys,
            "verify", "--dmax", "2", "--nmax", "3", "--q",
            "--workers", "1", "--output", str(one),
        )
        code2, _, _ = run_cli(
            capsys,
            "verify", "--dmax", "2", "--nmax", "3", "--q",
            "--workers", "2", "--output", str(two),
        )
        assert code1 == code2 == 0
        assert one.read_bytes() == two.read_bytes()

    @pytest.mark.parametrize(
        "shape, identity",
        [
            ("2000", "carlitz_q"),
            ("1200", "decomp_first"),
            ("1200", "worpitzky"),
            ("1200", "decomp_second"),
        ],
    )
    def test_shape_deeper_than_recursion_limit(self, capsys, shape, identity):
        # d is above the recursion limit; carlitz_q and decomp_first also
        # need q_binomial(n + d, d)
        code, out, _ = run_cli(
            capsys,
            "verify", "--shape", shape, "--nmax", "1", "--identity", identity,
        )
        assert code == 0
        (line,) = out.splitlines()
        assert json.loads(line)["status"] == "pass"

    def test_serial_run_does_not_import_multiprocessing(self, tmp_path):
        done = _import_check(tmp_path, "--dmax", "2", "--nmax", "2", "--q")
        assert done.stdout == "[]\n0 []\n", done.stderr

    def test_zero_time_limit_does_not_import_multiprocessing(self, tmp_path):
        # a spent budget truncates before a timed run would start a worker
        argv = ("--dmax", "2", "--nmax", "2", "--q", "--time-limit", "0")
        done = _import_check(tmp_path, *argv)
        assert done.stdout == "[]\n3 []\n", done.stderr

    def test_start_up_loads_no_unneeded_module(self, tmp_path):
        # the set-up command of a benchmark run: the record types are named
        # tuples, not dataclasses (which import inspect), and csv is loaded
        # only for a --format csv row
        argv = ("--dmax", "2", "--nmax", "2", "--q", "--time-limit", "0")
        modules = ("dataclasses", "inspect", "csv", "multiprocessing")
        done = _import_check(tmp_path, *argv, modules=modules)
        assert done.stdout == "[]\n3 []\n", done.stderr

    def test_time_limit_truncates(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--dmax", "2", "--time-limit", "0"
        )
        assert code == 3
        lines = out.splitlines()
        marker = json.loads(lines[-1])
        assert marker == {"truncated": True, "completed": 0, "total": 15}

    @pytest.mark.usefixtures("fork_workers")
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_crashed_job_exits_4(self, capsys, monkeypatch, workers):
        # the lah checker runs out of memory on shape 2; with two workers
        # the forked worker processes inherit the patched table
        lah = verify._CHECKERS[verify.IdentityId.LAH]

        def crash(shape, n_max):
            if shape == Shape((2,)):
                raise MemoryError
            return lah(shape, n_max)

        monkeypatch.setitem(verify._CHECKERS, verify.IdentityId.LAH, crash)
        code, out, err = run_cli(
            capsys,
            "verify", "--dmax", "2", "--nmax", "2",
            "--identity", "stirling2,lah", "--workers", workers,
        )
        assert code == 4
        lines = out.splitlines()
        reports = [json.loads(line) for line in lines[:-1]]
        assert [(r["identity"], r["shape"]) for r in reports] == [
            ("stirling2", [1]), ("stirling2", [2]), ("stirling2", [1, 1]),
            ("lah", [1]),
        ]
        assert all(r["status"] == "pass" for r in reports)
        assert lines[-1] == '{"error":"MemoryError","identity":"lah","shape":[2]}'
        assert "MemoryError" in err
        # a worker's traceback comes back as a note on its exception, which
        # tracebacks show from Python 3.11 on
        assert sys.version_info < (3, 11) or ", in crash\n" in err

    @pytest.mark.usefixtures("fork_workers")
    @pytest.mark.parametrize("opts", [("1", "--time-limit", "5"), ("2",)])
    @pytest.mark.parametrize(
        "checker, name", [(_pair_error, "PairError"), (_lambda_error, "ValueError")]
    )
    def test_exception_that_cannot_travel_lands_on_its_job(
        self, capsys, monkeypatch, opts, checker, name
    ):
        # the worker sends a stand-in named after the original type; the
        # passing stirling2 reports stream first, then the lah job's error
        monkeypatch.setitem(verify._CHECKERS, verify.IdentityId.LAH, checker)
        code, out, err = run_cli(
            capsys,
            "verify", "--dmax", "2", "--nmax", "1",
            "--identity", "stirling2,lah", "--workers", *opts,
        )
        assert code == 4
        lines = out.splitlines()
        reports = [json.loads(line) for line in lines[:-1]]
        assert [(r["identity"], r["shape"]) for r in reports] == [
            ("stirling2", [1]), ("stirling2", [2]), ("stirling2", [1, 1]),
        ]
        assert all(r["status"] == "pass" for r in reports)
        assert lines[-1] == f'{{"error":"{name}","identity":"lah","shape":[1]}}'
        assert f"JobError: {name}: " in err
        assert sys.version_info < (3, 11) or f", in {checker.__name__}\n" in err

    @pytest.mark.usefixtures("fork_workers")
    @pytest.mark.parametrize("opts", [("1", "--time-limit", "5"), ("2",)])
    def test_dead_worker_exits_4(self, capsys, monkeypatch, opts):
        # the lah worker dies on shape 2: a crash (exit 4), not a spent
        # budget (exit 3) or a hang, so the run goes on a daemon thread
        lah = verify._CHECKERS[verify.IdentityId.LAH]

        def dies(shape, n_max):
            if shape == Shape((2,)):
                os._exit(9)
            return lah(shape, n_max)

        monkeypatch.setitem(verify._CHECKERS, verify.IdentityId.LAH, dies)
        argv = ["verify", "--dmax", "2", "--nmax", "2", "--identity", "lah"]
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(main([*argv, "--workers", *opts])),
            daemon=True,
        )
        thread.start()
        thread.join(10)
        assert not thread.is_alive(), "verify hung on a dead worker"
        captured = capsys.readouterr()
        assert codes == [4]
        lines = captured.out.splitlines()
        assert json.loads(lines[0])["shape"] == [1]
        assert lines[-1] == '{"error":"ChildProcessError","identity":"lah","shape":[2]}'
        assert any(
            line.startswith("ChildProcessError: ") and "exitcode=9" in line
            for line in captured.err.splitlines()
        )

    @pytest.mark.parametrize("limit", ["inf", "1e300"])
    def test_time_limit_beyond_timeout_max(self, capsys, limit):
        # a budget longer than any wait can express (poll() takes at most
        # 2**31 - 1 ms) gives the untimed stream; the timed run starts one
        # worker process and waits for it in steps
        argv = ("verify", "--dmax", "1", "--nmax", "0", "--workers", "1")
        untimed = run_cli(capsys, *argv)
        assert untimed[0] == 0
        assert run_cli(capsys, *argv, "--time-limit", limit) == untimed

    @pytest.mark.parametrize("limit", ["-5", "nan"])
    def test_bad_time_limit_is_usage_error(self, capsys, limit):
        code, out, err = run_cli(
            capsys, "verify", "--dmax", "2", "--time-limit", limit
        )
        assert code == 2
        assert out == ""
        assert "time_limit" in err

    def test_missing_scope(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
        assert "need --dmax or --shape" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--shape", "1,1", "--nmax", "-1"),
            ("--dmax", "0"),
            ("--dmax", "-3"),
            ("--dmax", "3", "--lmax", "0"),
            # selections that would check nothing, or a shape with d = 0
            ("--dmax", "2", "--identity", ","),
            ("--dmax", "2", "--identity", ""),
            ("--dmax", "2", "--shape", ""),
            ("--shape", "0"),
            # a --shape outside --lmax or --dmax leaves nothing to check
            ("--shape", "2,1", "--lmax", "1", "--nmax", "1", "--identity", "lah"),
            ("--dmax", "2", "--shape", "3", "--nmax", "0", "--identity", "lah"),
        ],
    )
    def test_bad_range_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_shape_inside_the_range_runs(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--dmax",
            "6",
            "--lmax",
            "2",
            "--shape",
            "2,1",
            "--nmax",
            "1",
            "--identity",
            "lah",
        )
        assert code == 0
        assert [json.loads(line)["shape"] for line in out.splitlines()] == [[2, 1]]

    def test_unknown_identity(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--dmax", "1", "--identity", "nope"
        )
        assert code == 2
        assert "unknown identity" in err
        assert "worpitzky" in err

    def test_bad_workers(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--dmax", "1", "--workers", "0"
        )
        assert code == 2
        assert "--workers" in err

    def test_workers_env_is_not_read(self, capsys, monkeypatch):
        # --workers, default 1, is the one way to choose the worker count
        monkeypatch.delenv("MULTISET_EULERIAN_WORKERS", raising=False)
        plain = run_cli(capsys, "verify", "--dmax", "1")
        monkeypatch.setenv("MULTISET_EULERIAN_WORKERS", "0")
        assert run_cli(capsys, "verify", "--dmax", "1") == plain
        assert plain[0] == 0

    def test_repeated_identity_runs_once(self, capsys):
        argv = ("verify", "--dmax", "2", "--nmax", "1")
        once = run_cli(capsys, *argv, "--identity", "lah")
        assert once[0] == 0 and len(once[1].splitlines()) == 3
        assert run_cli(capsys, *argv, "--identity", "lah, lah,lah") == once

    def test_identity_list_filter(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--dmax",
            "2",
            "--nmax",
            "2",
            "--identity",
            "lah, worpitzky",
        )
        assert code == 0
        names = [json.loads(line)["identity"] for line in out.splitlines()]
        assert names == ["worpitzky"] * 3 + ["lah"] * 3


@pytest.mark.parametrize(
    "argv",
    [
        # int() would serve these as shape 10, one worker and point (3, 2)
        ("table", "--shape", "1_0", "--kind", "lah"),
        ("verify", "--dmax", "1", "--workers", "\u0661"),
        ("classify", "--shape", "2", "--n", "3", "--point", "3,,2"),
        # int() and float() would serve these as d <= 10, at most one
        # part, n <= 1, n = 10 and a 10 s or 0 s budget; a run that is
        # served anyway ends at once
        ("verify", "--dmax", "1_0", "--time-limit", "0"),
        ("verify", "--dmax", "2", "--lmax", "+1", "--time-limit", "0"),
        ("verify", "--dmax", "2", "--nmax", "\u0661", "--time-limit", "0"),
        ("classify", "--shape", "2", "--n", "1_0", "--point", "3,2"),
        ("verify", "--dmax", "1", "--nmax", "0", "--time-limit", "1_0"),
        ("verify", "--dmax", "1", "--nmax", "0", "--time-limit", "\u0660"),
        # an empty identity name is an unknown one, as an empty integer
        # token is malformed
        ("verify", "--dmax", "2", "--identity", "lah,,lah", "--time-limit", "0"),
    ],
    ids=[
        "shape", "workers", "point", "dmax", "lmax", "nmax", "n",
        "time-limit", "time-limit-digit", "identity",
    ],
)
def test_integer_tokens_are_ascii_decimal(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")


_VERIFY = "verify --dmax 2"
_DECIMAL = "must be an ASCII decimal integer"


class TestParser:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_missing_required_argument(self, capsys):
        assert run_cli(capsys, "table", "--kind", "lah")[0] == 2

    def test_help_exits_zero(self, capsys):
        code, out, err = run_cli(capsys, "--help")
        assert code == 0 and out.startswith("usage:") and err == ""

    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("table", "--kind", "lah"),
            ("verify", "--dmax", "x"),
            ("qtable", "--shape", "2,1", "--kind", "D"),
            ("classify", "--shape", "2", "--n", "1", "--point", "1,0", "--bogus"),
            # argparse quotes an unrecognized argument as typed
            ("table", "--shape", "2,1", "--kind", "lah", "a\nb"),
            # a shape's zero parts are not warned of before a usage error
            ("verify", "--shape", "1,0", "--nmax", "-1"),
            ("classify", "--shape", "2,0", "--n", "1", "--point", "3,1"),
            # an option is spelled in full, never abbreviated to a prefix
            ("verify", "--dmax", "2", "--nmax", "1", "--identity", "lah", "--sha", "2"),
            ("verify", "--dm", "2", "--nmax", "0", "--identity", "lah"),
            ("table", "--sh", "2,1", "--kind", "lah"),
        ],
        ids=[
            "no-command", "missing", "type", "choice", "unknown", "newline",
            "zero-part-verify", "zero-part-classify", "prefix-shape",
            "prefix-dmax", "prefix-table",
        ],
    )
    def test_usage_error_is_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "usage:" not in err

    @pytest.mark.parametrize(
        "command, option, token, rule",
        [
            (_VERIFY, "--workers", "0", "must be a positive integer"),
            (_VERIFY, "--workers", "x", "must be a positive integer"),
            (_VERIFY, "--time-limit", "1_0", "must be ASCII seconds with no '_'"),
            (_VERIFY, "--time-limit", "abc", "must be ASCII seconds with no '_'"),
            ("verify", "--dmax", "x", _DECIMAL),
            (_VERIFY, "--lmax", "+1", _DECIMAL),
            (_VERIFY, "--nmax", "\u0661", _DECIMAL),
            ("classify --shape 2 --point 1", "--n", "1_0", _DECIMAL),
        ],
        ids=[
            "workers-0", "workers-x", "time-limit-_", "time-limit-abc",
            "dmax-x", "lmax-plus", "nmax-arabic-indic", "classify-n-_",
        ],
    )
    def test_type_error_states_the_rule(self, capsys, command, option, token, rule):
        # the line names the option and its rule, not a private type function
        code, out, err = run_cli(capsys, *command.split(), option, token)
        assert (code, out) == (2, "")
        assert err == f"error: argument {option}: {rule}, got {token!r}\n"


# Tokens that may be rejected: integer tokens that parse_int rejects, and
# integers out of range for some options.
_JUNK = ["1_0", "+1", "\u0661", "", " ", "x", "1.0", "a\nb", "-1", "0"]


def _mostly(valid, junk=_JUNK):
    """A token from `valid` nine times in ten, else one from `junk`."""
    return st.sampled_from([True] * 9 + [False]).flatmap(
        lambda ok: valid if ok else st.sampled_from(junk)
    )


def _ints(lo, hi):
    return _mostly(st.integers(lo, hi).map(str))


def _size(tokens):
    return sum(int(t) for t in tokens if t.strip().isdigit())


# A served --shape has d <= 5, a --dmax is at most 6, and every verify run
# has a --time-limit of 0 or one that is rejected, so no example computes
# much.
_SHAPES = (
    st.lists(_ints(0, 3), min_size=1, max_size=3)
    .filter(lambda tokens: _size(tokens) <= 5)
    .map(",".join)
)
_POINTS = st.lists(
    st.lists(_ints(0, 2), max_size=3).map(",".join), min_size=1, max_size=3
).map(";".join)
_FORMATS = _mostly(st.sampled_from(["json", "csv"]), junk=["xml"])
_OPTIONS = {
    "table": {
        "--shape": _SHAPES,
        "--kind": _mostly(
            st.sampled_from(["eulerian", "stirling2", "lah"]), junk=["A"]
        ),
        "--format": _FORMATS,
    },
    "qtable": {
        "--shape": _SHAPES,
        "--kind": _mostly(st.sampled_from(["A", "B", "C"]), junk=["lah"]),
        "--format": _FORMATS,
    },
    "verify": {
        "--shape": _SHAPES,
        "--dmax": _ints(1, 6),
        "--lmax": _ints(1, 3),
        "--nmax": _ints(0, 3),
        "--identity": _mostly(
            st.sampled_from(["lah", "lah,lah", " lah, worpitzky", "lah_q"]),
            junk=["", ",", "lah,,lah", "x"],
        ),
        "--workers": _ints(1, 3),
        "--q": st.none(),
        "--time-limit": _mostly(
            st.sampled_from(["0", "-0", " 0 ", "0e9"]),
            junk=["-5", "nan", "1_0", "\u0660", "0x0"],
        ),
    },
    "classify": {"--shape": _SHAPES, "--n": _ints(0, 3), "--point": _POINTS},
}


@st.composite
def _argv(draw):
    """A command, each of its options in any order, each left out one
    time in eight (a required one too), and at times a stray argument."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    argv = [command]
    for name in draw(st.permutations(sorted(options))):
        if name == "--time-limit" or draw(st.sampled_from([True] * 7 + [False])):
            value = draw(options[name])
            argv += [name] if value is None else [name, value]
    return argv + draw(st.sampled_from([[]] * 8 + [["--bogus"], ["a\nb"]]))


@settings(max_examples=300, deadline=None)
@given(_argv())
def test_every_input_is_served_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    elif argv[0] in ("table", "qtable"):
        # a served shape prints back in canonical form, without zero parts
        text = argv[argv.index("--shape") + 1]
        parts = [p for p in map(int, text.split(",")) if p > 0]
        if "csv" in argv:
            rows = list(csv.reader(out.splitlines()))[1:]
            assert {row[0] for row in rows} == {",".join(map(str, parts))}
        else:
            assert json.loads(out)["shape"] == parts
