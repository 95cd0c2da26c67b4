import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import multiset_eulerian
from multiset_eulerian import verify
from multiset_eulerian.cli import main
from multiset_eulerian.combinatorics import Shape


DATA = Path(__file__).parent / "data" / "cli"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _import_check(tmp_path, *argv):
    """Run `verify *argv --workers 1` in a fresh interpreter.  Its stdout
    says whether `multiprocessing` was loaded after importing the CLI and
    after the run, with the exit code in between."""
    script = (
        "import sys\n"
        "from multiset_eulerian import cli\n"
        "print('multiprocessing' in sys.modules)\n"
        "code = cli.main(['verify', *sys.argv[2:], '--workers', '1',\n"
        "                 '--output', sys.argv[1]])\n"
        "print(code, 'multiprocessing' in sys.modules)\n"
    )
    src = Path(multiset_eulerian.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out.jsonl"), *argv],
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
        "shape, identity", [("2000", "carlitz_q"), ("1200", "decomp_first")]
    )
    def test_shape_deeper_than_recursion_limit(self, capsys, shape, identity):
        # both need q_binomial(n + d, d) with d above the recursion limit
        code, out, _ = run_cli(
            capsys,
            "verify", "--shape", shape, "--nmax", "1", "--identity", identity,
        )
        assert code == 0
        (line,) = out.splitlines()
        assert json.loads(line)["status"] == "pass"

    def test_serial_run_does_not_import_multiprocessing(self, tmp_path):
        done = _import_check(tmp_path, "--dmax", "2", "--nmax", "2", "--q")
        assert done.stdout == "False\n0 False\n", done.stderr

    def test_zero_time_limit_does_not_import_multiprocessing(self, tmp_path):
        # a spent budget truncates before a timed run would start a worker
        argv = ("--dmax", "2", "--nmax", "2", "--q", "--time-limit", "0")
        done = _import_check(tmp_path, *argv)
        assert done.stdout == "False\n3 False\n", done.stderr

    def test_time_limit_truncates(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--dmax", "2", "--time-limit", "0"
        )
        assert code == 3
        lines = out.splitlines()
        marker = json.loads(lines[-1])
        assert marker == {"truncated": True, "completed": 0, "total": 15}

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
        ],
    )
    def test_bad_range_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

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


class TestParser:
    def test_no_command(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_missing_required_argument(self, capsys):
        assert run_cli(capsys, "table", "--kind", "lah")[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
