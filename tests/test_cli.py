import hashlib
import json
import math
import os
import shlex
import signal
import subprocess
import sys
import time

import pytest

from tcasym import cli, exact, harness
from tcasym.mpnum import to_mpc, to_mpf

RUN = [sys.executable, "-m", "tcasym.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def subprocess_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, as
    the pytest ``pythonpath`` setting gives the test process itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_cli(args):
    return subprocess.run(RUN + args, capture_output=True, text=True, env=subprocess_env())


def run_main(capsys, args):
    """In-process invocation (fast path for most checks)."""
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


# stdout of `tcasym ortho --alpha 1 --max-deg 4 --kmax 20000`, recorded
# before the orthogonality loop moved to the fixed-point kernel
ORTHO_ALPHA1_DEG4_K20000 = (
    '{"alpha": 1.0, "max_deg": 4, "k_max": 20000, "all_pass": true, "entries": ['
    '{"m": 0, "n": 0, "value": 5.40589232381612, "tail_bound": 0.12269010342109937, "target": 5.43656365691809, "within_bound": true, "exact_zero": false}, '
    '{"m": 0, "n": 1, "value": 0.0, "tail_bound": 0.0, "target": 0.0, "within_bound": true, "exact_zero": true}, '
    '{"m": 0, "n": 2, "value": 0.015335155401004462, "tail_bound": 0.12269010342109937, "target": 0.0, "within_bound": true, "exact_zero": false}, '
    '{"m": 0, "n": 3, "value": 0.0, "tail_bound": 0.0, "target": 0.0, "within_bound": true, "exact_zero": true}, '
    '{"m": 0, "n": 4, "value": -0.0038333629072672243, "tail_bound": 0.12269010342109937, "target": 0.0, "within_bound": true, "exact_zero": false}, '
    '{"m": 1, "n": 0, "value": 0.0, "tail_bound": 0.0, "target": 0.0, "within_bound": true, "exact_zero": true}, '
    '{"m": 1, "n": 1, "value": 2.7182813173090645, "tail_bound": 6.1341984611319126e-06, "target": 2.718281828459045, "within_bound": true, "exact_zero": false}, '
    '{"m": 1, "n": 2, "value": 0.0, "tail_bound": 0.0, "target": 0.0, "within_bound": true, "exact_zero": true}, '
    '{"m": 1, "n": 3, "value": 4.2594298389100347e-07, "tail_bound": 6.1341984611319126e-06, "target": 0.0, "within_bound": true, "exact_zero": false}, '
    '{"m": 1, "n": 4, "value": 0.0, "tail_bound": 0.0, "target": 0.0, "within_bound": true, "exact_zero": true}, '
    '{"m": 2, "n": 0, "value": 0.015335155401004462, "tail_bound": 0.12269010342109937, "target": 0.0, "within_bound": true, "exact_zero": false}, '
    '{"m": 2, "n": 1, "value": 0.0, "tail_bound": 0.0, "target": 0.0, "within_bound": true, "exact_zero": true}, '
    '{"m": 2, "n": 2, "value": 0.8984266206788365, "tail_bound": 0.030672525855274843, "target": 0.9060939428196817, "within_bound": true, "exact_zero": false}, '
    '{"m": 2, "n": 3, "value": 0.0, "tail_bound": 0.0, "target": 0.0, "within_bound": true, "exact_zero": true}, '
    '{"m": 2, "n": 4, "value": 0.0019166175764966003, "tail_bound": 0.030672525855274843, "target": 0.0, "within_bound": true, "exact_zero": false}, '
    '{"m": 3, "n": 0, "value": 0.0, "tail_bound": 0.0, "target": 0.0, "within_bound": true, "exact_zero": true}, '
    '{"m": 3, "n": 1, "value": 4.2594298389100347e-07, "tail_bound": 6.1341984611319126e-06, "target": 0.0, "within_bound": true, "exact_zero": false}, '
    '{"m": 3, "n": 2, "value": 0.0, "tail_bound": 0.0, "target": 0.0, "within_bound": true, "exact_zero": true}, '
    '{"m": 3, "n": 3, "value": 0.2265231307652111, "tail_bound": 4.259348900139467e-06, "target": 0.22652348570492042, "within_bound": true, "exact_zero": false}, '
    '{"m": 3, "n": 4, "value": 0.0, "tail_bound": 0.0, "target": 0.0, "within_bound": true, "exact_zero": true}, '
    '{"m": 4, "n": 0, "value": -0.0038333629072672243, "tail_bound": 0.12269010342109937, "target": 0.0, "within_bound": true, "exact_zero": false}, '
    '{"m": 4, "n": 1, "value": 0.0, "tail_bound": 0.0, "target": 0.0, "within_bound": true, "exact_zero": true}, '
    '{"m": 4, "n": 2, "value": 0.0019166175764966003, "tail_bound": 0.030672525855274843, "target": 0.0, "within_bound": true, "exact_zero": false}, '
    '{"m": 4, "n": 3, "value": 0.0, "tail_bound": 0.0, "target": 0.0, "within_bound": true, "exact_zero": true}, '
    '{"m": 4, "n": 4, "value": 0.04482559597589137, "tail_bound": 0.0019170328659546777, "target": 0.04530469714098409, "within_bound": true, "exact_zero": false}]}\n'
)

# Each `compare` pin below is a pair of SHA-256: of the stdout without its
# log_asym_phase column (``_without_asym_phase``), recorded with the pin,
# and of the whole stdout, re-recorded when the asymptotic phase became
# principal.  The acceptance and high-degree pins were re-recorded when
# the band formula's two terms became mpc values summed as region C sums
# its brackets (B and origin rows: phases, and two log_asym_mod last bits).

# the seven-point acceptance `compare`, recorded when the origin disk
# moved to the band formula
ACCEPTANCE_Z_LIST = "1,2;1,0.05;2.05,0.02;4,0.05;0.05,0.05;-1,-2;1,-2"
ACCEPTANCE_CSV_SHA256 = ("9eb2c550f472ed43d515e671aad805f5a23d61e0bf2974e51075531a67c102ba",
                         "f2d780256c5b969102e0b1b7bea3e733c2d33ae616045dc4f58f1c850e46dc71")

# a region-C `compare`: a 4 x 3 grid around the turning point 2 at n = 400
# and 6400, recorded while h was a Taylor series; re-recorded when the grid
# points became the typed decimals rounded once to --prec (they were
# spaced at 64 bits), which moved the log columns of all 24 rows
REGION_C_GRID = "1.87:2.13:4,0:0.13:3"
REGION_C_CSV_SHA256 = ("38e2b57ac42011b18f15a20dcfa26a3ea001ae2f7a9b316abef6e9d547d435cf",
                       "68d696fb58bc43589e32bfcce8b004fbaa9ababba54ac2b1da84a625a6f0b394")

# a high-degree `compare`: eight points over all five regions at
# n = 1000..2500, where the exact path runs longest; recorded before the
# recurrence step moved to one complex product
HIGH_DEGREE_Z_LIST = "1,2;1,0.05;2.05,0.02;4,0.05;0.05,0.05;-1.3,-0.1;1.9,0.12;0.9,0"
HIGH_DEGREE_CSV_SHA256 = ("cea26eaec90cc36acf17b27656628abae44e3b3d45aa850577683924fb359f84",
                          "2091652b2a0be3a43fd6bb9335569fd7ed2ad2ba36de3fbb1e232f5cda796dac")


def _csv_digests(out):
    """(SHA-256 of ``out`` without its log_asym_phase column, SHA-256 of ``out``)."""
    i = cli.CSV_HEADER.split(",").index("log_asym_phase")
    rest = "".join(",".join(f for j, f in enumerate(line.split(",")) if j != i) + "\n" for line in out.splitlines())
    return hashlib.sha256(rest.encode()).hexdigest(), hashlib.sha256(out.encode()).hexdigest()

# SHA-256 of the stdout of two `ortho` runs: every sum and tail bound of
# the whole matrix, recorded before the real kernel moved to floor shifts
ORTHO_SHA256 = [
    (["--alpha", "1", "--max-deg", "4", "--kmax", "20000"],
     "38ee82593258b276eb433216723689a2469750cb9c6a634672cc999586438096"),
    (["--alpha", "2.3", "--max-deg", "7", "--kmax", "3000", "--prec", "192"],
     "3873c7a2aa3139d2ddbb1e7796caec575517520cb6690da567acd7267f175711"),
]

EVAL_KEYS = ["mode", "n", "alpha", "z_re", "z_im", "log_mod", "phase",
             "value_re", "value_im", "dropped_term_bound"]


class TestEval:
    def test_exact_matches_hand_recurrence(self, capsys):
        code, out = run_main(capsys, ["eval", "--mode", "exact", "--n", "5", "--alpha", "1",
                                      "--z", "0.5,0", "--rescaled", "false"])
        assert code == 0
        obj = json.loads(out)
        # f_5(1/2) = 1/60 by five hand recurrence steps
        assert abs(obj["value_re"] - 1 / 60) < 1e-15
        assert obj["value_im"] == 0.0
        assert list(obj) == EVAL_KEYS

    def test_degree_zero_is_one(self, capsys):
        code, out = run_main(capsys, ["eval", "--mode", "exact", "--n", "0", "--alpha", "2",
                                      "--z", "7,3", "--rescaled", "false"])
        obj = json.loads(out)
        assert code == 0 and obj["value_re"] == 1.0 and obj["value_im"] == 0.0

    def test_exact_rescaled_by_default(self, capsys):
        code, out = run_main(capsys, ["eval", "--mode", "exact", "--n", "50", "--alpha", "0.731",
                                      "--z", "1.2,0.3"])
        assert code == 0
        obj = json.loads(out)
        v = exact.eval_monic_rescaled(50, to_mpf("0.731", 256), to_mpc(("1.2", "0.3"), 256), 256)
        assert (obj["log_mod"], obj["phase"]) == (cli._fmt_full(v.log_mod, 256), cli._fmt_full(v.phase, 256))

    def test_asym_band_point_carries_flags(self, capsys):
        code, out = run_main(capsys, ["eval", "--mode", "asym", "--n", "200", "--alpha", "1",
                                      "--z", "0.9,0"])
        assert code == 0
        obj = json.loads(out)
        assert obj["region"] == "B" and obj["flags"] == "real-snapped"

    def test_asym_reports_region(self, capsys):
        code, out = run_main(capsys, ["eval", "--mode", "asym", "--n", "200", "--alpha", "1",
                                      "--z", "1,2"])
        obj = json.loads(out)
        assert code == 0 and obj["region"] == "A"
        assert "log_mod" in obj and "dropped_term_bound" in obj

    def test_exact_zero_exported_as_zero(self, capsys):
        # f_3 is odd, so f_3(0) = 0 exactly: log_mod -inf and a zero value,
        # not a missing field
        code, out = run_main(capsys, ["eval", "--mode", "exact", "--n", "3", "--alpha", "1",
                                      "--z", "0,0", "--rescaled", "false"])
        obj = json.loads(out)
        assert code == 0
        assert obj["log_mod"] == "-inf"
        assert obj["value_re"] == 0.0 and obj["value_im"] == 0.0

    def test_huge_value_has_no_floats(self, capsys):
        # log-scale output only once |log value| is beyond double range
        code, out = run_main(capsys, ["eval", "--mode", "exact", "--n", "1000", "--alpha", "1",
                                      "--z", "9,0", "--rescaled", "false"])
        obj = json.loads(out)
        assert code == 0
        assert "value_re" not in obj
        assert float(obj["log_mod"]) > 700


@pytest.fixture
def inline_map(monkeypatch):
    """The worker counts ``cli._forked_map`` is called with, from a stand-in
    that runs the tasks inline; os.fork fails, so no process is started."""
    sizes = []

    def inline(tasks, workers):
        sizes.append(workers)
        return [cli._compare_task(t) for t in tasks]

    def no_fork():
        raise AssertionError("os.fork called")

    monkeypatch.setattr(cli, "_forked_map", inline)
    monkeypatch.setattr(os, "fork", no_fork)
    return sizes


class TestCompare:
    def test_csv_shape_and_header(self, capsys):
        code, out = run_main(capsys, ["compare", "--n-list", "100,200,400", "--alpha", "1",
                                      "--z-list", "1,2;0.5,0.1;2.05,0.02;-1,-2",
                                      "--prec", "160"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == cli.CSV_HEADER
        assert len(lines) == 1 + 12  # 3 degrees x 4 points

    def test_parity_rows_equal_rel_err(self, capsys):
        code, out = run_main(capsys, ["compare", "--n-list", "100", "--alpha", "1",
                                      "--z-list", "1,2;-1,-2", "--prec", "160"])
        lines = out.strip().split("\n")
        r1 = lines[1].split(",")
        r2 = lines[2].split(",")
        assert r1[9] == r2[9] != ""

    def test_rerun_byte_identical(self, tmp_path):
        args = ["compare", "--n-list", "50,100", "--alpha", "1",
                "--grid", "0.4:1.6:3,0.05:0.3:2", "--prec", "128"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(p1)]).returncode == 0
        assert run_cli(args + ["--out", str(p2)]).returncode == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_threads_same_output(self, tmp_path):
        args = ["compare", "--n-list", "50", "--alpha", "1",
                "--z-list", "1,2;0.5,0.1;3,0.1;2.05,0.02;0.05,0.05", "--prec", "128"]
        p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert run_cli(args + ["--out", str(p1), "--threads", "1"]).returncode == 0
        assert run_cli(args + ["--out", str(p2), "--threads", "3"]).returncode == 0
        assert p1.read_bytes() == p2.read_bytes()
        rows = p1.read_text().strip().split("\n")[1:]
        assert {r.split(",")[4] for r in rows} == {"A", "B", "C", "D", "origin"}

    def test_threads_capped_at_task_count(self, capsys, monkeypatch, inline_map):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        args = ["compare", "--n-list", "50", "--alpha", "1", "--prec", "128"]
        two = args + ["--z-list", "1,2;0.5,0.1"]
        _, serial = run_main(capsys, two + ["--threads", "1"])
        code, out = run_main(capsys, two + ["--threads", "64"])
        assert code == 0 and out == serial and inline_map == [2]
        code, _ = run_main(capsys, args + ["--z-list", "1,2", "--threads", "64"])
        assert code == 0 and inline_map == [2]  # one task runs inline
        code, _ = run_main(capsys, args + ["--z-list", "1,2;0.5,0.1;3,0.1", "--threads", "2"])
        assert code == 0 and inline_map == [2, 2]

    def test_threads_capped_at_usable_cpus(self, capsys, monkeypatch, inline_map):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        args = ["compare", "--n-list", "50", "--alpha", "1", "--prec", "128", "--z-list",
                "1,2;0.5,0.1;3,0.1;2.05,0.02;0.05,0.05", "--threads"]
        _, serial = run_main(capsys, args + ["1"])
        code, out = run_main(capsys, args + ["10000"])
        assert code == 0 and out == serial and inline_map == [3]
        # without sched_getaffinity the cap is os.cpu_count(), 1 when unknown
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        code, out = run_main(capsys, args + ["10000"])
        assert code == 0 and out == serial and inline_map == [3, 4]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        code, out = run_main(capsys, args + ["10000"])
        assert code == 0 and out == serial and inline_map == [3, 4]

    def test_tasks_run_in_forked_children(self, capsys, monkeypatch):
        # the contract the traced CLI relies on: every task runs in a
        # worker, through the module's _compare_task, and the parent in none
        task = cli._compare_task
        monkeypatch.setattr(cli, "_compare_task", lambda t: [str(os.getpid())] + task(t))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        args = ["compare", "--n-list", "50", "--alpha", "1", "--prec", "128",
                "--z-list", "1,2;0.5,0.1;3,0.1;2.05,0.02;0.05,0.05"]
        code, out = run_main(capsys, args + ["--threads", "2"])
        pids = [line.split(",", 1)[0] for line in out.splitlines()[1:]]
        assert code == 0 and len(pids) == 5
        assert pids[0] == pids[2] == pids[4] != pids[1] == pids[3]  # stride split
        assert str(os.getpid()) not in pids
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("failing, ending, code", [
        (0, "raise", 1), (1, "raise", 1), (0, "signal", -9)])
    def test_failed_worker_is_named_and_all_reaped(self, capsys, monkeypatch, failing, ending, code):
        task = cli._compare_task

        def flaky(t):
            if t[2].real == (1, 0.5)[failing]:
                if ending == "signal":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ValueError("task failed")
            if t[2].real == 0.5:
                time.sleep(60)  # worker 1 must be killed when worker 0 fails, not awaited
            return task(t)

        monkeypatch.setattr(cli, "_compare_task", flaky)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        args = ["compare", "--n-list", "50", "--alpha", "1", "--prec", "128",
                "--z-list", "1,2;0.5,0.1;3,0.1", "--threads", "2"]
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=f"compare worker {failing} of 2 failed with exit code {code}$"):
            cli.main(args)
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_threads_need_fork(self, capsys, monkeypatch):
        monkeypatch.delattr(os, "fork")
        args = ["compare", "--n-list", "50", "--alpha", "1", "--prec", "128", "--z-list", "1,2;0.5,0.1"]
        code, out = run_main(capsys, args + ["--threads", "2"])
        assert code == 1
        assert json.loads(out) == {"error": {"type": "config",
                                             "message": "--threads > 1 needs os.fork, which this platform lacks"}}
        code, out = run_main(capsys, args + ["--threads", "1"])
        assert code == 0 and len(out.splitlines()) == 3

    def test_json_same_output_across_threads(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        args = ["compare", "--n-list", "50,120", "--alpha", "0.7", "--prec", "128", "--format", "json",
                "--z-list", "1,2;0.5,0.1;3,0.1;2.05,0.02;0.05,0.05"]
        code1, out1 = run_main(capsys, args + ["--threads", "1"])
        code3, out3 = run_main(capsys, args + ["--threads", "3"])
        assert code1 == code3 == 0 and out1 == out3 and len(json.loads(out1)) == 10

    def test_json_format(self, capsys):
        code, out = run_main(capsys, ["compare", "--n-list", "50", "--alpha", "1",
                                      "--z-list", "1,2", "--format", "json", "--prec", "128"])
        rows = json.loads(out)
        assert code == 0 and len(rows) == 1
        assert list(rows[0]) == cli.CSV_HEADER.split(",")

    def test_error_rows_do_not_abort(self, capsys):
        code, out = run_main(capsys, ["compare", "--n-list", "50", "--alpha", "1",
                                      "--z-list", "0,0;1,2", "--prec", "128"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert "error:" in lines[1].split(",")[-1]
        assert lines[2].split(",")[9] != ""

    def test_acceptance_csv_pinned(self, capsys):
        code, out = run_main(capsys, ["compare", "--n-list", "100,400,1600", "--alpha", "1",
                                      "--prec", "256", "--z-list", ACCEPTANCE_Z_LIST])
        assert code == 0
        assert len(out.encode()) == 8403
        assert _csv_digests(out) == ACCEPTANCE_CSV_SHA256

    def test_phase_columns_principal(self, capsys):
        # both phase columns in (-pi, pi], at an odd and an even degree
        code, out = run_main(capsys, ["compare", "--n-list", "101,400", "--alpha", "1", "--prec", "128",
                                      "--z-list", ACCEPTANCE_Z_LIST])
        assert code == 0
        header, *rows = (line.split(",") for line in out.splitlines())
        cols = [header.index("log_exact_phase"), header.index("log_asym_phase")]
        assert len(rows) == 14
        for row in rows:
            assert all(abs(float(row[i])) <= math.pi for i in cols), row

    def test_region_c_csv_pinned(self, capsys):
        # the acceptance list has one C point; this grid has 20 C rows, disk edge included
        code, out = run_main(capsys, ["compare", "--n-list", "400,6400", "--alpha", "1",
                                      "--prec", "256", "--grid", REGION_C_GRID])
        assert code == 0
        assert [r.split(",")[4] for r in out.split("\n")[1:-1]].count("C") == 20
        assert _csv_digests(out) == REGION_C_CSV_SHA256

    def test_high_degree_csv_pinned(self, capsys):
        code, out = run_main(capsys, ["compare", "--n-list", "1000,1500,2000,2500",
                                      "--alpha", "1.234", "--z-list", HIGH_DEGREE_Z_LIST])
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + 32
        assert _csv_digests(out) == HIGH_DEGREE_CSV_SHA256

    def test_negative_point_values(self, capsys):
        # "-1,-2" as the value of --z, --z-list and --grid, not an option
        code, out = run_main(capsys, ["eval", "--mode", "asym", "--n", "100", "--alpha", "1",
                                      "--z", "-1,-2"])
        assert code == 0
        obj = json.loads(out)
        assert (obj["z_re"], obj["z_im"], obj["region"]) == (-1.0, -2.0, "A")
        code2, out2 = run_main(capsys, ["eval", "--mode", "asym", "--n", "100", "--alpha", "1",
                                        "--z=-1,-2"])
        assert code2 == 0 and out2 == out
        code, out = run_main(capsys, ["compare", "--n-list", "50", "--alpha", "1", "--prec", "128",
                                      "--z-list", "-1,-2;1,2"])
        assert code == 0 and out.split("\n")[1].startswith("50,1.0,-1.0,-2.0,A,")
        code, out = run_main(capsys, ["compare", "--n-list", "50", "--alpha", "1", "--prec", "128",
                                      "--grid", "-2:-1:2,-1:-0.5:2"])
        assert code == 0 and len(out.strip().split("\n")) == 1 + 4

    def test_grid_validation(self, capsys):
        code, out = run_main(capsys, ["compare", "--n-list", "50", "--alpha", "1",
                                      "--grid", "junk"])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "config"

    def test_grid_rows_are_z_list_rows(self, capsys):
        # each grid point is its decimal rounded once to --prec, as in
        # --z-list; the points were spaced at 64 bits, so the log columns
        # differed from the 20th digit on
        args = ["compare", "--n-list", "100,401", "--alpha", "1.5", "--prec", "256"]
        _, grid = run_main(capsys, args + ["--grid", "0.4:1.6:3,0.05:0.3:2"])
        z_list = ";".join(f"{x},{y}" for x in ("0.4", "1.0", "1.6") for y in ("0.05", "0.3"))
        _, listed = run_main(capsys, args + ["--z-list", z_list])
        assert grid == listed and len(grid.splitlines()) == 1 + 12

    def test_grid_zero_endpoint_with_huge_exponent(self, capsys):
        # a zero endpoint is 0 whatever its exponent reads; forming it as
        # an exact fraction first would build 10**999999999
        args = ["compare", "--n-list", "50", "--alpha", "1", "--prec", "128", "--grid"]
        _, huge = run_main(capsys, args + ["0e-999999999:1:2,-0e999999999:1:2"])
        _, plain = run_main(capsys, args + ["0:1:2,0:1:2"])
        assert huge == plain and len(huge.splitlines()) == 1 + 4

    def test_grid_axis_of_one_point(self, capsys):
        # a count of 1 gives the axis its first end alone
        code, out = run_main(capsys, ["compare", "--n-list", "50", "--alpha", "1", "--prec", "128",
                                      "--grid", "1:3:1,0.5:1:2"])
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [(r[2], r[3]) for r in rows] == [("1.0", "0.5"), ("1.0", "1.0")]

    def test_grid_and_zlist_exclusive(self, capsys):
        code, out = run_main(capsys, ["compare", "--n-list", "50", "--alpha", "1",
                                      "--grid", "0:1:2,0:1:2", "--z-list", "1,1"])
        assert code == 1


class TestRegionsAndOrtho:
    def test_regions_turning_point(self, capsys):
        code, out = run_main(capsys, ["regions", "--n", "400", "--alpha", "1", "--z", "2,0"])
        obj = json.loads(out)
        assert code == 0 and obj["region"] == "C"

    def test_regions_does_not_evaluate(self, capsys, monkeypatch):
        from tcasym import asym

        def refuse(*args):
            raise AssertionError("regions evaluated a formula")

        for tag in asym._EVALUATORS:
            monkeypatch.setitem(asym._EVALUATORS, tag, refuse)
        for z, tag in (("0.05,0.05", "origin"), ("1,0.05", "B"), ("2.05,-0.02", "C"),
                       ("-4,0.05", "D"), ("1,2", "A")):
            code, out = run_main(capsys, ["regions", "--n", "400", "--alpha", "1", "--z", z])
            assert code == 0 and json.loads(out)["region"] == tag

    def test_ortho_within_bounds(self, capsys):
        code, out = run_main(capsys, ["ortho", "--alpha", "1", "--max-deg", "2",
                                      "--kmax", "5000"])
        obj = json.loads(out)
        assert code == 0 and obj["all_pass"]
        offdiag = [e for e in obj["entries"] if e["m"] != e["n"]]
        assert all(abs(e["value"]) <= max(e["tail_bound"], 0) for e in offdiag)

    def test_ortho_output_pinned(self, capsys):
        code, out = run_main(capsys, ["ortho", "--alpha", "1", "--max-deg", "4",
                                      "--kmax", "20000"])
        assert code == 0
        assert out == ORTHO_ALPHA1_DEG4_K20000

    @pytest.mark.parametrize("args, digest", ORTHO_SHA256)
    def test_ortho_matrix_sha256_pinned(self, capsys, args, digest):
        code, out = run_main(capsys, ["ortho"] + args)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_ortho_tiny_alpha_within_bounds(self, capsys):
        # node 0 sits at alpha^(-1/2) = 1e15 with mass 1e30; a per-node
        # recurrence there read pair (0, 4) as -2.1e6 instead of -0.0089
        code, out = run_main(capsys, ["ortho", "--alpha", "1e-30", "--max-deg", "4", "--kmax", "500"])
        assert code == 0 and json.loads(out)["all_pass"] is True


class TestErrorsAndConfig:
    def test_domain_error_exit_2(self, capsys):
        code, out = run_main(capsys, ["eval", "--mode", "asym", "--n", "10", "--alpha", "1",
                                      "--z", "0,0"])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "domain"

    def test_config_error_exit_1(self, capsys):
        code, out = run_main(capsys, ["eval", "--mode", "asym", "--n", "10", "--alpha", "1",
                                      "--z", "1,1", "--eps", "0.5", "--delta", "0.2"])
        assert code == 1
        assert json.loads(out)["error"]["type"] == "config"

    @pytest.mark.parametrize("command", [
        ["eval", "--mode", "asym", "--n", "200", "--z", "2.6,0.1"],
        ["compare", "--n-list", "1,200", "--z-list", "2.6,0.1"],
    ])
    @pytest.mark.parametrize("eps", ["0.5", "0.7"])
    def test_disk_wider_than_h_domain_is_config_error(self, tmp_path, command, eps):
        # every C point beyond |z - 2| = 0.5 would be an error row: refused
        # up front, naming the radius, as eps >= delta is
        csv = tmp_path / "out.csv"
        extra = ["--out", str(csv)] if command[0] == "compare" else []
        r = run_cli(command + ["--alpha", "1", "--eps", eps, "--delta", "1"] + extra)
        assert r.returncode == 1
        err = json.loads(r.stdout)["error"]
        assert err["type"] == "config"
        assert err["message"] == (f"--eps must be < 0.5, the radius of the turning-point map's "
                                  f"domain |z - 2| < 0.5, got eps={eps}")
        assert not csv.exists()

    def test_wide_disk_still_classifies(self, capsys):
        # regions and eval --mode exact never evaluate h: the wider disk
        # stays theirs
        code, out = run_main(capsys, ["regions", "--n", "200", "--alpha", "1", "--z", "2.6,0.1",
                                      "--eps", "0.7", "--delta", "1"])
        assert code == 0 and json.loads(out)["region"] == "C"
        code, out = run_main(capsys, ["eval", "--mode", "exact", "--n", "20", "--alpha", "1",
                                      "--z", "2.6,0.1", "--eps", "0.7", "--delta", "1"])
        assert code == 0

    def test_exact_eval_ignores_geometry(self, capsys):
        # the exact path takes no Params: an eps >= delta it never reads
        # leaves its JSON byte for byte as it is without them
        args = ["eval", "--mode", "exact", "--n", "10", "--alpha", "1", "--z", "1,1"]
        code, plain = run_main(capsys, args)
        code2, out = run_main(capsys, args + ["--eps", "0.3", "--delta", "0.2"])
        assert code == code2 == 0 and out == plain

    def test_bad_alpha(self, capsys):
        code, out = run_main(capsys, ["eval", "--mode", "exact", "--n", "3", "--alpha", "-1",
                                      "--z", "1,0"])
        assert code == 1

    @pytest.mark.parametrize("args", [
        ["--alpha", "inf", "--max-deg", "2", "--kmax", "50"],
        ["--alpha=-inf", "--max-deg", "2", "--kmax", "50"],
        ["--alpha", "-inf", "--max-deg", "2", "--kmax", "50"],
        ["--alpha", "1", "--max-deg", "2", "--kmax", "0"],
    ])
    def test_ortho_bad_input_is_config_error(self, capsys, args):
        code, out = run_main(capsys, ["ortho"] + args)
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "config"
        assert "expected one argument" not in err["message"]

    @pytest.mark.parametrize("alpha, message", [
        (["--alpha", "inf"], "alpha must be finite, got +inf"),
        (["--alpha=-inf"], "alpha must be > 0"),
        (["--alpha", "nan"], "alpha must be > 0"),
    ])
    def test_compare_nonfinite_alpha_is_config_error(self, capsys, tmp_path, alpha, message):
        # +inf passes a bare alpha > 0 test, and compare would then exit 0
        # with every row an error row
        csv = tmp_path / "out.csv"
        code, out = run_main(capsys, ["compare", "--n-list", "50", "--z-list", "1,2",
                                      "--prec", "128", "--out", str(csv)] + alpha)
        assert code == 1
        assert json.loads(out)["error"] == {"type": "config", "message": message}
        assert not csv.exists()

    @pytest.mark.parametrize("command", [
        ["eval", "--mode", "exact", "--n", "3", "--z", "0.5,0"],
        ["regions", "--n", "50", "--z", "1,2"],
        ["ortho", "--max-deg", "2", "--kmax", "50"],
    ])
    def test_infinite_alpha_same_error_everywhere(self, capsys, command):
        code, out = run_main(capsys, command + ["--alpha", "inf"])
        assert code == 1
        assert json.loads(out)["error"] == {"type": "config",
                                            "message": "alpha must be finite, got +inf"}

    @pytest.mark.parametrize("args, named", [
        case
        for bad in ("abc", "nan", "inf", "-inf", "1e400", "1e-400")
        for case in (
            (["eval", "--mode", "exact", "--n", "3", "--alpha", "1", "--z", f"1,{bad}"], "--z "),
            (["eval", "--mode", "asym", "--n", "3", "--alpha", "1", "--z", f"{bad},1"], "--z "),
            (["regions", "--n", "50", "--alpha", "1", "--z", f"{bad},1"], "--z "),
            (["compare", "--n-list", "50", "--alpha", "1", "--z-list", f"1,2;{bad},0"], "--z-list "),
            (["compare", "--n-list", "50", "--alpha", "1", "--grid", f"0:1:2,0:{bad}:2"], "--grid "),
            (["compare", "--n-list", "50", "--alpha", "1", "--grid", f"{bad}:1:1,0:1:2"], "--grid "),
            (["eval", "--mode", "asym", "--n", "3", "--alpha", bad, "--z", "1,1"], "alpha "),
            (["regions", "--n", "50", "--alpha", bad, "--z", "1,2"], "alpha "),
            (["compare", "--n-list", "50", "--alpha", bad, "--z-list", "1,2"], "alpha "),
            (["ortho", "--alpha", bad, "--max-deg", "2", "--kmax", "50"], "alpha "),
        )
    ])
    def test_bad_number_is_config_error(self, capsys, tmp_path, args, named):
        # text mpmath cannot parse used to escape as a ValueError traceback;
        # nan and inf coordinates made compare exit 0 with error rows; and
        # 1e400 evaluated but was written as an infinite double, 1e-400
        # as 0.0
        csv = tmp_path / "out.csv"
        if args[0] == "compare":
            args = args + ["--prec", "128", "--out", str(csv)]
        code, out = run_main(capsys, args)
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "config"
        assert named in err["message"]
        assert not csv.exists()

    @pytest.mark.parametrize("args, message", [
        (["eval", "--mode", "asym", "--n", "3", "--alpha", "1", "--z", "1"], "--z expects 're,im', got '1'"),
        (["regions", "--n", "3", "--alpha", "1", "--z", "1,2,3"], "--z expects 're,im', got '1,2,3'"),
        (["compare", "--n-list", "50", "--alpha", "1", "--grid", "0:1:0,0:1:2"],
         "--grid expects 're0:re1:nre,im0:im1:nim', got '0:1:0,0:1:2'"),
        (["compare", "--n-list", "50", "--alpha", "1", "--z-list", " ; "], "--z-list is empty"),
        (["compare", "--n-list", "50,x", "--alpha", "1", "--z-list", "1,2"],
         "--n-list expects integers, got '50,x'"),
        (["compare", "--n-list", "50,0", "--alpha", "1", "--z-list", "1,2"], "--n-list must contain degrees >= 1"),
        (["compare", "--n-list", ",", "--alpha", "1", "--z-list", "1,2"], "--n-list must contain degrees >= 1"),
        (["compare", "--n-list", "50", "--alpha", "1", "--z-list", "1,2", "--threads", "0"],
         "--threads must be >= 1"),
    ], ids=["z-one-part", "z-three-parts", "grid-count-0", "z-list-empty", "n-list-text",
            "n-list-degree-0", "n-list-empty", "threads-0"])
    def test_bad_option_is_config_error(self, capsys, tmp_path, args, message):
        csv = tmp_path / "out.csv"
        if args[0] == "compare":
            args = args + ["--out", str(csv)]
        code, out = run_main(capsys, args)
        assert code == 1
        assert json.loads(out) == {"error": {"type": "config", "message": message}}
        assert not csv.exists()

    def test_compare_unwritable_out_is_config_error(self, capsys, tmp_path, monkeypatch):
        # the sink opens after the argument checks and before any point is
        # evaluated: no sweep runs and no traceback escapes
        def never(*args, **kwargs):
            raise AssertionError("compare_point was called")

        monkeypatch.setattr(harness, "compare_point", never)
        csv = tmp_path / "missing" / "out.csv"
        code, out = run_main(capsys, ["compare", "--n-list", "50", "--alpha", "1", "--z-list", "1,2",
                                      "--prec", "128", "--out", str(csv)])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "config"
        assert err["message"].startswith("--out ")

    def test_subnormal_doubles_accepted(self, capsys):
        code, out = run_main(capsys, ["regions", "--n", "50", "--alpha", "1e-310", "--z", "1e-310,-1"])
        assert code == 0
        obj = json.loads(out)
        assert (obj["alpha"], obj["z_re"], obj["z_im"]) == (1e-310, 1e-310, -1.0)

    def test_double_range_coordinates_accepted(self, capsys):
        code, out = run_main(capsys, ["regions", "--n", "50", "--alpha", "1e300", "--z", "1e300,-1e-300"])
        assert code == 0
        obj = json.loads(out)
        assert (obj["alpha"], obj["z_re"], obj["z_im"]) == (1e300, 1e300, -1e-300)

    @pytest.mark.parametrize("args", [
        ["eval", "--mode", "exact", "--n", "3", "--alpha", "1", "--z", "0.5,0"],
        ["compare", "--n-list", "50", "--alpha", "1", "--z-list", "1,2"],
        ["regions", "--n", "50", "--alpha", "1", "--z", "1,2"],
        ["ortho", "--alpha", "1", "--max-deg", "2", "--kmax", "50"],
        ["selftest"],
    ])
    def test_prec_zero_is_config_error(self, capsys, args):
        # 0 is a given precision, not "use the default"
        code, out = run_main(capsys, args + ["--prec", "0"])
        assert code == 1
        err = json.loads(out)["error"]
        assert err == {"type": "config", "message": "precision must be >= 64 bits, got 0"}

    def test_prec_sets_digits(self, capsys):
        args = ["eval", "--mode", "exact", "--n", "3", "--alpha", "1", "--z", "0.5,0", "--rescaled", "false"]
        digits = [len(json.loads(run_main(capsys, args + extra)[1])["log_mod"].split(".")[1])
                  for extra in (["--prec", "128"], [])]
        # 128 bits -> about 38 significant digits in the log field
        assert 30 <= digits[0] <= 45
        assert digits[1] > digits[0]  # default 256 bits

    def test_missing_option_is_config_error(self, capsys):
        code, out = run_main(capsys, ["eval", "--mode", "exact", "--alpha", "1", "--z", "0.5,0"])
        assert code == 1
        err = json.loads(out)["error"]
        assert err["type"] == "config" and "--n" in err["message"]

    def test_regions_at_zero_is_domain_error(self, capsys):
        code, out = run_main(capsys, ["regions", "--n", "50", "--alpha", "1", "--z", "0,0"])
        assert code == 2
        assert json.loads(out) == {"error": {"type": "domain", "message": "z = 0 is excluded"}}


def _readme_commands():
    """The lines of the first code block under README's "## Command line"."""
    with open(os.path.join(os.path.dirname(SRC), "README.md")) as f:
        text = f.read()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line for line in block.splitlines() if line.startswith("tcasym ")]


@pytest.mark.parametrize("line", _readme_commands())
def test_readme_command_runs(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)  # --out writes into the working directory
    code, out = run_main(capsys, shlex.split(line)[1:])
    assert code == 0, out


def test_import_leaves_numpy_unloaded():
    # every CLI launch and pool worker pays for what the package imports;
    # checked on module state in a fresh interpreter, not on timing
    code = "import sys, tcasym, tcasym.cli; print('numpy' in sys.modules)"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "False"


def test_import_loads_no_process_pool():
    # compare forks its own workers; the executor's imports cost every
    # launch tens of milliseconds
    code = ("import sys, tcasym.cli; "
            "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


@pytest.mark.parametrize("stmt", ["import tcasym.cli", "from tcasym import harness"])
def test_import_budget(stmt):
    # every fresh process pays for these: dataclasses pulls in inspect (and
    # ast, dis, tokenize), about 20 ms; statistics and signal have one use each
    code = (f"import sys; {stmt}; "
            "print([m for m in ('dataclasses', 'inspect', 'statistics', 'signal') if m in sys.modules])")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=subprocess_env())
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


@pytest.mark.slow
class TestSelftest:
    def test_selftest_passes(self):
        r = run_cli(["selftest"])
        assert r.returncode == 0, r.stdout
        assert "FAIL" not in r.stdout
        assert "PASS log-gamma:" in r.stdout
