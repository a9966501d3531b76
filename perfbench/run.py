"""tcasym benchmark: four workloads of seeded inputs through the package's
public functions.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 5 --trace 0

Workloads (each a closed loop with one caller; only cold-parallel runs
the package in more than one process):

* sweep          serial ``harness.compare_point`` at 256 bits over the
                 five-region x degree x alpha acceptance grid;
* deep           serial ``compare_point`` at degrees in the low thousands,
                 each point with its own (n, alpha);
* ortho          ``harness.ortho_report(alpha, 4, k_max, 128)``;
* cold-parallel  a fresh ``python -m tcasym.cli compare --threads 2``.

Every pass of a loop, and every CLI launch, gets fresh inputs drawn from
the seed, so no timed call repeats an input its process has seen.
``--trace 0`` measures the end-to-end metrics untraced. ``--trace 1``
measures the same way, then runs one more pass with span wrappers
installed (see spans.py) and reports the per-layer metrics and the
tracing overhead. Lines before the last are for people: the environment
block and every metric with its unit and sample count. The last line is
one JSON object with the keys correct, attempted, failed and metrics.
Outputs are checked outside the timed interval (see checks.py).
"""

import argparse
import importlib.util
import json
import math
import os
import platform
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import mpmath
from mpmath import mp

import checks
import inputs
import spans

WORKLOADS = ("sweep", "deep", "ortho", "cold-parallel")
END_TO_END = ("setup_s", "throughput_per_s", "latency_p50_ms", "latency_p90_ms", "rel_err_gmean", "peak_rss_mb")
PREC = 256
MIN_CALLS = 100  # timed calls per run at least, so that ten lie beyond p90
REF_SAMPLE = 12  # points per run checked against the reference recurrence
# one point per region at a degree no workload times; the first region-C
# call fills the h-series caches
SETUP_N, SETUP_ALPHA = 150, "1"
SETUP_POINTS = (("A", ("1", "2")), ("B", ("1", "0.05")), ("C", ("2.05", "0.02")),
                ("D", ("4", "0.05")), ("origin", ("0.05", "0.05")))
SETUP_MARKER = "# perfbench: set-up done"
SETUP_REPEATS = 15  # fresh processes per set-up measurement of ortho and cold-parallel
WARM_ALPHA = "3"  # outside every timed alpha range
LAUNCH_TIMEOUT = 150
CAL_STEPS = 120
CAL_REF_S = 0.0025  # calibration() on a 2-core x86-64 host, Python 3.11, mpmath 1.3, at its fastest
CAL_BURST = 10
SAMPLE_EVERY = 0.1  # seconds between calibration samples while a child runs


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------

class Run:
    """One benchmark invocation: paths, checks and the reported rows."""

    def __init__(self, root, seed, seconds, trace):
        self.root, self.seed, self.seconds, self.trace = root, seed, seconds, trace
        self.src = os.path.join(root, "src")
        self.tally = checks.Tally()
        self.rows = []  # (name, json name or None, value, unit, samples)
        self.layers = {}
        self.seen = []  # the inputs of every pass or launch, for the digest

    def row(self, name, key, value, unit, samples):
        self.rows.append((name, key, value, unit, samples))

    def env(self):
        return dict(os.environ, PYTHONPATH=self.src)


def peak_rss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


# Speed calibration. On a shared host the speed of identical work moves
# by up to 1.8x within seconds and stays for tens of seconds, as other
# tenants come and go; raw times then spread by 20-45% from run to run.
# Every timed interval is therefore reported at reference speed,
# raw * CAL_REF_S / (calibration time), where the calibration is a fixed
# stretch of mpmath work that does not involve the package and always
# runs while the package is not running: between the calls of an
# in-process loop, which is serial, and for a child process in bursts
# before and after it and, while it runs, with its whole process group
# stopped (see launch). The program's own load, however many processes
# it uses, never reaches a calibration sample.

def calibration():
    """Seconds for a fixed 256-bit complex recurrence in plain mpmath."""
    t = time.perf_counter()
    with mp.workprec(256):
        x, a = mpmath.mpc("0.3", "0.1"), mpmath.mpf(1)
        f_prev, f = mpmath.mpc(1), a * x
        for k in range(1, CAL_STEPS):
            f_prev, f = f, ((k + a) * x * f - f_prev) / (k + 1)
    return time.perf_counter() - t


def spread_calibration(count, first=0):
    """``count`` calibration samples, the i-th on CPU number first + i (mod
    the CPUs this process may use), so that a child's speed on each CPU it
    may run on is represented."""
    allowed = sorted(os.sched_getaffinity(0))
    cals = []
    try:
        for i in range(count):
            os.sched_setaffinity(0, {allowed[(first + i) % len(allowed)]})
            cals.append(calibration())
    finally:
        os.sched_setaffinity(0, allowed)
    return cals


def cal_burst():
    return spread_calibration(CAL_BURST)


def at_reference(raw, cal_before, cal_after):
    return raw * CAL_REF_S / ((cal_before + cal_after) / 2)


def paused_calibration(proc, count, first=0):
    """``count`` calibration samples with the child's process group
    stopped, from CPU number ``first`` on; returns (seconds stopped,
    samples)."""
    t = time.perf_counter()
    try:
        os.killpg(proc.pid, signal.SIGSTOP)
    except ProcessLookupError:
        return 0.0, []
    try:
        cals = spread_calibration(count, first)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGCONT)
        except ProcessLookupError:
            pass
    return time.perf_counter() - t, cals


def launch(run, cmd, marker=None):
    """Run ``cmd`` from the checkout root in its own session and return
    (seconds at reference speed, raw seconds, seconds stopped, output).

    The timed interval runs from the launch to the child's exit or, with
    ``marker``, to the first output line equal to it; the child then runs
    on to its exit unpaused. Every SAMPLE_EVERY seconds of the interval
    the child's process group is stopped for one calibration sample, and
    the stopped time is left out. The interval is scaled by the median of
    those samples and of a burst each before and after it: the mean of
    CAL_REF_S / sample is the mean speed relative to the reference, and the
    host's speed flips between two levels 1.7x apart within 50 ms, so a
    median would jump between them. The rule is the same for every launch,
    long or short, and no sample shares the machine with the child. A child that overruns LAUNCH_TIMEOUT is killed with
    its process group before this raises."""
    cals = cal_burst()
    out, stopped, end = bytearray(), 0.0, None
    want = marker and (marker + "\n").encode()
    seen = False
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=run.env(), cwd=run.root, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, start_new_session=True)
    fd = proc.stdout.fileno()
    try:
        due = start + SAMPLE_EVERY
        while True:
            now = time.perf_counter()
            if now - start > LAUNCH_TIMEOUT:
                raise TimeoutError(f"{cmd[:4]} ran over {LAUNCH_TIMEOUT} s")
            if end is None and now >= due:
                took, cal = paused_calibration(proc, 1, len(cals))
                stopped += took
                cals += cal
                due = time.perf_counter() + SAMPLE_EVERY
                continue
            wait = due - now if end is None else LAUNCH_TIMEOUT - (now - start)
            if not select.select([fd], [], [], max(wait, 0.0))[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if not chunk:  # end of output: the child and its workers have exited
                break
            out += chunk
            if want and not seen and (out.startswith(want) or b"\n" + want in out):
                seen, end = True, time.perf_counter()
                cals += paused_calibration(proc, CAL_BURST)[1]
        proc.wait(timeout=max(1.0, LAUNCH_TIMEOUT - (time.perf_counter() - start)))
        if end is None:
            end = time.perf_counter()
            cals += cal_burst()
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[:4]} exited {proc.returncode}: {out.decode()[-2000:]}")
    if want and not seen:
        raise RuntimeError(f"{cmd[:4]} exited without printing {marker!r}")
    raw = end - start - stopped
    return raw * statistics.fmean(CAL_REF_S / c for c in cals), raw, stopped, out.decode()


class Timed:
    """The calls of a closed loop: inputs, outputs, and times at reference
    speed and raw, in call order; ``passes`` holds each pass's inputs."""

    def __init__(self):
        self.items, self.outs, self.ref, self.raw, self.passes = [], [], [], [], []

    def first_pass(self):
        k = len(self.passes[0])
        return self.items[:k], self.outs[:k]


def timed_calls(call, items, timed):
    """Call ``call`` on each item in turn, bracketed by calibration samples."""
    cal = calibration()
    for item in items:
        t = time.perf_counter()
        out = call(item)
        raw = time.perf_counter() - t
        cal_after = calibration()
        timed.items.append(item)
        timed.outs.append(out)
        timed.ref.append(at_reference(raw, cal, cal_after))
        timed.raw.append(raw)
        cal = cal_after
    timed.passes.append(items)
    return timed


def timed_passes(call, passes, seconds):
    """Closed loop of full passes, each over fresh inputs, until
    ``seconds`` have elapsed and at least MIN_CALLS calls were made. Every
    call counts."""
    timed, start = Timed(), time.perf_counter()
    while len(timed.items) < MIN_CALLS or time.perf_counter() - start < seconds:
        timed_calls(call, next(passes), timed)
    return timed


def traced_pass(call, items):
    """One more pass over fresh inputs, traced and timed like the loop.
    Returns (spans, the calls)."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        timed = timed_calls(call, items, Timed())
    finally:
        tracer.uninstall()
    return tracer.take(), timed


def rel_err_rows(run, values):
    """Accuracy rows. Only the geometric mean goes into the result: the
    errors of the five regions sit decades apart, so the median falls in
    the gap between them and the 90th percentile rests on a handful of
    points; both move by 10-30% from seed to seed."""
    gmean = math.exp(statistics.fmean(math.log(max(v, sys.float_info.min)) for v in values))
    run.row("rel_err_gmean", "rel_err_gmean", gmean, "ratio", len(values))
    run.row("rel_err_p50", None, spans.percentile(values, 50), "ratio", len(values))
    run.row("rel_err_p90", None, spans.percentile(values, 90), "ratio", len(values))


def latency_rows(run, lat, raw, work, item, call):
    """Throughput in ``item``s per second over the calls timed in ``lat``
    (which did ``work`` items in all); latency of one ``call``. ``raw``
    holds the same calls' unscaled times, printed for reference."""
    ms = [1e3 * x for x in lat]
    run.row(f"{item}s_per_s", "throughput_per_s", work / sum(lat), "1/s", len(lat))
    run.row(f"{call}_p50_ms", "latency_p50_ms", spans.percentile(ms, 50), "ms", len(lat))
    run.row(f"{call}_p90_ms", "latency_p90_ms", spans.percentile(ms, 90), "ms", len(lat))
    run.row(f"{item}s_per_s_raw", None, work / sum(raw), "1/s", len(raw))
    run.row(f"{call}_p50_ms_raw", None, 1e3 * spans.percentile(raw, 50), "ms", len(raw))


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def supervise(run, argv):
    """sweep and deep: the workload runs in a child (this script with
    --inner), so that its set-up, from process start through the first
    evaluation in each region, is timed and calibrated like any launch.
    The child's lines are passed on, and set-up time joins its result."""
    cmd = [sys.executable, os.path.abspath(__file__)] + argv + ["--inner"]
    setup_s, setup_raw, stopped, out = launch(run, cmd, SETUP_MARKER)
    lines = out.splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        if line != SETUP_MARKER:
            print(line)
    print(f"{'setup_s':<40} {setup_s:<14.6g} {'s':<6} n=1   (raw {setup_raw:.3f} s)")
    if run.trace:
        cold = result["metrics"]["auxfun.h_factor.cold_s"]["value"]
        # spans are raw and include the time stopped for calibration
        wall = setup_raw + stopped
        print(f"# auxfun.h_factor.cold_s is {cold:.3f} s of the raw set-up time {wall:.3f} s "
              f"({cold / wall:.0%}), counting {stopped:.3f} s stopped for calibration")
    else:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    return result


def check_points(run, items, recs):
    for i, (p, rec) in enumerate(zip(items, recs)):
        share = checks.term_share(p[1], rec.log_exact and rec.log_exact.log_mod, rec.dropped_term_bound)
        checks.check_row(run.tally, p[0], rec.region, rec.rel_err, share, rec.flags, rec.error, f"point {i} {p}")


def run_points(run, passes):
    """sweep and deep, in the --inner child: serial compare_point."""
    from tcasym import harness

    tracer = None
    if run.trace:
        tracer = spans.Tracer()
        tracer.install()
    for _, z in SETUP_POINTS:
        harness.compare_point(SETUP_N, SETUP_ALPHA, z, prec=PREC)
    print(SETUP_MARKER, flush=True)
    setup_spans = []
    if tracer:
        tracer.uninstall()
        setup_spans = tracer.take()

    def call(p):
        return harness.compare_point(p[1], p[2], (p[3], p[4]), prec=PREC)

    timed = timed_passes(call, passes, run.seconds)
    rss = peak_rss_mb(resource.RUSAGE_SELF)
    run.seen += timed.passes
    latency_rows(run, timed.ref, timed.raw, len(timed.items), "point", "point")
    check_points(run, timed.items, timed.outs)
    rng = random.Random(f"ref:{run.seed}")
    for i in sorted(rng.sample(range(len(timed.items)), REF_SAMPLE)):
        p, rec = timed.items[i], timed.outs[i]
        diff = checks.ref_rel_diff(p[1], p[2], (p[3], p[4]), rec.log_exact, PREC) if rec.log_exact else None
        run.tally.check(diff is not None and diff < checks.REF_TOL, f"point {i} {p}: exact vs reference {diff}")
    # accuracy over the first pass, so it depends on the seed alone
    recs = timed.first_pass()[1]
    rel_err_rows(run, [r.rel_err for r in recs if r.rel_err is not None and "near-zero" not in r.flags])
    run.row("peak_rss_mb", "peak_rss_mb", rss, "MB", 1)

    if tracer:
        items = next(passes)
        run.seen.append(items)
        measured, traced = traced_pass(call, items)
        check_points(run, traced.items, traced.outs)
        err = spans.additivity_error(measured, "harness.compare_point")
        run.tally.check(err < 1e-9, f"self times of a compare_point miss its duration by {err} s")
        pid = os.getpid()
        overhead = statistics.fmean(traced.ref) / statistics.fmean(timed.ref)
        run.layers = spans.layer_metrics([(pid, setup_spans, True), (pid, measured, False)],
                                         {"trace.overhead_ratio": overhead})


def run_ortho(run, passes):
    from tcasym import harness

    code = ("import sys; from tcasym import harness; "
            f"harness.ortho_report(sys.argv[1], {inputs.ORTHO_DEG}, 100, {inputs.ORTHO_PREC})")
    setups = [launch(run, [sys.executable, "-c", code, WARM_ALPHA])[0] for _ in range(SETUP_REPEATS)]

    def call(a):
        return harness.ortho_report(a, inputs.ORTHO_DEG, inputs.ORTHO_KMAX, inputs.ORTHO_PREC)

    harness.ortho_report(WARM_ALPHA, inputs.ORTHO_DEG, 100, inputs.ORTHO_PREC)  # warm imports
    timed = timed_passes(call, passes, run.seconds)
    rss = peak_rss_mb(resource.RUSAGE_SELF)
    run.seen += timed.passes
    run.row("setup_s", "setup_s", statistics.median(setups), "s", len(setups))
    latency_rows(run, timed.ref, timed.raw, len(timed.items) * (inputs.ORTHO_KMAX + 1), "node", "call")
    check_ortho(run, timed.items, timed.outs)
    rel_err_rows(run, ortho_devs(*timed.first_pass()))
    run.row("peak_rss_mb", "peak_rss_mb", rss, "MB", 1)

    if run.trace:
        items = next(passes)
        run.seen.append(items)
        measured, traced = traced_pass(call, items)
        check_ortho(run, traced.items, traced.outs)
        err = spans.additivity_error(measured, "harness.ortho_report")
        run.tally.check(err < 1e-9, f"self times of an ortho_report miss its duration by {err} s")
        overhead = statistics.fmean(traced.ref) / statistics.fmean(timed.ref)
        run.layers = spans.layer_metrics([(os.getpid(), measured, False)], {"trace.overhead_ratio": overhead})


def check_ortho(run, alphas, reps):
    for a, rep in zip(alphas, reps):
        run.tally.check(rep.all_pass, f"alpha={a}: ortho_report not all_pass")
        for e in rep.entries:
            if (e.m + e.n) % 2:
                run.tally.check(e.exact_zero and e.value == 0, f"alpha={a}: odd entry ({e.m},{e.n}) = {e.value}")


def ortho_devs(alphas, reps):
    """|S_mn - h_n delta_mn| / sqrt(h_m h_n) over the even entries."""
    devs = []
    for rep in reps:
        diag = {e.m: e.target for e in rep.entries if e.m == e.n}
        devs += [abs(e.value - e.target) / (diag[e.m] * diag[e.n]) ** 0.5
                 for e in rep.entries if not (e.m + e.n) % 2 and e.m <= e.n]
    return devs


def run_cli(run, passes):
    """cold-parallel: fresh CLI processes; rows are checked after parsing."""
    from tcasym import cli

    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=run.root)
    try:
        _run_cli(run, passes, cli, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _cli_args(points, threads):
    zlist = ";".join(f"{re},{im}" for _, re, im in points)
    # "--z-list=" form: a list may start with "-", which argparse would read as an option
    return ["compare", "--n-list", ",".join(map(str, inputs.CLI_NS)), "--alpha", inputs.CLI_ALPHA,
            f"--z-list={zlist}", "--threads", str(threads)]


def _cli_launch(run, cmd, out):
    """Launch, then return (seconds at reference speed, raw seconds, CSV bytes)."""
    ref, raw, _, _ = launch(run, cmd + ["--out", out])
    with open(out, "rb") as f:
        return ref, raw, f.read()


def _check_csv(run, cli, points, csv_bytes, k):
    """The per-row checks on the parsed CSV of launch ``k``; returns the
    rows' usable rel_err."""
    from tcasym.mpnum import LogComplex, to_mpf

    lines = csv_bytes.decode().splitlines()
    run.tally.check(lines[0] == cli.CSV_HEADER, f"CSV header {lines[0]!r}")
    body = [ln.split(",") for ln in lines[1:]]
    expect = [(n, p) for n in inputs.CLI_NS for p in points]  # the CLI's n-major task order
    run.tally.check(len(body) == len(expect), f"{len(body)} CSV rows, expected {len(expect)}")
    rels = []
    for i, (row, (n, p)) in enumerate(zip(body, expect)):
        flags = row[11].split(";") if row[11] else []
        errors = [f for f in flags if f.startswith("error:")]
        rel = float(row[9]) if row[9] else None
        share = checks.term_share(n, row[5] or None, float(row[10]) if row[10] else None)
        checks.check_row(run.tally, p[0], row[4], rel, share, flags, ";".join(errors), f"row {i} n={n} {p}")
        run.tally.check(int(row[0]) == n, f"row {i}: n={row[0]}, expected {n}")
        if rel is not None and "near-zero" not in flags:
            rels.append(rel)
    rng = random.Random(f"ref:{run.seed}:{k}")
    for i in sorted(rng.sample(range(len(body)), 6)):
        (n, p), row = expect[i], body[i]
        v = LogComplex(to_mpf(row[5], PREC), to_mpf(row[6], PREC))
        diff = checks.ref_rel_diff(n, inputs.CLI_ALPHA, (p[1], p[2]), v, PREC)
        run.tally.check(diff < checks.REF_TOL, f"row {i}: exact vs reference {diff}")
    return rels


def _run_cli(run, passes, cli, tmp):
    py = sys.executable
    # CLI start-up: import, parsing, one region-B task (no cache fill), CSV write
    setup_cmd = [py, "-m", "tcasym.cli", "compare", "--n-list", "100", "--alpha", inputs.CLI_ALPHA,
                 "--z-list", "1,0.05"]
    setups = [_cli_launch(run, setup_cmd, os.path.join(tmp, "setup.csv"))[0] for _ in range(SETUP_REPEATS)]

    # launches, each on a fresh grid, until --seconds have passed: a launch
    # takes about 20 s, so a run makes one
    csv2 = os.path.join(tmp, "threads2.csv")
    lat, raw, csvs = [], [], []
    start = time.perf_counter()
    while not lat or time.perf_counter() - start < run.seconds:
        points = next(passes)
        ref, wall, csv_bytes = _cli_launch(run, [py, "-m", "tcasym.cli"] + _cli_args(points, 2), csv2)
        lat.append(ref)
        raw.append(wall)
        csvs.append(csv_bytes)
        run.seen.append(points)
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    tasks = len(inputs.CLI_NS) * len(run.seen[0])
    run.row("setup_s", "setup_s", statistics.median(setups), "s", len(setups))
    run.row("wall_s", None, statistics.median(lat), "s", len(lat))
    # latency of a whole launch: the CLI reports no per-task times
    latency_rows(run, lat, raw, tasks * len(lat), "task", "launch")
    rels = [_check_csv(run, cli, points, csv_bytes, k) for k, (points, csv_bytes) in enumerate(zip(run.seen, csvs))]
    rel_err_rows(run, rels[0])  # accuracy of the first grid, which depends on the seed alone
    run.row("peak_rss_mb", "peak_rss_mb", rss, "MB", 1)

    if run.trace:
        # the first grid again, in fresh processes: traced, then with one worker
        points = run.seen[0]
        span_dir = os.path.join(tmp, "spans")
        os.mkdir(span_dir)
        traced_py = [py, os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py"), span_dir]
        traced, _, traced_bytes = _cli_launch(run, traced_py + _cli_args(points, 2), csv2)
        csv1 = os.path.join(tmp, "threads1.csv")
        t1, _, t1_bytes = _cli_launch(run, [py, "-m", "tcasym.cli"] + _cli_args(points, 1), csv1)
        run.tally.check(t1_bytes == csvs[0], "CSV bytes differ between --threads 1 and --threads 2")
        run.tally.check(traced_bytes == csvs[0], "CSV bytes differ under tracing")
        _cli_layers(run, span_dir, tasks, {"cli.parallel_speedup": t1 / lat[0],
                                           "trace.overhead_ratio": traced / lat[0]})


def _cli_layers(run, span_dir, tasks, extra):
    with open(os.path.join(span_dir, "main.json")) as f:
        main_spans = json.load(f)
    own = spans.self_times(main_spans)
    extra["cli.main.self_ms"] = 1e3 * sum(o for s, o in zip(main_spans, own) if s[spans.NAME] == "cli.main")
    chunks, cold = [], {}
    seen = set()
    for name in sorted(os.listdir(span_dir)):
        if not name.startswith("worker-"):
            continue
        pid = int(name[len("worker-"):-len(".jsonl")])
        with open(os.path.join(span_dir, name)) as f:
            for line in f:
                task = json.loads(line)
                chunks.append((pid, task, False))
                new = {(pid, s[spans.INFO]) for s in task if s[spans.NAME] == "auxfun.h_factor"} - seen
                if new:
                    seen |= new
                    cold[pid] = cold.get(pid, 0.0) + task[0][spans.END] - task[0][spans.START]
                err = spans.additivity_error(task, "harness.compare_point")
                run.tally.check(err < 1e-9, f"self times of a compare_point miss its duration by {err} s")
    points = sum(s[spans.NAME] == "harness.compare_point" for _, task, _ in chunks for s in task)
    if points != tasks:
        raise RuntimeError(f"spans of {points} compare_point calls came back from the workers, not {tasks}")
    extra["cli.worker.cold_s"] = statistics.median(cold.values()) if cold else 0.0
    run.layers = spans.layer_metrics(chunks, extra)


RUNNERS = {"sweep": run_points, "deep": run_points, "ortho": run_ortho, "cold-parallel": run_cli}


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

def git_sha(root):
    """HEAD of a git checkout at ``root``, read from its files; None elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(run, digest):
    import mpmath
    import tcasym

    gmpy2 = importlib.util.find_spec("gmpy2") is not None
    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "tcasym_backend": tcasym.BACKEND,
        "gmpy2_installed": gmpy2,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(run.root),
        "seed": run.seed,
        "passes": len(run.seen),
        "input_digest": digest,
        # the reference environment: pure mpmath, no compiled extension
        "comparable": mpmath.libmp.BACKEND == "python" and tcasym.BACKEND == "pure-python" and not gmpy2,
    }


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inner", action="store_true", help=argparse.SUPPRESS)  # see supervise()
    args = p.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "tcasym", "__init__.py")):
        print(f"perfbench: no package source at {src}/tcasym; run from the repository root",
              file=sys.stderr)
        return 2
    run = Run(root, args.seed, args.seconds, args.trace)
    if args.workload in ("sweep", "deep") and not args.inner:
        result = supervise(run, argv)
    else:
        sys.path.insert(0, src)
        import tcasym

        if not os.path.abspath(tcasym.__file__).startswith(os.path.abspath(src) + os.sep):
            print(f"perfbench: imported tcasym from {tcasym.__file__}, not {src}", file=sys.stderr)
            return 2
        print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        RUNNERS[args.workload](run, inputs.passes(args.workload, args.seed))
        result = report(run)
    if not args.trace and not args.inner and tuple(result["metrics"]) != END_TO_END:
        raise RuntimeError(f"{args.workload} reported {tuple(result['metrics'])}, not {END_TO_END}")
    print(json.dumps(result))
    return 0


def report(run):
    """Print the environment and every row; return the result object."""
    print(json.dumps({"environment": environment(run, inputs.digest(run.seen))}))
    run.row("fail_frac", None, run.tally.failed / run.tally.attempted, "ratio", run.tally.attempted)
    for name, key, value, unit, samples in run.rows:
        alias = f"  [{key}]" if key and key != name else ""
        print(f"{name:<40} {value:<14.6g} {unit:<6} n={samples}{alias}")
    for note in run.tally.notes:
        print(f"# FAILED {note}")
    if run.trace:
        for name, unit, _ in spans.PER_LAYER:
            print(f"{name:<40} {run.layers[name]:<14.6g} {unit}")
        metrics = {name: {"value": run.layers[name], "unit": unit} for name, unit, _ in spans.PER_LAYER}
    else:
        metrics = {key: {"value": value, "unit": unit} for _, key, value, unit, _ in run.rows if key}
    return {"correct": run.tally.failed == 0, "attempted": run.tally.attempted,
            "failed": run.tally.failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
