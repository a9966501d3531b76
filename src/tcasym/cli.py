"""Command-line surface: eval, compare sweeps, region lookup, orthogonality,
self-test.

Output conventions: single JSON objects on stdout for ``eval``/``regions``/
``ortho``; CSV (fixed 12-column header) or JSON rows for ``compare``.
Extended-precision quantities (log-modulus, phase) are emitted as
full-digit decimal strings; everything in double range is emitted as a
float with 17 significant digits.  Values never leave the process in
plain form unless |log_mod| < 700 (guaranteed exp-representable), in
which case value_re/value_im floats are attached as a convenience.

Exit codes: 0 success, 1 configuration error, 2 domain error.  Errors
are reported as one machine-readable JSON object on stdout.

``--threads N`` forks workers (POSIX only): worker r of W computes points
r, r + W, ...; the parent only merges rows in input order, so output bytes
do not depend on N.  At most one worker per point and usable CPU; one inline.
"""

from __future__ import annotations

import argparse
import json
import marshal
import math
import os
import re
import sys
from fractions import Fraction

import mpmath
from mpmath import mp
from mpmath.libmp import from_rational, round_nearest

from . import __version__, asym, exact, harness
from .asym import Params
from .auxfun import F_TILDE_RADIUS
from .mpnum import DEFAULT_PREC, ConfigError, DomainError, LogComplex, bits_of, to_mpc, to_mpf, working

CSV_HEADER = ("n,alpha,z_re,z_im,region,log_exact_mod,log_exact_phase,"
              "log_asym_mod,log_asym_phase,rel_err,dropped_term_bound,flags")
VALUE_EXPORT_CAP = 700  # |log_mod| below this exports float value_re/value_im


def _number(text, bits, option, check=None):
    """``text`` as an mpf rounded to ``bits``: a config error naming
    ``option`` unless it is a number that is finite and stays finite, and
    nonzero when nonzero, as a double (the CSV and JSON fields are
    doubles; subnormals pass).  ``check``, when given, sees the value
    first and raises its own error."""
    try:
        v = to_mpf(text, bits)
    except ValueError:
        raise ConfigError(f"{option} expects a number, got {text!r}")
    if check is not None:
        check(v)
    if not mpmath.isfinite(v) or math.isinf(float(v)) or (v and not float(v)):
        raise ConfigError(f"{option} must be finite in double range, got {text!r}")
    return v


def _alpha(text, bits):
    """--alpha rounded to ``bits``; a config error unless a finite number
    > 0 whose double is finite."""
    return _number(text, bits, "--alpha", lambda a: exact._check_n_alpha(0, a))


def _fmt_float(x) -> str:
    return repr(float(x))


def _fmt_full(x, bits) -> str:
    """Full-precision decimal string for an extended value."""
    dps = int(bits * 0.30103) + 3
    return mpmath.nstr(x, dps, strip_zeros=False)


def _logc_json(v: LogComplex, bits):
    out = {
        "log_mod": _fmt_full(v.log_mod, bits),
        "phase": _fmt_full(v.phase, bits),
    }
    with working(bits):
        if not v.is_zero() and abs(v.log_mod) < VALUE_EXPORT_CAP:
            w = v.to_complex(bits)
            out["value_re"] = float(w.real)
            out["value_im"] = float(w.imag)
        elif v.is_zero():
            out["value_re"] = 0.0
            out["value_im"] = 0.0
    return out


def _parse_z(s: str, bits, option="--z"):
    """'re,im' -> mpc with each part rounded to ``bits`` (see _number)."""
    try:
        re_s, im_s = s.split(",")
    except ValueError:
        raise ConfigError(f"{option} expects 're,im', got {s!r}")
    return to_mpc([_number(t.strip(), bits, option) for t in (re_s, im_s)], bits)


def _parse_grid(s: str, bits):
    """'re0:re1:nre,im0:im1:nim' -> list of (re, im) mpf pairs, inclusive
    linear spacing, re-major order.  Each endpoint is checked as a
    --z-list coordinate is; each point r0 + (r1 - r0) j/(k - 1) is formed
    exactly from the typed decimals and rounded once to ``bits``."""
    try:
        (r0, r1, nr), (i0, i1, ni) = (part.split(":") for part in s.split(","))
        nr, ni = int(nr), int(ni)
        if nr < 1 or ni < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"--grid expects 're0:re1:nre,im0:im1:nim', got {s!r}")

    def axis(a, b, k):
        ends = [t.strip() for t in (a, b)]
        try:  # a zero is 0 whatever its exponent; a nonzero one's is bounded by the double range
            a, b = (Fraction(t) if _number(t, bits, "--grid") else Fraction(0) for t in ends)
        except ValueError:
            raise ConfigError(f"--grid expects decimal endpoints, got {s!r}")
        pts = (a + (b - a) * j / max(k - 1, 1) for j in range(k))
        return [mp.make_mpf(from_rational(v.numerator, v.denominator, bits, round_nearest)) for v in pts]

    res, ims = axis(r0, r1, nr), axis(i0, i1, ni)
    return [(re, im) for re in res for im in ims]


def _parse_z_list(s: str, bits):
    out = [_parse_z(item, bits, "--z-list") for item in s.split(";") if item.strip()]
    if not out:
        raise ConfigError("--z-list is empty")
    return out


class _CliParser(argparse.ArgumentParser):
    # tokens such as -inf, -1,-2 or -2:-1:5,0:1:3 are option values (alpha,
    # points, grids), not options; argparse only lets plain negative
    # numbers through
    _VALUE = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)

    def _parse_optional(self, arg_string):
        if self._VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _CliParser(prog="tcasym", description="Dual-path Tricomi-Carlitz polynomial engine")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_n=True):
        if needs_n:
            sp.add_argument("--n", type=int, required=True, help="degree")
        sp.add_argument("--alpha", type=str, required=True, help="weight parameter (> 0)")
        sp.add_argument("--prec", type=int, default=DEFAULT_PREC, help=f"mantissa bits (default {DEFAULT_PREC})")
        sp.add_argument("--delta", type=float, default=0.25, help="strip height")
        sp.add_argument("--eps", type=float, default=0.15, help="disk radius")

    e = sub.add_parser("eval", help="evaluate one point by either path")
    e.add_argument("--mode", choices=("exact", "asym"), required=True)
    common(e)
    e.add_argument("--z", type=str, required=True, help="point as 're,im'")
    e.add_argument("--rescaled", type=str, default="true", choices=("true", "false"),
                   help="exact mode: monic at n^(-1/2) z (true) or plain f_n at z (false)")
    e.set_defaults(run=_cmd_eval)

    c = sub.add_parser("compare", help="exact-vs-asymptotic sweep, CSV/JSON rows")
    c.add_argument("--n-list", type=str, required=True, help="comma-separated degrees")
    common(c, needs_n=False)
    c.add_argument("--grid", type=str, default=None, help="'re0:re1:nre,im0:im1:nim'")
    c.add_argument("--z-list", type=str, default=None, help="semicolon-separated 're,im' points")
    c.add_argument("--format", choices=("csv", "json"), default="csv")
    c.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    c.add_argument("--threads", type=int, default=1)
    c.set_defaults(run=_cmd_compare)

    r = sub.add_parser("regions", help="classify a point")
    common(r)
    r.add_argument("--z", type=str, required=True)
    r.set_defaults(run=_cmd_regions)

    o = sub.add_parser("ortho", help="orthogonality report")
    o.add_argument("--alpha", type=str, required=True)
    o.add_argument("--max-deg", type=int, required=True)
    o.add_argument("--kmax", type=int, required=True)
    o.add_argument("--prec", type=int, default=128)
    o.set_defaults(run=_cmd_ortho)

    s = sub.add_parser("selftest", help="run the invariant suites")
    s.add_argument("--prec", type=int, default=128)
    s.set_defaults(run=_cmd_selftest)

    return p


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _asym_params(args) -> Params:
    """The region geometry of --delta/--eps for the asymptotic path: eps <
    delta (``Params``), and eps below the radius of h's domain
    |z - 2| < F_TILDE_RADIUS, which the whole turning-point disk must lie in."""
    params = Params(delta=args.delta, eps=args.eps)
    if args.eps >= F_TILDE_RADIUS:
        raise ConfigError(f"--eps must be < {F_TILDE_RADIUS}, the radius of the turning-point "
                          f"map's domain |z - 2| < {F_TILDE_RADIUS}, got eps={args.eps}")
    return params


def _cmd_eval(args) -> int:
    bits = bits_of(args.prec)
    params = _asym_params(args) if args.mode == "asym" else None  # the exact path reads no geometry
    z = _parse_z(args.z, bits)
    alpha = _alpha(args.alpha, bits)
    out = {
        "mode": args.mode,
        "n": args.n,
        "alpha": float(alpha),
        "z_re": float(z.real),
        "z_im": float(z.imag),
    }
    if args.mode == "exact":
        if args.rescaled == "true":
            v = exact.eval_monic_rescaled(args.n, alpha, z, bits)
        else:
            v = exact.eval_f(args.n, alpha, z, bits)
        out.update(_logc_json(v, bits))
        out["dropped_term_bound"] = None
    else:
        res = asym.eval_asym(args.n, alpha, z, params, bits)
        out["region"] = res.region.tag
        out.update(_logc_json(res.value, bits))
        out["dropped_term_bound"] = _fmt_full(res.dropped_term_bound, bits)
        if res.flags:
            out["flags"] = ";".join(res.flags)
    print(json.dumps(out))
    return 0


def _record_row(rec: harness.EvalRecord, bits):
    def logc_cols(v):
        if v is None:
            return "", ""
        return _fmt_full(v.log_mod, bits), _fmt_full(v.phase, bits)

    em, ep = logc_cols(rec.log_exact)
    am, ap = logc_cols(rec.log_asym)
    flags = list(rec.flags)
    if rec.error:
        flags.append(f"error:{rec.error}")
    return [
        str(rec.n),
        _fmt_float(rec.alpha),
        _fmt_float(rec.z.real),
        _fmt_float(rec.z.imag),
        rec.region,
        em, ep, am, ap,
        "" if rec.rel_err is None else _fmt_float(rec.rel_err),
        "" if rec.dropped_term_bound is None else _fmt_float(rec.dropped_term_bound),
        ";".join(flags),
    ]


def _compare_task(task):  # (n, alpha, z, params, bits)
    return _record_row(harness.compare_point(*task), task[-1])


def _forked_map(tasks, workers):
    """The rows of ``tasks`` in input order, from ``workers`` forked children.  A failed child is
    an error naming it (a negative code is a signal); on any error the rest are killed and reaped."""
    sys.stdout.flush()
    sys.stderr.flush()
    pids, pipes, rows = [], [], [None] * len(tasks)
    try:
        for r in range(workers):
            rfd, wfd = os.pipe()
            pipes.append(open(rfd, "rb"))
            with open(wfd, "wb") as pipe:
                if (pid := os.fork()) == 0:
                    try:  # through the module's _compare_task, so a wrapper on it sees every task
                        pipe.write(marshal.dumps([_compare_task(t) for t in tasks[r::workers]]))
                        pipe.close()
                        os._exit(0)  # flushes none of the inherited buffers
                    except BaseException:
                        sys.excepthook(*sys.exc_info())  # prints the traceback and flushes stderr
                    finally:
                        os._exit(1)
            pids.append(pid)
        for r, data in enumerate(pipe.read() for pipe in pipes):
            code = os.waitstatus_to_exitcode(os.waitpid(pids[r], 0)[1])
            pids[r] = 0
            if code:
                raise RuntimeError(f"compare worker {r} of {workers} failed with exit code {code}")
            rows[r::workers] = marshal.loads(data)
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in filter(None, pids):
            import signal  # only on an error: no import on the normal path

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return rows


def _cmd_compare(args) -> int:
    bits = bits_of(args.prec)
    if (args.grid is None) == (args.z_list is None):
        raise ConfigError("exactly one of --grid / --z-list is required")
    pts = _parse_grid(args.grid, bits) if args.grid else _parse_z_list(args.z_list, bits)
    try:
        n_list = [int(t) for t in args.n_list.split(",") if t.strip()]
    except ValueError:
        raise ConfigError(f"--n-list expects integers, got {args.n_list!r}")
    if not n_list or any(n < 1 for n in n_list):
        raise ConfigError("--n-list must contain degrees >= 1")
    if args.threads < 1:
        raise ConfigError("--threads must be >= 1")
    if args.threads > 1 and not hasattr(os, "fork"):
        raise ConfigError("--threads > 1 needs os.fork, which this platform lacks")
    alpha = _alpha(args.alpha, bits)
    params = _asym_params(args)

    zs = [to_mpc(p, bits) for p in pts]
    tasks = [(n, alpha, z, params, bits) for n in n_list for z in zs]
    sink = sys.stdout
    if args.out:
        try:
            sink = open(args.out, "w")
        except OSError as e:
            raise ConfigError(f"--out {args.out!r} cannot be written: {e.strerror or e}")
    try:
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        workers = min(args.threads, len(tasks), cpus)
        rows = [_compare_task(t) for t in tasks] if workers == 1 else _forked_map(tasks, workers)
        if args.format == "csv":
            sink.write(CSV_HEADER + "\n")
            for row in rows:
                sink.write(",".join(row) + "\n")
        else:
            keys = CSV_HEADER.split(",")
            payload = [dict(zip(keys, row)) for row in rows]
            sink.write(json.dumps(payload, indent=1) + "\n")
    finally:
        if args.out:
            sink.close()
    return 0


def _cmd_regions(args) -> int:
    bits = bits_of(args.prec)
    params = Params(delta=args.delta, eps=args.eps)
    z = _parse_z(args.z, bits)
    alpha = _alpha(args.alpha, bits)
    if z == 0:
        raise DomainError("z = 0 is excluded")
    _, label = asym.locate(args.n, alpha, z, params, bits)
    out = {
        "n": args.n,
        "alpha": float(alpha),
        "z_re": float(z.real),
        "z_im": float(z.imag),
        "region": label.tag,
        "negated": label.negated,
        "conjugated": label.conjugated,
    }
    print(json.dumps(out))
    return 0


def _cmd_ortho(args) -> int:
    bits = bits_of(args.prec)
    alpha = _alpha(args.alpha, bits)
    rep = harness.ortho_report(alpha, args.max_deg, args.kmax, bits)
    out = {
        "alpha": rep.alpha,
        "max_deg": rep.max_deg,
        "k_max": rep.k_max,
        "all_pass": rep.all_pass,
        "entries": [e._asdict() for e in rep.entries],
    }
    print(json.dumps(out))
    return 0 if rep.all_pass else 2


# ----------------------------------------------------------------------
# selftest
# ----------------------------------------------------------------------

def _selftest_checks(bits):
    import random

    params = Params()

    def check_constants():
        with working(bits):
            z = mpmath.mpf(10) ** 6
            from .auxfun import density_psi, phi_tilde
            l_val = 2 * (mpmath.log(z) + phi_tilde(z, bits))
            ok = abs(l_val - 1) < 1e-6
            with mp.workprec(bits):
                ok &= density_psi(3, bits) == mpmath.mpf(2) / 27
            ok &= abs(density_psi(mpmath.mpf(2), bits) - mpmath.mpf(1) / 4) < 1e-12
        return bool(ok), "normalization constant, density values"

    def check_identities():
        from .auxfun import d_triple, theta_gamma_pi
        from .specfun import airy_quartet
        rng = random.Random(101)
        worst = mpmath.mpf(0)
        with working(bits):
            for _ in range(10):
                z = mpmath.mpc(rng.uniform(-3, 3), rng.choice([1, -1]) * rng.uniform(0.1, 2))
                t = d_triple(50, 1, z, bits)
                th, _, _ = theta_gamma_pi(50, 1, z, bits)
                sgn = 1 if z.imag > 0 else -1
                d = t.d.to_complex(bits)
                dt = t.d_tilde.to_complex(bits)
                dh = t.d_hat.to_complex(bits)
                r1 = abs(dt - d * (1 - mpmath.exp(-sgn * 2j * th))) / abs(dt)
                r2 = abs(dh - d * (1 - mpmath.exp(sgn * 2j * th))) / abs(dh)
                worst = max(worst, r1, r2)
            q = airy_quartet(mpmath.mpc(1, 1), bits)
            w = mpmath.mpc(mpmath.cos(2 * mpmath.pi / 3), mpmath.sin(2 * mpmath.pi / 3))
            q1 = airy_quartet(w * mpmath.mpc(1, 1), bits)
            q2 = airy_quartet(w * w * mpmath.mpc(1, 1), bits)
            worst = max(worst, abs(q.ai + w * q1.ai + w * w * q2.ai))
            worst = max(worst, abs(q.ai * q.bi_d - q.ai_d * q.bi - 1 / mpmath.pi) * mpmath.pi)
        return worst < mpmath.mpf(10) ** -20, f"identity residual {mpmath.nstr(worst, 3)}"

    def check_symmetry():
        rng = random.Random(202)
        ok = True
        for _ in range(20):
            z = mpmath.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if abs(z) < 0.01:
                continue
            for n in (60, 61):
                a1, a2, a3 = (asym.eval_asym(n, 1, v, params, bits).value for v in (z, -z, mpmath.conj(z)))
                with mp.workprec(bits):
                    pi = +mpmath.pi
                    ok &= a2.log_mod == a3.log_mod == a1.log_mod
                    # parity: equal phases for even n, a half turn rounded once for odd n
                    ok &= (a2.phase == a1.phase if n % 2 == 0 else
                           a2.phase in (a1.phase + pi, a1.phase - pi) or a1.phase in (a2.phase + pi, a2.phase - pi))
                    # conjugation: exact negation, and pi stays pi
                    ok &= a3.phase == (pi if a1.phase == pi else -a1.phase)
        return bool(ok), "parity/conjugation bit-for-bit"

    def check_regions():
        caps = {"A": 1e-3, "B": 5e-3, "C": 2e-2, "D": 1e-3, "origin": 5e-3}
        zs = {"A": (1, 2), "B": (1, 0.05), "C": (2.05, 0.02), "D": (4, 0.05), "origin": (0.05, 0.05)}
        bad = []
        for tag, z in zs.items():
            rec = harness.compare_point(200, 1, to_mpc(z, bits), params, bits)
            if rec.error or rec.region != tag or rec.rel_err is None or rec.rel_err > caps[tag]:
                bad.append((tag, rec.rel_err, rec.error))
        return not bad, f"per-region agreement at n=200 {bad if bad else ''}"

    def check_ortho():
        rep = harness.ortho_report(1, 2, 20000, min(bits, 128))
        return rep.all_pass, "orthogonality matrix within tail bounds"

    def check_log_gamma():
        # real parts on both sides of the Stirling shift threshold
        from .specfun import _stirling_threshold, log_gamma_complex, log_gamma_real
        rng = random.Random(303)
        t = _stirling_threshold(bits)
        worst = mpmath.mpf(0)
        agree = True
        for _ in range(8):
            z = mpmath.mpc(rng.uniform(0.5, 2 * t), rng.uniform(-60, 60))
            a = log_gamma_complex(z, bits)
            b = log_gamma_complex(z + 1, bits)
            c = log_gamma_complex(1 - z, bits)
            with working(bits):
                rec = abs(b - a - mpmath.log(z)) / max(1, abs(b))
                # Gamma(z) Gamma(1-z) sin(pi z) = pi
                refl = abs(mpmath.exp(a + c) * mpmath.sin(mpmath.pi * z) / mpmath.pi - 1) / (abs(a) + abs(c) + 1)
                worst = max(worst, rec, refl)
            x = mpmath.mpf(rng.uniform(0.01, 2 * t))
            agree &= log_gamma_real(x, bits) == log_gamma_complex(x, bits).real
        ok = agree and worst < mpmath.mpf(2) ** -(bits - 16)
        return ok, (f"recurrence/reflection residual {mpmath.nstr(worst, 3)}, "
                    f"real/complex {'bitwise' if agree else 'DIFFER'}")

    return [
        ("constants", check_constants),
        ("identities", check_identities),
        ("symmetry", check_symmetry),
        ("regions", check_regions),
        ("orthogonality", check_ortho),
        ("log-gamma", check_log_gamma),
    ]


def _cmd_selftest(args) -> int:
    bits = bits_of(args.prec)
    failures = 0
    for name, fn in _selftest_checks(bits):
        try:
            ok, detail = fn()
        except Exception as e:
            ok, detail = False, f"{type(e).__name__}: {e}"
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1
    print(f"selftest: {failures} failure(s)")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except ConfigError as e:
        print(json.dumps({"error": {"type": "config", "message": str(e)}}))
        return 1
    except DomainError as e:
        print(json.dumps({"error": {"type": "domain", "message": str(e)}}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
