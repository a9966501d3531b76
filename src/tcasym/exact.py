"""Ground-truth evaluation: recurrence, weights, nodes, orthogonality sums.

The polynomial family satisfies

    (n+1) f_{n+1}(x) = (n+alpha) x f_n(x) - f_{n-1}(x),
    f_0 = 1,  f_1 = alpha x,

and is orthogonal with respect to the purely discrete measure with masses
(k+alpha)^(k-1) e^-k / k! at the nodes +-(k+alpha)^(-1/2).  Everything here
is computed at an explicit precision; values that scale like exp(n log n)
leave in LogComplex form.

Two recurrence loops, each with a fixed operation order so results are
reproducible bit for bit:

* ``eval_f_raw``, the complex recurrence behind every exact value, runs
  in fixed point on Python ints: the state carries P = bits + 64
  fraction bits (more if an input needs them to convert exactly), every
  shift and division rounds toward zero, so parity and Schwarz symmetry
  hold exactly in the state, and power-of-two renormalisation keeps the
  integers near 2**P.  Integer arithmetic makes the bits identical
  across runs, platforms and mpmath backends.
* ``_f_real``, the real recurrence at low degree shared by the
  orthogonality sums and their tail bound, runs in mpmath at the
  caller's precision; its nodes cost a log, a sqrt and an exp each,
  which dwarf its few recurrence steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp
from mpmath.libmp import from_man_exp

from .mpnum import (
    GUARD,
    ConfigError,
    DomainError,
    LogComplex,
    bits_of,
    cut_tolerance,
    round_to,
    to_mpc,
    to_mpf,
    working,
)
from .specfun import log_gamma_complex, log_gamma_real


@dataclass(frozen=True)
class NodeMass:
    """Support point x_k = (k+alpha)^(-1/2) and its orthogonality-measure jump."""

    k: int
    x: mpmath.mpf
    mass: mpmath.mpf


def _check_n_alpha(n, alpha):
    if n < 0:
        raise ConfigError("degree n must be >= 0")
    if not alpha > 0:
        raise ConfigError("alpha must be > 0")


RENORM_BITS = 16
FIXED_GUARD = 64  # fraction bits of the integer state beyond the requested width


def _fixed(v, P):
    """The finite mpf ``v`` as the integer v * 2**P; exact because P >= -exp."""
    sign, man, exp, _ = v._mpf_
    man <<= exp + P
    return -man if sign else man


def _fixed_bits(bits, *vals):
    """Fraction bits P of the state: bits + FIXED_GUARD, raised so that each
    nonzero value converts to an integer exactly."""
    P = bits + FIXED_GUARD
    for v in vals:
        if v:
            P = max(P, -v._mpf_[2])
    return P


def _trunc_shift(v, s):
    """v / 2**s rounded toward zero: odd in v, unlike the floor of ``>>``."""
    return v >> s if v >= 0 else -(-v >> s)


def _from_fixed(re, im, P):
    """The state pair re, im (scaled by 2**P) as an mpc, with no rounding."""
    return mp.make_mpc((from_man_exp(re, -P), from_man_exp(im, -P)))


def eval_f_raw(n: int, alpha, x, prec):
    """Renormalized recurrence state: (f_prev, f_curr, scale_exp2).

    The true value of f_n is ``f_curr * 2**scale_exp2``.  The state is kept
    as four Python ints (real and imaginary parts of f_(k-1) and f_k)
    scaled by 2**P, with P = bits + FIXED_GUARD, raised where needed so
    that Re x, Im x and alpha (each rounded to ``prec`` bits) convert to
    integers exactly.  One step is

        t = (X f_k) >> P                      (complex product)
        f_(k+1) = (k t + ((A t) >> P) - f_(k-1)) // (k+1)

    with X, A the scaled x and alpha.  Every shift and division rounds
    toward zero, so the rounding is odd in the sign of its argument: the
    state at -x and at conj(x) is the exact parity and Schwarz image of
    the state at x.  Whenever the largest component magnitude leaves
    [2**-16, 2**16] (bit length outside [P-16, P+16]), the whole state is
    shifted by that power of two and the exponent is accreted into
    ``scale_exp2``.  The returned mpc values are the integer state times
    2**-P, exactly, without rounding to ``prec``.
    """
    bits = bits_of(prec)
    a = to_mpf(alpha, bits)
    x = to_mpc(x, bits)
    if not (mpmath.isfinite(a) and mpmath.isfinite(x)):
        raise ConfigError(f"alpha and x must be finite, got alpha={a}, x={x}")
    _check_n_alpha(n, a)
    xr, xi = x.real, x.imag
    P = _fixed_bits(bits, a, xr, xi)
    A, XR, XI = _fixed(a, P), _fixed(xr, P), _fixed(xi, P)
    one = 1 << P
    if n == 0:
        return _from_fixed(0, 0, P), _from_fixed(one, 0, P), 0
    lo, hi = P - RENORM_BITS, P + RENORM_BITS
    pr, pi = one, 0
    cr, ci = _trunc_shift(A * XR, P), _trunc_shift(A * XI, P)
    scale = 0
    for k in range(1, n):
        # truncating shifts and divisions written out: a call per use
        # costs about a tenth of the step
        tr = XR * cr - XI * ci
        ti = XR * ci + XI * cr
        tr = tr >> P if tr >= 0 else -(-tr >> P)
        ti = ti >> P if ti >= 0 else -(-ti >> P)
        ur = A * tr
        ui = A * ti
        ur = ur >> P if ur >= 0 else -(-ur >> P)
        ui = ui >> P if ui >= 0 else -(-ui >> P)
        d = k + 1
        nr = k * tr + ur - pr
        ni = k * ti + ui - pi
        nr = nr // d if nr >= 0 else -(-nr // d)
        ni = ni // d if ni >= 0 else -(-ni // d)
        pr, pi, cr, ci = cr, ci, nr, ni
        m = max(pr.bit_length(), pi.bit_length(), cr.bit_length(), ci.bit_length())
        if m > hi or m < lo:
            e = m - P
            if e > 0:
                pr, pi = _trunc_shift(pr, e), _trunc_shift(pi, e)
                cr, ci = _trunc_shift(cr, e), _trunc_shift(ci, e)
            else:
                pr <<= -e
                pi <<= -e
                cr <<= -e
                ci <<= -e
            scale += e
    return _from_fixed(pr, pi, P), _from_fixed(cr, ci, P), scale


def eval_f(n: int, alpha, x, prec) -> LogComplex:
    """f_n(alpha; x) by forward recurrence, returned as LogComplex."""
    bits = bits_of(prec)
    _, f, scale = eval_f_raw(n, alpha, x, bits)
    if f == 0:
        return LogComplex.zero()
    with working(bits):
        lm = mpmath.log(abs(f)) + scale * mpmath.log(2)
        ph = mpmath.atan2(f.imag, f.real)
    return LogComplex(round_to(bits, lm), round_to(bits, ph))


def log_leading_coeff(n: int, alpha, prec):
    """log of the leading coefficient: lgamma(n+a) - lgamma(a) - lgamma(n+1)."""
    bits = bits_of(prec)
    a = to_mpf(alpha, bits)
    _check_n_alpha(n, a)
    with working(bits):
        v = log_gamma_real(n + a, bits + GUARD) - log_gamma_real(a, bits + GUARD) \
            - log_gamma_real(mpmath.mpf(n + 1), bits + GUARD)
    return round_to(bits, v)


def eval_monic_rescaled(n: int, alpha, z, prec) -> LogComplex:
    """The monic polynomial at the rescaled argument: f_n(n^(-1/2) z) / gamma_n."""
    bits = bits_of(prec)
    if n < 1:
        raise ConfigError("eval_monic_rescaled requires n >= 1")
    with working(bits):
        x = to_mpc(z, bits) / mpmath.sqrt(mpmath.mpf(n))
    v = eval_f(n, alpha, round_to(bits, x), bits)
    if v.is_zero():
        return v
    lg = log_leading_coeff(n, alpha, bits)
    with mp.workprec(bits):
        return LogComplex(v.log_mod - lg, v.phase)


def weight_wd(alpha, z, prec) -> LogComplex:
    """The continuous-weight extension w_d, analytic off the imaginary axis.

    w_d(z) = (1/z^2)^(1/z^2 - 1 - alpha) e^(alpha - 1/z^2) / Gamma(1/z^2 + 1 - alpha),
    positive on the real axis away from zero.
    """
    bits = bits_of(prec)
    a = to_mpf(alpha, bits)
    z = to_mpc(z, bits)
    with working(bits):
        on_axis = abs(z.real) < cut_tolerance(bits) * max(1, abs(z))
    if on_axis:
        raise DomainError(f"weight_wd: z={z} on or too close to the imaginary axis")
    with working(bits, GUARD + 8):
        s = 1 / (z * z)
        # principal log(1/z^2); z off iR keeps z^2 off (-inf, 0]
        ls = -mpmath.log(z * z)
        w = (s - 1 - a) * ls + (a - s) - log_gamma_complex(s + 1 - a, bits + GUARD)
        w = mpmath.mpc(w)
    return LogComplex(round_to(bits, w.real), round_to(bits, w.imag))


def iter_nodes_masses(alpha, k_max: int, prec):
    """Yield NodeMass(k, x_k, mass_k) for k = 0..k_max; log-space masses."""
    bits = bits_of(prec)
    a = to_mpf(alpha, bits)
    _check_n_alpha(0, a)
    if k_max < 0:
        raise ConfigError("k_max must be >= 0")
    log_fact = mpmath.mpf(0)
    for k in range(k_max + 1):
        # fresh context block per item: a yield inside workprec would leak
        # the elevated precision into the consumer's frame
        with working(bits):
            s = k + a
            t = mpmath.log(s)
            x = 1 / mpmath.sqrt(s)
            if k > 0:
                log_fact = log_fact + mpmath.log(k)
            lm = (k - 1) * t - k - log_fact
            item = NodeMass(k, round_to(bits, x), round_to(bits, mpmath.exp(lm)))
        yield item


def nodes_masses(alpha, k_max: int, prec):
    """Materialized list of nodes and masses (use the iterator for large k_max)."""
    return list(iter_nodes_masses(alpha, k_max, prec))


@dataclass(frozen=True)
class OrthoSum:
    """A truncated orthogonality sum and its a-posteriori tail bound."""

    m: int
    n: int
    value: mpmath.mpf
    tail_bound: mpmath.mpf
    k_max: int
    exact_zero: bool  # odd m+n vanishes term by term under x -> -x


def _f_real(f, coeff, alpha, x):
    """Fill ``f`` with f_0(x)..f_{len(f)-1}(x) at a real point.

    Plain recurrence at the ambient precision (no rescaling needed at
    the low degrees used here); ``coeff[j]`` is ``j + alpha``.
    """
    f[0] = mpmath.mpf(1)
    if len(f) > 1:
        f[1] = alpha * x
    for j in range(1, len(f) - 1):
        f[j + 1] = (coeff[j] * (x * f[j]) - f[j - 1]) / (j + 1)


def _poly_bound_near_zero(degs, alpha, x_hi, prec):
    """Sampled bound on max_j max_{0<=x<=x_hi} |f_j(x)| with a safety factor."""
    bits = bits_of(prec)
    f = [None] * (max(degs) + 1)
    with working(bits):
        coeff = [j + alpha for j in range(len(f) - 1)]
        best = mpmath.mpf(0)
        for i in range(9):
            x = x_hi * mpmath.mpf(i) / 8
            _f_real(f, coeff, alpha, x)
            for d in degs:
                best = max(best, abs(f[d]))
        return round_to(bits, 2 * best)


def ortho_matrix(alpha, max_deg: int, k_max: int, prec):
    """All pair sums (m, n) with m <= n <= max_deg in one pass over the nodes.

    Returns a dict {(m, n): OrthoSum}.  Sums are over both +-x_k, which by
    the parity of f doubles the one-sided sum for even m+n and cancels
    exactly for odd m+n.
    """
    bits = bits_of(prec)
    a = to_mpf(alpha, bits)
    _check_n_alpha(0, a)
    if max_deg < 0 or k_max < 0:
        raise ConfigError("max_deg and k_max must be >= 0")
    pairs = [(m, n) for m in range(max_deg + 1) for n in range(m, max_deg + 1) if (m + n) % 2 == 0]
    with mp.workprec(bits):
        acc = {p: mpmath.mpf(0) for p in pairs}
        coeff = [j + a for j in range(max_deg)]
        f = [None] * (max_deg + 1)
        log_fact = mpmath.mpf(0)
        for k in range(k_max + 1):
            s = k + a
            t = mpmath.log(s)
            xk = 1 / mpmath.sqrt(s)
            if k > 0:
                log_fact = log_fact + mpmath.log(k)
            mass = mpmath.exp((k - 1) * t - k - log_fact)
            _f_real(f, coeff, a, xk)
            for p in pairs:
                acc[p] = acc[p] + f[p[0]] * f[p[1]] * mass
    with working(bits):
        x_hi = 1 / mpmath.sqrt(k_max + a)
        out = {}
        for m in range(max_deg + 1):
            for n in range(m, max_deg + 1):
                if (m + n) % 2 == 1:
                    out[(m, n)] = OrthoSum(m, n, mpmath.mpf(0), mpmath.mpf(0), k_max, True)
                    continue
                mbound = _poly_bound_near_zero((m, n), a, x_hi, bits)
                tail = 4 * mpmath.exp(a) * mbound ** 2 / (mpmath.sqrt(2 * mpmath.pi) * mpmath.sqrt(k_max))
                out[(m, n)] = OrthoSum(m, n, round_to(bits, 2 * acc[(m, n)]),
                                       round_to(bits, tail), k_max, False)
    return out


def ortho_sum(m: int, n: int, alpha, k_max: int = 10 ** 6, prec=128) -> OrthoSum:
    """Discrete orthogonality sum over nodes |k| <= k_max with tail bound.

    Converges to h_n delta_mn with h_n = 2 e^alpha / ((n+alpha) n!); the
    masses decay like k^(-3/2), so the truncation tail is O(k_max^(-1/2)):
    slow but honest, hence the generous default node count.
    """
    if m < 0 or n < 0:
        raise ConfigError("m, n must be >= 0")
    lo, hi = min(m, n), max(m, n)
    if (m + n) % 2 == 1:
        return OrthoSum(m, n, mpmath.mpf(0), mpmath.mpf(0), k_max, True)
    mat = ortho_matrix(alpha, hi, k_max, prec)
    s = mat[(lo, hi)]
    return OrthoSum(m, n, s.value, s.tail_bound, k_max, False)


def h_norm(n: int, alpha, prec):
    """The orthogonality normalization h_n = 2 e^alpha / ((n+alpha) n!)."""
    bits = bits_of(prec)
    a = to_mpf(alpha, bits)
    with working(bits):
        v = 2 * mpmath.exp(a) / ((n + a) * mpmath.factorial(n))
    return round_to(bits, v)
