"""Ground-truth evaluation: recurrence, weights, nodes, orthogonality sums.

The polynomial family satisfies

    (n+1) f_{n+1}(x) = (n+alpha) x f_n(x) - f_{n-1}(x),
    f_0 = 1,  f_1 = alpha x,

and is orthogonal with respect to the purely discrete measure with masses
(k+alpha)^(k-1) e^-k / k! at the nodes +-(k+alpha)^(-1/2).  Everything here
is computed at an explicit precision; values that scale like exp(n log n)
leave in LogComplex form.

Two fixed-point kernels, both in the format of ``tcasym.mpnum``
(Python ints, every shift and division rounding down) and each with a
fixed operation order, so results are reproducible bit for bit across
runs, platforms and mpmath backends:

* ``eval_f_raw``, the complex recurrence behind every exact value, run
  division-free for g_k = k! f_k, two steps at a time on the even and
  odd parts g_2m = E_m(x**2), g_(2m+1) = x O_m(x**2): the odd step takes
  no product by x, the even step one complex product by a multiplier in
  y = x**2, in three big-int products (Gauss's form, one product when y
  is real), on a state with P = bits + 64 fraction bits (more if an
  input needs them to convert exactly), at the first-quadrant image of
  x, whose result maps back exactly, so parity and Schwarz symmetry hold
  bit for bit; power-of-two renormalisation every 8 steps keeps the
  integers near 2**P.
* ``ortho_matrix``, the orthogonality sums, over ``_fixed_nodes_masses``,
  the one mass generator (``iter_nodes_masses`` rounds from it too, with
  the nodes of ``_fixed_node``), which takes no logarithm or exponential
  per node and no square root: each mass is an
  integer power of k + alpha times a running product for e^-k / k!.
  f_m f_n is a polynomial in x**2 = 1/(k+alpha) for even m+n, so a node
  only adds into the max_deg + 1 power moments, and each pair sum is one
  exact rational in them, rounded once, with a bound on its error before
  that rounding.  The nine samples behind the tail bounds come from the
  same integer coefficients, each f_j(x) taken exactly and floored once
  (``_tail_samples``).
"""

from __future__ import annotations

from math import factorial, isqrt
from typing import NamedTuple

import mpmath
from mpmath import mp
from mpmath.libmp import (from_int, fzero, mpc_abs, mpc_div_mpf, mpc_pos, mpf_add, mpf_atan2, mpf_exp, mpf_log,
                          mpf_mul_int, mpf_pos, mpf_sqrt, mpf_sub, round_floor)
from mpmath.libmp import round_nearest as _RND

from .mpnum import (
    GUARD,
    ConfigError,
    DomainError,
    LogComplex,
    PoleError,
    bits_of,
    fixed_bits,
    fixed_mpf,
    fixed_raw,
    raw_fixed,
    require_finite,
    round_to,
    to_mpc,
    to_mpf,
    working,
)
from .specfun import log_gamma_complex, log_gamma_real


class NodeMass(NamedTuple):
    """Support point x_k = (k+alpha)^(-1/2) and its orthogonality-measure jump."""

    k: int
    x: mpmath.mpf
    mass: mpmath.mpf


def _check_n_alpha(n, alpha):
    if n < 0:
        raise ConfigError("degree n must be >= 0")
    if not alpha > 0:
        raise ConfigError("alpha must be > 0")
    if not mpmath.isfinite(alpha):
        raise ConfigError(f"alpha must be finite, got {alpha}")


RENORM_BITS = 16  # the returned state's largest bit length lies in [P-16, P+16]
FIXED_GUARD = 64  # fraction bits of the integer state beyond the requested width
BLOCK_STEPS = 8  # recurrence steps between two checks of the state's size
WINDOW_BITS = 48  # a check rescales the state once it leaves [P-48, P+48]


def _renorm(state, P, width):
    """(state, e): the ints of ``state`` times 2**-e (floor), with e the
    shift that brings their largest bit length to P, when that length lies
    outside [P - width, P + width]; else the state unchanged and e = 0."""
    m = max(map(int.bit_length, state))
    if P - width <= m <= P + width:
        return state, 0
    e = m - P
    return (tuple(v >> e for v in state) if e > 0 else tuple(v << -e for v in state)), e


def eval_f_raw(n: int, alpha, x, prec):
    """Renormalized state of g_k = k! f_k: (g_(n-1), g_n, scale_exp2).

    g_n is ``g_curr * 2**scale_exp2``, and g_(k+1) = (k+alpha) x g_k -
    k g_(k-1), g_(-1) = 0, g_0 = 1, needs no division.  g_k has the parity
    of k, so with y = x**2 the loop runs on g_2m = E_m(y) and
    g_(2m+1) = x O_m(y), two steps at a time:

        O_m     = (2m+alpha) E_m - 2m O_(m-1),
        E_(m+1) = (2m+1+alpha) y O_m - (2m+1) E_m,

    O_(-1) = 0, E_0 = 1, and x O is formed once, after the loop.  The
    state is four ints (Re and Im of O and E) scaled by 2**P,
    P = bits + FIXED_GUARD, raised so that Re x, Im x and alpha (rounded
    to ``prec`` bits) convert exactly to X, A.  y is the exact X**2
    floored to Q = P + s fraction bits, s in [0, P] chosen so that the
    larger part of y has about P significant bits (a tiny |x| would
    otherwise leave y with 2 log2(1/|x|) bits fewer).  Every ``>>`` is a
    floor shift.

    * The odd step takes no product by x: 2m is a small int, and alpha E
      is (ma E) >> (P - tz) with A = ma 2**tz, tz <= P, equal to
      (A E) >> P, a small multiply when alpha has few significant bits.
      Each part of O_m is off by under 1 unit.
    * The even step is the pair's one complex product, by
      W_m = (2m+1) Y + ((A Y) >> P), Y the floored y, carried by adds
      (+2Y a pair), which is (2m+1+alpha) y 2**Q to within 2m+2+alpha
      units per part.  It takes Gauss's three big-int products: with
      t = Re W (Re O + Im O), its parts are t - Im O (Re W + Im W) and
      t + Re O (Im W - Re W), the two sums of W carried by adds as W is;
      these are identities on the integers before the same floor shift
      by Q.  Each part of E_(m+1) is off by under
      1 + (2m+2+alpha)(|Re O_m| + |Im O_m|) 2**-Q units.  When Im Y = 0
      (x on an axis) the imaginary parts stay 0, and the step is the one
      product (Re W Re O) >> Q.
    * x O is (X O) >> P, off by under 1 unit per part.

    The loop runs at |Re x| + i |Im x|, and its state is mapped exactly:
    conjugated when one of Re x, Im x is negative, g_k negated for odd k
    when Re x < 0.  Parity and Schwarz symmetry therefore hold bit for bit,
    whatever the rounding.

    Every BLOCK_STEPS = 8 steps (four pairs), a state whose largest bit
    length has left [P-48, P+48] (WINDOW_BITS) is shifted back to P, the
    exponent accreted into ``scale_exp2``.  Between checks it mostly
    grows, and it cannot fall far: a pair maps (O_(m-1), E_m) to
    (O_m, E_(m+1)) by T_m = [[-2m, a_m], [-2m b_m, a_m b_m - 2m - 1]],
    a_m = 2m+alpha, b_m = (2m+1+alpha) y, of determinant 2m (2m+1), so it
    shrinks the state (max norm) by at most |T_m^-1| =
    max(|a_m b_m - 2m - 1| + a_m, 2m (|b_m| + 1)) / (2m (2m+1)).  For
    |x|, alpha <= 2.5 that is below 10.8 from m = 4 (step 8) on: a block
    loses under 15 bits (the sqrt 2 between a complex modulus and its
    parts included) and stays above P-64.  The first block starts at P;
    its first pair leaves max(alpha, |(1+alpha) alpha y - 1|) > 0.12 (3.1
    bits lost) and the next three lose under 4.8, 4 and 3.7 bits, under
    16 in all with the sqrt 2.  A last shift, after x O is formed, puts
    the largest bit length of (g_(n-1), g_n) into [P-16, P+16]
    (RENORM_BITS).  The mpc values are the integer state times 2**-P,
    exactly, not rounded to ``prec``.

    The loop runs block by block, k = 0, 8, 16, ..., each block ending in
    the window check.  A full block (k + 8 <= n) has its four pairs
    written out as straight-line code, j counting up from k through the
    pair's odd and even steps; only a last block of 1 to 3 pairs runs them
    in a loop.  Both forms take the same operations in the same
    order, so the state does not depend on which one ran.
    """
    bits = bits_of(prec)
    a = to_mpf(alpha, bits)
    x = to_mpc(x, bits)
    if not (mpmath.isfinite(a) and mpmath.isfinite(x)):
        raise ConfigError(f"alpha and x must be finite, got alpha={a}, x={x}")
    _check_n_alpha(n, a)
    xr, xi = x.real, x.imag
    P = fixed_bits(bits + FIXED_GUARD, a._mpf_, xr._mpf_, xi._mpf_)
    A, XR, XI = (abs(raw_fixed(v._mpf_, P)) for v in (a, xr, xi))
    YR, YI = XR * XR - XI * XI, 2 * XR * XI  # y scaled by 2**(2P), exact
    s = min(P, max(0, 2 * P - max(abs(YR).bit_length(), YI.bit_length())))
    Q = P + s
    YR, YI = YR >> (P - s), YI >> (P - s)
    tz = min(P, (A & -A).bit_length() - 1)
    ma, sh = A >> tz, P - tz
    W, WI = YR + (A * YR >> P), YI + (A * YI >> P)  # (1+alpha) y 2**Q
    S, D = W + WI, WI - W
    W2, S2, D2 = 2 * YR, 2 * (YR + YI), 2 * (YI - YR)
    lo, hi = P - WINDOW_BITS, P + WINDOW_BITS
    qr, qi, er, ei, scale = 0, 0, 1 << P, 0, 0
    last = n - BLOCK_STEPS  # a block starting past this is the last one, of 1 to 3 pairs
    for k in range(0, n - 1, BLOCK_STEPS):
        if k > last:
            if YI:
                for j in range(k, n - 1, 2):
                    qr, qi = j * (er - qr) + (ma * er >> sh), j * (ei - qi) + (ma * ei >> sh)
                    t = W * (qr + qi)
                    er, ei = ((t - qi * S) >> Q) - (j + 1) * er, ((t + qr * D) >> Q) - (j + 1) * ei
                    W, S, D = W + W2, S + S2, D + D2
            else:
                for j in range(k, n - 1, 2):
                    qr = j * (er - qr) + (ma * er >> sh)
                    er = ((W * qr) >> Q) - (j + 1) * er
                    W += W2
        elif YI:  # the four pairs of a full block, written out
            j = k
            qr, qi = j * (er - qr) + (ma * er >> sh), j * (ei - qi) + (ma * ei >> sh)
            t = W * (qr + qi)
            j += 1
            er, ei = ((t - qi * S) >> Q) - j * er, ((t + qr * D) >> Q) - j * ei
            W, S, D = W + W2, S + S2, D + D2
            j += 1
            qr, qi = j * (er - qr) + (ma * er >> sh), j * (ei - qi) + (ma * ei >> sh)
            t = W * (qr + qi)
            j += 1
            er, ei = ((t - qi * S) >> Q) - j * er, ((t + qr * D) >> Q) - j * ei
            W, S, D = W + W2, S + S2, D + D2
            j += 1
            qr, qi = j * (er - qr) + (ma * er >> sh), j * (ei - qi) + (ma * ei >> sh)
            t = W * (qr + qi)
            j += 1
            er, ei = ((t - qi * S) >> Q) - j * er, ((t + qr * D) >> Q) - j * ei
            W, S, D = W + W2, S + S2, D + D2
            j += 1
            qr, qi = j * (er - qr) + (ma * er >> sh), j * (ei - qi) + (ma * ei >> sh)
            t = W * (qr + qi)
            j += 1
            er, ei = ((t - qi * S) >> Q) - j * er, ((t + qr * D) >> Q) - j * ei
            W, S, D = W + W2, S + S2, D + D2
        else:
            j = k
            qr = j * (er - qr) + (ma * er >> sh)
            j += 1
            er = ((W * qr) >> Q) - j * er
            W += W2
            j += 1
            qr = j * (er - qr) + (ma * er >> sh)
            j += 1
            er = ((W * qr) >> Q) - j * er
            W += W2
            j += 1
            qr = j * (er - qr) + (ma * er >> sh)
            j += 1
            er = ((W * qr) >> Q) - j * er
            W += W2
            j += 1
            qr = j * (er - qr) + (ma * er >> sh)
            j += 1
            er = ((W * qr) >> Q) - j * er
            W += W2
        m = max(qr.bit_length(), qi.bit_length(), er.bit_length(), ei.bit_length())
        if not lo <= m <= hi:
            e = m - P
            qr, qi, er, ei = (qr >> e, qi >> e, er >> e, ei >> e) if e > 0 else \
                (qr << -e, qi << -e, er << -e, ei << -e)
            scale += e
    if n % 2:  # the last step, g_n = x O_(n-1)/2
        j = n - 1
        qr, qi = j * (er - qr) + (ma * er >> sh), j * (ei - qi) + (ma * ei >> sh)
    gr, gi = (XR * qr - XI * qi) >> P, (XR * qi + XI * qr) >> P
    state = (er, ei, gr, gi) if n % 2 else (gr, gi, er, ei)
    (pr, pi, cr, ci), e = _renorm(state, P, RENORM_BITS)
    if xr < 0:  # g_k(-x) = (-1)^k g_k(x), and one of n-1, n is odd
        pr, pi, cr, ci = (pr, pi, -cr, -ci) if n % 2 else (-pr, -pi, cr, ci)
    if (xr < 0) != (xi < 0):
        pi, ci = -pi, -ci
    return (mp.make_mpc((fixed_raw(pr, P), fixed_raw(pi, P))),
            mp.make_mpc((fixed_raw(cr, P), fixed_raw(ci, P))), scale + e)


def _log_g_over(n, alpha, x, bits, log_den):
    """log(g_n(x) / d), rounded once, with the raw log d = ``log_den(wp)``
    taken after the kernel's checks.  The sums run at wp = bits + GUARD by
    raw libmp calls, the ones the context's operators would make."""
    _, g, scale = eval_f_raw(n, alpha, x, bits)
    if g == 0:
        return LogComplex.zero()
    wp = bits + GUARD
    re, im = g._mpc_
    lm = mpf_add(mpf_log(mpc_abs(g._mpc_, wp, _RND), wp, _RND),
                 mpf_mul_int(mpf_log(from_int(2), wp, _RND), scale, wp, _RND), wp, _RND)
    lm = mpf_sub(lm, log_den(wp), wp, _RND)
    ph = mpf_atan2(im, re, wp, _RND)
    return LogComplex(mp.make_mpf(mpf_pos(lm, bits, _RND)), mp.make_mpf(mpf_pos(ph, bits, _RND)))


def eval_f(n: int, alpha, x, prec) -> LogComplex:
    """f_n(alpha; x) = g_n(x) / n! by forward recurrence, as LogComplex;
    for n <= 1, g_n = f_n and nothing is subtracted."""
    bits = bits_of(prec)
    return _log_g_over(n, alpha, x, bits,
                       lambda wp: log_gamma_real(mp.make_mpf(from_int(n + 1)), wp)._mpf_ if n >= 2 else fzero)


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
    """The monic polynomial at the rescaled argument: f_n(n^(-1/2) z) / gamma_n
    = g_n Gamma(alpha) / Gamma(n+alpha), the n! of g_n and gamma_n cancelling.
    x = z/sqrt(n) is formed at bits + GUARD and rounded to ``prec``."""
    bits = bits_of(prec)
    if n < 1:
        raise ConfigError("eval_monic_rescaled requires n >= 1")
    a = to_mpf(alpha, bits)
    wp = bits + GUARD
    x = mpc_div_mpf(to_mpc(z, bits)._mpc_, mpf_sqrt(from_int(n), wp, _RND), wp, _RND)

    def log_den(wp):
        na = mp.make_mpf(mpf_add(a._mpf_, from_int(n), wp, _RND))
        return mpf_sub(log_gamma_real(na, wp)._mpf_, log_gamma_real(a, wp)._mpf_, wp, _RND)

    return _log_g_over(n, a, mp.make_mpc(mpc_pos(x, bits, _RND)), bits, log_den)


def weight_wd(alpha, z, prec) -> LogComplex:
    """The continuous-weight extension w_d, analytic off the imaginary axis.

    w_d(z) = (1/z^2)^(1/z^2 - 1 - alpha) e^(alpha - 1/z^2) / Gamma(1/z^2 + 1 - alpha),
    real on the real axis away from zero: positive for alpha <= 1, of
    either sign for alpha > 1, and 0 at the poles of that Gamma.  Only
    Re z = 0 raises.  At tiny z the width grows as in ``auxfun._d_width``:
    the exponent's terms grow like |s log s|, s = 1/z^2.
    """
    bits = bits_of(prec)
    a = to_mpf(alpha, bits)
    z = to_mpc(z, bits)
    require_finite(z, "weight_wd")
    if not z.real:
        raise DomainError(f"weight_wd: z={z} on the imaginary axis")
    wb = bits + max(0, 10 - 2 * mpmath.mag(z) - GUARD)
    with working(wb, GUARD + 8):
        s = 1 / (z * z)
        # principal log(1/z^2); z off iR keeps z^2 off (-inf, 0]
        ls = -mpmath.log(z * z)
        try:
            lg = log_gamma_complex(s + 1 - a, wb + GUARD)
        except PoleError:  # 1/Gamma vanishes at its poles
            return LogComplex.zero()
        w = (s - 1 - a) * ls + (a - s) - lg
    return LogComplex.from_exponent(w, bits)


MASS_GUARD = 8  # mantissa bits of the mass factors beyond P


def _node_bits(bits, a, k_max):
    """Fraction bits P of the node/mass generator and the ortho kernel:
    bits + FIXED_GUARD + k_max.bit_length(), raised so that alpha converts
    exactly.  The masses carry a relative error that grows like
    k * 2**-(P+8) (``_fixed_nodes_masses``), which the k_max.bit_length()
    bits absorb."""
    return fixed_bits(bits + FIXED_GUARD + k_max.bit_length(), a._mpf_)


def _fixed_node(A, k, P):
    """2**P x_k rounded down, isqrt(2**(3P) // S) with S = (k << P) + A
    exact, where A is alpha scaled by 2**P."""
    return isqrt((1 << (3 * P)) // ((k << P) + A))


def _fixed_nodes_masses(A, k_max, P):
    """Yield (k, M) for k = 0..k_max: mass_k as an integer scaled by 2**P,
    where A is alpha scaled by 2**P; ``_fixed_node`` gives the node x_k.

    With S = (k << P) + A, which is exact, M = 2**(2P) // S at k = 0 is
    the mass 1/alpha.  From k = 1 on, mass_k = s^(k-1) r_k with
    s = k + alpha and r_k = e^-k / k!, and no node takes a logarithm or
    an exponential.
    Both factors are floating ints, a mantissa times a power of two, and
    every product is floored to Q = P + MASS_GUARD bits; with u = 2**-Q:

    * r_k = r_(k-1) E / k, with E = floor(e^-1 2**Q) from one raw
      ``mpf_exp`` per call, off by under e u relative.  A step floors the
      exact r_(k-1) E / k once, losing under 2u, so r_k is off by under
      (e + 2) k u.
    * s^(k-1) = S^(k-1) 2**(-P(k-1)) comes from left-to-right binary
      powering of S, every multiply by S itself, so the base carries no
      rounding.  A square doubles the error carried so far and each floor
      adds under 2u; by induction on the exponent j, S^j is off by under
      4(j-1) u, that is 4(k-2) u.

    Every floor rounds down and the error factors multiply, so M, the
    floor of the mantissa product times 2**(exponent + P), is off from
    2**P mass_k by under 9k u = 9k 2**-(P+8) relative (below
    0.036 k 2**-P), plus under one unit from that last floor.  Nothing
    here touches the mpmath context.
    """
    Q = P + MASS_GUARD
    one = 1 << P
    S = A
    yield 0, (one << P) // S
    if k_max < 1:
        return
    E = raw_fixed(mpf_exp(from_int(-1), Q + 16, round_floor), Q)
    S += one
    yield 1, E >> MASS_GUARD
    rm, re = E, -Q  # r_k = rm 2**re
    for k in range(2, k_max + 1):
        S += one
        t = rm * E // k
        sh = t.bit_length() - Q
        rm, re = t >> sh, re + sh - Q
        pm, pe = S, 0  # S^j = pm 2**pe, j the prefix of k-1 read so far
        for bit in bin(k - 1)[3:]:
            pm *= pm
            sh = pm.bit_length() - Q
            pm, pe = pm >> sh, 2 * pe + sh
            if bit == "1":
                pm *= S
                sh = pm.bit_length() - Q
                pm, pe = pm >> sh, pe + sh
        M = pm * rm
        sh = pe + re - P * (k - 2)
        yield k, M << sh if sh >= 0 else M >> -sh


def iter_nodes_masses(alpha, k_max: int, prec):
    """Yield NodeMass(k, x_k, mass_k) for k = 0..k_max.

    The values are those ``ortho_matrix(alpha, d, k_max, prec)`` sums
    over, each rounded once to ``prec`` bits.
    """
    bits = bits_of(prec)
    a = to_mpf(alpha, bits)
    _check_n_alpha(0, a)
    if k_max < 0:
        raise ConfigError("k_max must be >= 0")
    P = _node_bits(bits, a, k_max)
    A = raw_fixed(a._mpf_, P)
    for k, M in _fixed_nodes_masses(A, k_max, P):
        yield NodeMass(k, fixed_mpf(_fixed_node(A, k, P), P, bits), fixed_mpf(M, P, bits))


class OrthoSum(NamedTuple):
    """A truncated orthogonality sum and its a-posteriori tail bound."""

    m: int
    n: int
    value: mpmath.mpf
    tail_bound: mpmath.mpf
    k_max: int
    exact_zero: bool  # odd m+n vanishes term by term under x -> -x
    err_bound: mpmath.mpf  # |unrounded sum - exact truncated sum|, rounded up


def _g_coeffs(A, max_deg, P):
    """G_0..G_max_deg: with alpha = A 2**-P, g_j = j! f_j is
    2**(-Pj) sum_s G_j[s] x**(2s + j % 2), on integers G_j[s], by
    G_(j+1) = ((j << P) + A) x G_j - j 2**(2P) G_(j-1), G_0 = [1], G_1 = [A]."""
    G = [[1], [A]]
    for j in range(1, max_deg):
        nxt = [0] * (j % 2) + [((j << P) + A) * v for v in G[j]]
        for s, v in enumerate(G[j - 1]):
            nxt[s] -= (j << 2 * P) * v
        G.append(nxt)
    return G[:max_deg + 1]


def _tail_samples(G, X, P):
    """Rows [F_0, ..., F_max_deg] at the nine points x_i = X_i 2**-P,
    X_i = (X i) >> 3, i = 0..8, with F_j = floor(2**P f_j(x_i)) and G =
    ``_g_coeffs(A, max_deg, P)``.  With Y = X_i**2 and K = len(G_j) - 1,
    g_j(x_i) 2**(2Pj) = X_i**(j % 2) sum_s G_j[s] Y**s 2**(2P(K-s)) is an
    integer, taken exactly by Horner in Y, and F_j is its one floor by
    j! 2**(P(2j-1)): a floor shift and then a floor division by j!, which
    together floor once."""
    polys = [([v << 2 * P * t for t, v in enumerate(reversed(c))], j % 2, P * (2 * j - 1), factorial(j))
             for j, c in enumerate(G)]
    rows = []
    for i in range(9):
        x = X * i >> 3
        y = x * x
        row = []
        for c, odd, sh, fj in polys:
            h = 0
            for v in c:
                h = h * y + v
            row.append(((h * x if odd else h) >> sh) // fj if sh >= 0 else h << P)  # j = 0: sh = -P
        rows.append(row)
    return rows


def ortho_matrix(alpha, max_deg: int, k_max: int, prec):
    """All pair sums (m, n) with m <= n <= max_deg in one pass over the nodes.

    Returns a dict {(m, n): OrthoSum}.  Sums are over both +-x_k, which by
    the parity of f doubles the one-sided sum for even m+n and cancels
    exactly for odd m+n.

    For even m+n, f_m f_n is a polynomial in x**2 = 1/(k+alpha), so the
    pass only accumulates the power moments mu_i = sum_k mass_k
    (k+alpha)**-i, i = 0..max_deg, on Python ints scaled by 2**P, with
    P = bits + FIXED_GUARD + k_max.bit_length() (``_node_bits``), fed by
    ``_fixed_nodes_masses``: per node t = M, then max_deg times
    t = (t << P) // S with S = (k << P) + A exact.  Since alpha = A 2**-P,
    g_j = j! f_j has integer coefficients G_j (``_g_coeffs``), and each
    pair sum 2 sum G_m[s] G_n[t] mu_(s+t+m%2) / (m! n! 2**(P(m+n+1))) is
    one rational, rounded once to ``prec`` bits.

    ``err_bound`` bounds the distance of that rational from the exact
    truncated sum (``value`` adds at most half an ulp).  A mass is off by
    under 9k 2**-(P+8) relative plus one unit (the generator's bound; node
    0's mass 2**(2P) // A is one floor, with no relative error) and each
    division adds under one unit to the carried error times 2**P / S,
    which exceeds 1 only at k = 0 when alpha < 1; so moment i is off by
    under E_i = 2 (9 k_max (mu_i - nu_i) 2**-(P+8) + (i+1)(k_max + r**i))
    units, nu_i node 0's share of mu_i and r = max(1, ceil(1/alpha)), and
    the sum by under 2 sum |G_m[s] G_n[t]| E_(s+t+m%2) over the same
    denominator, rounded up: far below an ulp for alpha >= 1/2, and under
    1e-6 relative at alpha = 1e-30, where node 0 holds nearly all of mu_i
    and its floor errors, carried through max_deg divisions by alpha,
    cancel in the sum much as f_m f_n does.

    The tail bound of pair (m, n) is 4 e^alpha B^2 / sqrt(2 pi k_max),
    with B twice the largest |f_m|, |f_n| over the nine points
    (X i) >> 3, i = 0..8, of [0, x_(k_max)] (X the last node, scaled),
    each f_j taken from G_j with one floor (``_tail_samples``), and B rounded
    once to ``prec`` bits: a heuristic bound on f near zero, not a proven
    one.
    """
    bits = bits_of(prec)
    a = to_mpf(alpha, bits)
    _check_n_alpha(0, a)
    if k_max < 1:
        raise ConfigError("k_max must be >= 1")
    if max_deg < 0:
        raise ConfigError("max_deg must be >= 0")
    P = _node_bits(bits, a, k_max)
    A = raw_fixed(a._mpf_, P)
    mu = [0] * (max_deg + 1)
    for k, M in _fixed_nodes_masses(A, k_max, P):
        S, t = (k << P) + A, M
        mu[0] += t
        for i in range(1, max_deg + 1):
            t = (t << P) // S
            mu[i] += t
        if not k:
            mu0 = mu[:]  # node 0's share, whose mass carries no relative error
    r = max(1, -(-(1 << P) // A))
    err = [(9 * k_max * (v - v0) >> (P + 7)) + 1 + 2 * (i + 1) * (k_max + r ** i)
           for i, (v, v0) in enumerate(zip(mu, mu0))]
    G = _g_coeffs(A, max_deg, P)
    X = _fixed_node(A, k_max, P)  # x_(k_max), the inner end of the node set
    sampled = [max(map(abs, col)) for col in zip(*_tail_samples(G, X, P))]
    with working(bits):
        ea = mpmath.exp(a)
        den = mpmath.sqrt(2 * mpmath.pi) * mpmath.sqrt(k_max)
        out = {}
        for m in range(max_deg + 1):
            for n in range(m, max_deg + 1):
                if (m + n) % 2 == 1:
                    out[(m, n)] = OrthoSum(m, n, mpmath.mpf(0), mpmath.mpf(0), k_max, True, mpmath.mpf(0))
                    continue
                num = bnd = 0
                for i, u in enumerate(G[m], m % 2):
                    for j, v in enumerate(G[n], i):
                        c = u * v
                        num, bnd = num + c * mu[j], bnd + abs(c) * err[j]
                d, e = factorial(m) * factorial(n), P * (m + n + 1)
                value = mpmath.fdiv(mp.make_mpf(fixed_raw(2 * num, e)), d, prec=bits, rounding="n")
                bound = mpmath.fdiv(mp.make_mpf(fixed_raw(2 * bnd, e)), d, prec=bits, rounding="c")
                mbound = fixed_mpf(2 * max(sampled[m], sampled[n]), P, bits)
                tail = 4 * ea * mbound ** 2 / den
                out[(m, n)] = OrthoSum(m, n, value, round_to(bits, tail), k_max, False, bound)
    return out


def h_norm(n: int, alpha, prec):
    """The orthogonality normalization h_n = 2 e^alpha / ((n+alpha) n!)."""
    bits = bits_of(prec)
    a = to_mpf(alpha, bits)
    _check_n_alpha(n, a)
    with working(bits):
        v = 2 * mpmath.exp(a) / ((n + a) * mpmath.factorial(n))
    return round_to(bits, v)
