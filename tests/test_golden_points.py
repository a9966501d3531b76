"""Bit-level pins for log-gamma at the arguments the workloads send it and
for whole ``compare_point`` records.

The log-gamma cases are raw libmp ``_mpf_`` tuples at 272 bits, the width
``d_func`` asks for at 256 bits: four arguments alpha - n/z^2 of points
of the benchmark workloads, formed at 280 bits as ``d_func`` forms them
(regions A and D, one with Re below -300, one real), two arguments within
1e-6 relative of a pole, and log-gamma at two alpha of three decimals and
at n + alpha.  The records are the SHA-256 of every field of
``compare_point`` at 256 bits, mantissas included, at one benchmark point
per region of the ``sweep`` traffic and one of the ``deep`` traffic.
All were recorded before log-gamma's reflection half-plane moved into
the fixed-point kernel, so any bit that moves shows here.
"""

import hashlib

import mpmath
import pytest

from tcasym.harness import compare_point
from tcasym.mpnum import GUARD, LogComplex, working
from tcasym.specfun import log_gamma_complex, log_gamma_real

# (n, alpha, z): the log-gamma argument is alpha - n/z^2
_ARGS = {
    "sweep A": (100, "2", ("6.429938", "-0.853009")),
    "sweep D": (1600, "2", ("8.421309", "-0.045148")),
    "deep A": (1388, "0.622", ("1.963198", "0.347240")),
    "real D": (800, "1", ("4.1", "0")),
}
_POLES = {"near -40": ("-40.00003", "1.7e-6"), "near -7": ("-7.0000000051", "-3e-9")}

_GOLDEN_REFLECTION_272 = {
    "sweep A": (
        (0, 6016157087442077561989080703912818004105024703989410973749023423392383405405693803, -274, 272),
        (0, 2448469992586142453147234688152399752755020837409254572350655384908946624086868519, -269, 271)),
    "sweep D": (
        (1, 5115217723071296845820787568788363697194312507361107086337766149169101053059375063, -266, 272),
        (0, 968670781907892320576610755827028907887568329729877969398738823750383456277173549, -263, 270)),
    "deep A": (
        (1, 7134627510761223234750284111478394386993624144217223878288889718210650815206708547, -261, 272),
        (1, 1236412818560041463641636540320714874888282568164936471729196719671575366482974413, -261, 270)),
    "real D": (
        (1, 3973271813668370335130646511518548248534626655485241375511649272437679161893178967, -264, 272),
        (1, 2188449806580866206869893415750822853722814558007608858631973261125520389108570585, -263, 271)),
    "near -40": (
        (1, 740387887875605270641655458665842063888130453307756176729528140415885886191382229, -262, 269),
        (1, 1908234160903000473734421989702920711888682180822442496089354203002026499664515519, -263, 271)),
    "near -7": (
        (0, 4942179825417304226070004360966596039865423688523731509674123228226190264135015401, -268, 272),
        (0, 2916969649959203072432507722290001112460270482710792010322940462644563074742209655, -266, 271)),
}

_GOLDEN_REAL_272 = {
    "0.731": (0, 6810793419970872711467730464773995897389415792617305226484090656533733565738136499, -274, 272),
    "2.246": (0, 7441999723404570946892350224326585552963398835431734845829288082728441797034990051, -275, 272),
    (400, "0.731"): (0, 7406576138079838293212603319087340164347150369311794793968111980434870342138720833, -261, 272),
    (1464, "2.246"): (0, 4270707087089903149457684608762947669301339117326920138747178884113851253048419645, -258, 272),
}

# the first point of each region in pass 0 of seed 3101
POINTS = {
    "sweep A": (800, "1", ("14.412501", "-2.203183")),
    "sweep B": (800, "0.5", ("0.342187", "-0.144758")),
    "sweep C": (100, "0.5", ("-1.917030", "-0.013185")),
    "sweep D": (800, "2", ("-4.151297", "-0.218113")),
    "sweep origin": (400, "0.5", ("0.099300", "-0.027840")),
    "deep A": (1640, "1.111", ("33.500330", "0.598600")),
    "deep B": (1273, "0.634", ("1.568148", "0.000000")),
    "deep C": (1105, "1.968", ("-1.885925", "0.060890")),
    "deep D": (1745, "2.057", ("-8.859010", "-0.034461")),
    "deep origin": (1355, "0.765", ("0.016021", "-0.072515")),
}

_GOLDEN_RECORDS = {
    'sweep A': '72a09b3c2b77ce3223f90a96b342d2dac108c6385c4f7524125df053a60971e5',
    'sweep B': 'ce12823adbf7d87a0f0365a5baf747bda68b9b365b6447318720b4e00d0a2eac',
    'sweep C': 'ef29da08823a69ad6b9c10dec36b97184f46300a6d183f2eb9918a5c17149950',
    'sweep D': 'fa023beef4f69cfac4b849948831180d354348fdf19168de15cd8afa448cc3e4',
    'sweep origin': 'f009d6c0bc8ae937b0456a4a899f3b4c2df99d565fc6ba2de9bb54993b2f4de9',
    'deep A': 'b0dec6aca08db88912065f9727ce4f07deb06896fb9924c622bb4330da603303',
    'deep B': 'fe33661e62e711bb5fb14c22e8198fa963fcf1ab92fe7c53023bc2b14475dc02',
    'deep C': '915227cc52cf0dcf405a223f02a747c77accc9e33a72cb183473ce8df02e6b0f',
    'deep D': '821d1dedfdb7338302fb75f9f3539ffc1b524647b28c508352bea883a98a9965',
    'deep origin': '96414a3f89c1a18958834979011d9d2147cad59c1750f3b04a79ef396baaf2c8',
}


def _arg(n, a, z):
    with working(256, GUARD + 8):
        zz = mpmath.mpc(*z)
        return mpmath.mpf(a) - n / (zz * zz)


def _digest(rec):
    """SHA-256 of a record with every mpf as its raw tuple."""
    def raw(v):
        if isinstance(v, LogComplex):
            return (v.log_mod._mpf_, v.phase._mpf_)
        return v
    return hashlib.sha256(repr(tuple(raw(v) for v in rec)).encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(_GOLDEN_REFLECTION_272))
def test_log_gamma_reflection(key):
    if key in _ARGS:
        arg = _arg(*_ARGS[key])
    else:
        with working(272, 0):
            arg = mpmath.mpc(*_POLES[key])
    v = log_gamma_complex(arg, 272)
    assert (v.real._mpf_, v.imag._mpf_) == _GOLDEN_REFLECTION_272[key]


@pytest.mark.parametrize("key", sorted(_GOLDEN_REAL_272, key=str))
def test_log_gamma_real(key):
    if isinstance(key, tuple):
        with working(272, 0):
            x = mpmath.mpf(key[0]) + mpmath.mpf(key[1])
    else:
        x = mpmath.mpf(key)
    assert log_gamma_real(x, 272)._mpf_ == _GOLDEN_REAL_272[key]


@pytest.mark.parametrize("key", sorted(POINTS))
def test_compare_point_record(key):
    n, a, z = POINTS[key]
    assert _digest(compare_point(n, a, z, prec=256)) == _GOLDEN_RECORDS[key]
