"""Bit-level pins for log-gamma at the arguments the workloads send it and
for whole ``compare_point`` records.

The log-gamma cases are raw libmp ``_mpf_`` tuples at 272 bits, the width
``d_func`` asks for at 256 bits: four arguments alpha - n/z^2 of points
of the benchmark workloads, formed at 280 bits as ``d_func`` forms them
(regions A and D, one with Re below -300, one real), two arguments within
1e-6 relative of a pole, and log-gamma at two alpha of three decimals and
at n + alpha.  The records are the SHA-256 of every field of
``compare_point`` at 256 bits, mantissas included, but the asymptotic
phase, which is pinned beside it as a raw tuple, at one benchmark point
per region of the ``sweep`` traffic and one of the ``deep`` traffic.
All were recorded before log-gamma's reflection half-plane moved into
the fixed-point kernel, so any bit that moves shows here; the phases
were re-recorded when the asymptotic phase became principal, each moved
by 2 pi k up to rounding.
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
    'sweep A': '3082cccaa23cffb3eaf18be87005357d7a8253e2c7ba21912ef03de45be107a9',
    'sweep B': 'd618bcaf0da7991da9d55cdf5cec220d231bc5d1bd665262da0a8f0586467201',
    'sweep C': 'e68d39961e9112932037392309c62524b6a91911353cc62cb16ed43f00febdfb',
    'sweep D': 'cddedf821fd2ebcfc607be52cd72b373aa0db03617f4517611276f26ae01728e',
    'sweep origin': '21a70dfb0af3c73d796489cb26234f56af0d20ed625e09fce91a93983017acf2',
    'deep A': 'b68713e072ba3dbd0bca883d8e3504740a407a8f8853fd727e5db72b523410a4',
    'deep B': 'f2045da562bcb44eae284973f8f22711442bb7c20ec2ddb67752209c982478b5',
    'deep C': '60d98d191ebcf950c3d77eb0e5a2ae7d96183b83f3aadfd44c227a27a75f7a5d',
    'deep D': '7b93ab501abdae68f0ec356646e88c11cc829bd659217c58bc3683925321cb67',
    'deep origin': '95dce597c5a414a47ea8afb2a8facceb7477c520dd00c5326b3e92078f00f15d',
}

# log_asym.phase of each record, the one field the digests leave out
_GOLDEN_PHASES = {
    'sweep A': (0, 30180357067270688201957331978381011173858569133158043475841432934575830426733, -253, 255),
    'sweep B': (1, 79054499936989357537265426163963445466304124062271252818526006811164791487, -244, 246),
    'sweep C': (0, 87879348952209918567325757183524953066363264002596422139452172530003229715293, -255, 256),
    'sweep D': (0, 48077868224250177038234919369433573222235303148491566100413043759077106010169, -254, 255),
    'sweep origin': (0, 19789639080480848003177389353097547683684520330843527125314314574258499391, -244, 244),
    'deep A': (0, 74313136803341349250081519422269134549814800701239329471874534040478215996747, -255, 256),
    'deep B': (0, 0, 0, 0),
    'deep C': (1, 5677754969453033890740938486493759985164107079148194082666194103594208763397, -250, 252),
    'deep D': (0, 3019046759014495891890483311371201219232965974361668715903481897206307334887, -252, 251),
    'deep origin': (0, 8936915892555221298127243447831729499203512265424244841864396680228103573, -241, 243),
}


def _arg(n, a, z):
    with working(256, GUARD + 8):
        zz = mpmath.mpc(*z)
        return mpmath.mpf(a) - n / (zz * zz)


def _digest(rec):
    """SHA-256 of a record with every mpf as its raw tuple, except the
    asymptotic phase, which is pinned on its own."""
    def raw(name, v):
        if isinstance(v, LogComplex):
            return v.log_mod._mpf_ if name == "log_asym" else (v.log_mod._mpf_, v.phase._mpf_)
        return v
    return hashlib.sha256(repr(tuple(raw(k, v) for k, v in rec._asdict().items())).encode()).hexdigest()


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
    rec = compare_point(n, a, z, prec=256)
    assert _digest(rec) == _GOLDEN_RECORDS[key]
    assert rec.log_asym.phase._mpf_ == _GOLDEN_PHASES[key]
