"""Bit-identity corpus: SHA-256 pins of 240 ``compare_point`` records.

One digest per (region, width) covers 24 records: six first-quadrant
points of the region, each reflected into all four quadrants, at
n in {1, 2, 101, 400, 1601} (region D only where it exists, n >= 101) and
alpha in {0.5, 1.37, 2.5}, at 128 and 256 bits.  The points include
nearly real ones (Im z down to 1e-60), exactly real ones and, at the
origin, |z| down to 1e-40.  Every field is hashed, mpf fields as their
raw ``_mpf_`` tuples (mantissas included), so any bit that moves in
either path, in the region, the dropped term or the flags shows here.

A refactor or speed-up that keeps the arithmetic must leave these
digests as they are.  Re-recording a digest is a change of results:
each re-record must be justified in CHANGES.md, with the records that
moved and why.
"""

import hashlib
import itertools

import pytest

from tcasym.harness import compare_point
from tcasym.mpnum import LogComplex

ALPHAS = ("0.5", "1.37", "2.5")

# six first-quadrant points per region (decimal strings, negated exactly)
POINTS = {
    "origin": (("0.05", "0.05"), ("0.1", "1e-60"), ("1e-40", "1e-40"),
               ("0.0123", "0.0871"), ("1e-20", "0"), ("0.03", "1e-30")),
    "B": (("1", "0.05"), ("0.5", "1e-60"), ("1.7", "0.2"),
          ("0.3", "0.24"), ("1.2", "0"), ("1.8", "1e-30")),
    "C": (("2.05", "0.02"), ("2", "0"), ("1.9", "1e-60"),
          ("2.1", "0.1"), ("1.95", "0.05"), ("2.0001", "1e-40")),
    "D": (("4", "0.05"), ("2.6", "1e-60"), ("3", "0"),
          ("2.3", "0.2"), ("5", "1e-30"), ("2.5", "0.1")),
    "A": (("1", "2"), ("30", "1e-60"), ("5", "3"),
          ("0.5", "0.5"), ("200", "0"), ("2.3", "0.5")),
}


def _neg(s):
    return s[1:] if s.startswith("-") else "-" + s


def corpus(tag):
    """The 24 (n, alpha, z) of a region: each point in all four quadrants,
    with (n, alpha) cycling through the degrees and alphas."""
    degrees = (101, 400, 1601) if tag == "D" else (1, 2, 101, 400, 1601)
    combos = itertools.cycle(itertools.product(degrees, ALPHAS))
    out = []
    for x, y in POINTS[tag]:
        for flip_re, flip_im in ((False, False), (True, False), (True, True), (False, True)):
            n, a = next(combos)
            out.append((n, a, (_neg(x) if flip_re else x, _neg(y) if flip_im else y)))
    return out


def _raw(v):
    if isinstance(v, LogComplex):
        return v.log_mod._mpf_, v.phase._mpf_
    return v


def record_digest(tag, bits):
    """SHA-256 of the region's 24 records, every field raw."""
    h = hashlib.sha256()
    for n, a, z in corpus(tag):
        rec = compare_point(n, a, z, prec=bits)
        assert rec.region == tag, (n, a, z, rec)
        h.update(repr(tuple(_raw(v) for v in rec)).encode())
    return h.hexdigest()


_GOLDEN = {
    ('A', 128): 'f85ef29a1a2886cf744e977edff28fb5a3c1ae728bfc9e2cf7d700732ebe231b',
    ('A', 256): 'd57079b32a2fa6e533a2246061477d7e833a39cdd3f95262242d69a6d5de0c33',
    ('B', 128): 'f06e57bd40e511ee747982ba8e8576a8528080075519f23960f72dc9d650982f',
    ('B', 256): '2b880f2f5d787a9a06fc29d98a8906783ebc2abdfc0d9bd14b50453fb9b90922',
    ('C', 128): '46ed360be028797dfd15532a08ef9173c728ba7b6651c405c7b1f8c84917fd23',
    ('C', 256): '05f13ef8ae20b4ea74a9bc202fa3481892798e06d930eb96c0600aa919614e57',
    ('D', 128): '3174d2f432b84de2cb3a6d7e93d6a1bed6464c084f74ffbce47e378e6e634464',
    ('D', 256): 'b63c8ec2e06f301336e0e95ba6f7cc9aac9e9ae20629c2cdac0223ec75bf0059',
    ('origin', 128): '82adda64870459303c1bfee4e21290e4594c0b47357f6f18013179591353b7d2',
    ('origin', 256): '95e9eb66e246dbab4f18caa98a2ec8e607e01892439955d75cf0b173ef081c92',
}


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("tag", sorted(POINTS))
def test_corpus_digest(tag, bits):
    assert record_digest(tag, bits) == _GOLDEN[tag, bits]


def test_corpus_spans_the_ranges():
    rows = [r for tag in POINTS for r in corpus(tag)]
    assert len(rows) == 120
    assert {n for n, _, _ in rows} == {1, 2, 101, 400, 1601}
    assert {a for _, a, _ in rows} == set(ALPHAS)
    for tag in POINTS:
        quads = {(z[0].startswith("-"), z[1].startswith("-")) for _, _, z in corpus(tag)}
        assert len(quads) == 4, tag
