"""Seeded input generators for the four benchmark workloads.

Every generator is a pure function of the workload seed. Points are
produced as decimal strings (six places), the same form a user hands to
``tcasym compare --z-list``, so in-process workloads and the CLI receive
identical inputs. Each point carries the region it was drawn in; the
geometry mirrors ``tcasym.asym.Params()`` (strip height 0.25, disk
radius 0.15), and every draw keeps MARGIN away from a region boundary so
that the six-place rounding cannot move a point across one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random

REGIONS = ("A", "B", "C", "D", "origin")
DELTA = 0.25  # Params().delta
EPS = 0.15  # Params().eps
MARGIN = 0.02
REAL_AXIS_EVERY = 4  # every 4th B and origin point lies exactly on the real axis

SWEEP_ALPHAS = ("0.5", "1", "2")
SWEEP_NS = (100, 200, 400, 800, 1600)
SWEEP_PER_CELL = 2  # points per (n, alpha, region): 150 points in all
DEEP_PER_REGION = 20  # 100 points
DEEP_N = (1000, 2000)
DEEP_ALPHA = (0.5, 2.5)
ORTHO_CALLS = 16
ORTHO_DEG = 4
ORTHO_KMAX = 500
ORTHO_PREC = 128
CLI_NS = (100, 200, 400, 800)
CLI_ALPHA = "1"
CLI_PER_REGION = 2  # 10 points x 4 degrees = 40 tasks
CLI_JITTER = 0.2


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def k_edge(n: int, alpha: float) -> float:
    """Right edge of region D at degree n: sqrt(n/alpha) + delta."""
    return math.sqrt(n / alpha) + DELTA


def latin_hypercube(rng: random.Random, k: int, dims: int, jitter: float = 1.0):
    """k points in [0,1)^dims, each coordinate hitting each of k strata once.

    Stratifying keeps the mix of positions, degrees and alphas the same
    from seed to seed, so statistics over a run move little with the seed.
    ``jitter`` is the share of its stratum a point may move over; 1 draws
    anywhere in the stratum."""
    cols = []
    for _ in range(dims):
        strata = list(range(k))
        rng.shuffle(strata)
        cols.append([(j + 0.5 + jitter * (rng.random() - 0.5)) / k for j in strata])
    return list(zip(*cols))


def draw_z(rng: random.Random, tag: str, n: int, alpha: float, u: float, v: float,
           real: bool, c_frac: float):
    """(re, im) strings for the point at (u, v) in [0,1)^2 of region ``tag``
    at (n, alpha), reflected into a random quadrant.

    ``real`` puts a B or origin point on the real axis. ``c_frac`` is the
    largest |z-2| of a C point as a share of the disk radius: small values
    keep the Airy argument on its series side.
    """
    if tag == "origin":
        r = EPS * (0.1 + 0.8 * u)
        th = 0.0 if real else 0.05 + (math.pi / 2 - 0.1) * v
        re, im = r * math.cos(th), r * math.sin(th)
    elif tag == "B":
        re = EPS + MARGIN + (2 - 2 * EPS - 2 * MARGIN) * u
        im = 0.0 if real else 0.001 + (DELTA - MARGIN - 0.001) * v
    elif tag == "C":
        r = EPS * math.sqrt(0.05 ** 2 + (c_frac ** 2 - 0.05 ** 2) * u)  # uniform in area
        th = 0.05 + (math.pi - 0.1) * v
        re, im = 2 + r * math.cos(th), r * math.sin(th)
    elif tag == "D":
        re = 2 + EPS + MARGIN + (k_edge(n, alpha) - 2 - EPS - 2 * MARGIN) * u
        im = MARGIN + (DELTA - 2 * MARGIN) * v
    elif tag == "A":
        re = 0.05 + (k_edge(n, alpha) + 0.95) * u
        im = DELTA + MARGIN + (2 - MARGIN) * v
    else:
        raise ValueError(f"unknown region {tag!r}")
    if rng.random() < 0.5:
        re = -re
    if im and rng.random() < 0.5:
        im = -im
    return _fmt(re), _fmt(im)


def _real(tag, j):
    return tag in ("B", "origin") and j % REAL_AXIS_EVERY == 0


def sweep_points(seed: int, k: int = 0):
    """Pass ``k`` of the acceptance-grid traffic: every (n, alpha) cell,
    every region."""
    rng = random.Random(f"sweep:{seed}:{k}")
    cells = [(n, a) for a in SWEEP_ALPHAS for n in SWEEP_NS] * SWEEP_PER_CELL
    pts = []
    for tag in REGIONS:
        for j, ((n, a), (u, v)) in enumerate(zip(cells, latin_hypercube(rng, len(cells), 2))):
            pts.append((tag, n, a) + draw_z(rng, tag, n, float(a), u, v, _real(tag, j), 0.7))
    rng.shuffle(pts)
    return pts


def deep_points(seed: int, k: int = 0, used=None):
    """Pass ``k`` of the high-degree traffic, each point with its own
    (n, alpha). ``used`` holds the (n, alpha) pairs of earlier passes; a
    pair drawn again moves to the next free n, so that no two points of a
    run share one."""
    rng = random.Random(f"deep:{seed}:{k}")
    used = set() if used is None else used
    pts = []
    for tag in REGIONS:
        for j, (u, v, un, ua) in enumerate(latin_hypercube(rng, DEEP_PER_REGION, 4)):
            n = DEEP_N[0] + int(un * (DEEP_N[1] - DEEP_N[0] + 1))
            a = f"{DEEP_ALPHA[0] + (DEEP_ALPHA[1] - DEEP_ALPHA[0]) * ua:.3f}"
            while (n, a) in used:
                n = DEEP_N[0] + (n + 1 - DEEP_N[0]) % (DEEP_N[1] - DEEP_N[0] + 1)
            used.add((n, a))
            pts.append((tag, n, a) + draw_z(rng, tag, n, float(a), u, v, _real(tag, j), 0.98))
    rng.shuffle(pts)
    return pts


def ortho_alphas(seed: int, k: int = 0, used=None):
    """Pass ``k``: one alpha per stratum of [0.5, 2.5], none drawn in an
    earlier pass (``used``)."""
    rng = random.Random(f"ortho:{seed}:{k}")
    used = set() if used is None else used
    alphas = []
    for (u,) in latin_hypercube(rng, ORTHO_CALLS, 1):
        a = round(0.5 + 2 * u, 6)
        while a in used:
            a = round(a + 1e-6, 6)
        used.add(a)
        alphas.append(f"{a:.6f}")
    return alphas


def cli_points(seed: int, k: int = 0):
    """z-list of launch ``k`` of the CLI grid: a fixed five-region grid,
    point j of a region in stratum j of both coordinates, each point moved
    by the seed within a fifth of its stratum. With only ten positions,
    free draws (or seeded pairings of strata) would move the run's error
    statistics by tens of percent from seed to seed. D points come from
    the smallest degree's footprint, the only one inside region D at every
    degree of the grid."""
    rng = random.Random(f"cold-parallel:{seed}:{k}")
    n, a = min(CLI_NS), float(CLI_ALPHA)
    pts = []
    for tag in REGIONS:
        for j in range(CLI_PER_REGION):
            u, v = ((j + 0.5 + CLI_JITTER * (rng.random() - 0.5)) / CLI_PER_REGION for _ in range(2))
            pts.append((tag,) + draw_z(rng, tag, n, a, u, v, _real(tag, j), 0.7))
    rng.shuffle(pts)
    return pts


def passes(workload: str, seed: int):
    """The inputs of passes 0, 1, 2, ... of a run, without end.

    Each pass draws fresh inputs from (workload, seed, pass), so no timed
    call repeats an input the process has already evaluated and a memo
    keyed on the inputs cannot make a later pass look faster."""
    used = set()
    for k in itertools.count():
        if workload == "sweep":
            yield sweep_points(seed, k)
        elif workload == "deep":
            yield deep_points(seed, k, used)
        elif workload == "ortho":
            yield ortho_alphas(seed, k, used)
        elif workload == "cold-parallel":
            yield cli_points(seed, k)
        else:
            raise ValueError(f"unknown workload {workload!r}")


def first_passes(workload: str, seed: int, count: int):
    return list(itertools.islice(passes(workload, seed), count))


def digest(inputs) -> str:
    """Short SHA-256 of the canonical JSON form of a workload's inputs."""
    blob = json.dumps(inputs, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
