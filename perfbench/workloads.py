"""Seeded pencil documents for the three benchmark workloads.

The benchmark generates its own inputs instead of calling the samplers in
``jacobispec.experiments``, so a change to those samplers cannot shift the
workloads.  Operation ``index`` of a workload draws from its own generator,
seeded by (workload, seed, index): the same seed always yields the same
documents, whatever number of operations a run completes.

Each workload walks a fixed schedule of (command, kind, size) steps and only
the matrix entries are random.  The share of each size class is therefore the same
for every seed, which keeps the median and the tail in the same size class
from seed to seed and from commit to commit.  Sizes are picked so that the
slowest class has well over ten operations in one run, so the tail (the
highest percentile with ten operations beyond it) stays inside that class
when the program gets faster.
"""

from __future__ import annotations

import random

BOUND = 9
MIN_COUPLING = 3

WORKLOADS = ("census-generic", "structured-mix", "monodromy-sweep")

# (command, kind, n); n is None for kinds of fixed size.
SCHEDULES = {
    # Generic connected pencils with distinct diagonals: almost all are
    # irreducible, so decide runs the full subset scan (127 or 255 lifts).
    "census-generic": [
        ("decide", "generic", 8),
        ("decide", "generic", 9),
        ("decide", "generic", 8),
    ],
    # Reducible pencils.  detect gets repeated-diagonal palindromic and
    # constant-diagonal pencils (mechanisms and bivariate arithmetic) and
    # size-3 constant-branch pencils (exact division by the branch);
    # decide gets cut pencils and the size-3 constant-branch pencils, so
    # it takes its witness path (early exit, recursive split, acceptance
    # product) instead of refuting every subset.
    "structured-mix": [
        ("detect", "palindromic", 12),
        ("detect", "constant", 12),
        ("decide", "cut", 6),
        ("decide", "d3-stratum", None),
        ("detect", "palindromic", 13),
        ("detect", "constant", 13),
        ("decide", "cut", 7),
        ("detect", "d3-stratum", None),
        ("detect", "palindromic", 14),
        ("detect", "constant", 14),
        ("decide", "cut", 8),
        ("decide", "d3-stratum", None),
        ("detect", "palindromic", 15),
        ("detect", "constant", 15),
        ("decide", "cut", 6),
        ("detect", "d3-stratum", None),
        ("detect", "palindromic", 16),
        ("detect", "constant", 16),
        ("decide", "cut", 7),
        ("decide", "d3-stratum", None),
    ],
    # Numeric monodromy on generic distinct-diagonal pencils: root solves
    # along the lassos, group closure, and the exact squarefree gcd and
    # discriminant.  One size only: the tracking cost of a pencil depends
    # on how close its branch points lie, which already spreads operation
    # times over a factor of four, so a second size class would leave too
    # few operations per class for a steady median.  Every coupling is at
    # least MIN_COUPLING in magnitude: a coupling of 1 or 2 against
    # diagonal entries up to 9 nearly splits the pencil, crowds its branch
    # points and makes one operation cost up to five times the median.
    # Those pencils made up the whole tail, and with the 160 or so
    # operations a run holds, the tail then moved by about 20% from seed
    # to seed.
    "monodromy-sweep": [
        ("monodromy", "coupled", 4),
    ],
}


# One warm-up per command.  structured-mix warms detect on a constant
# diagonal so the lazy sympy import of the scalar-block certificate happens
# during set-up, as it does on the first such call of every CLI process.
WARMUPS = {
    "census-generic": [("decide", "generic", 8)],
    "structured-mix": [("detect", "constant", 12), ("decide", "cut", 6)],
    "monodromy-sweep": [("monodromy", "coupled", 4)],
}


def _nonzero(rng: random.Random, low: int = 1) -> int:
    """An integer with low <= |v| <= BOUND."""
    v = 0
    while abs(v) < low:
        v = rng.randint(-BOUND, BOUND)
    return v


def _doc(a, b) -> dict:
    return {"n": len(a), "a": [str(x) for x in a], "b": [str(x) for x in b]}


def _generic(rng: random.Random, n: int, low: int = 1) -> dict:
    a = rng.sample(range(-BOUND, BOUND + 1), n)
    return _doc(a, [_nonzero(rng, low) for _ in range(n - 1)])


def _palindromic(rng: random.Random, n: int) -> dict:
    """Diagonal and squared couplings read the same reversed; the
    coupling signs of the mirrored half are free."""
    half_a = [rng.randint(-BOUND, BOUND) for _ in range((n + 1) // 2)]
    a = half_a + half_a[: n // 2][::-1]
    m = n - 1
    half_b = [_nonzero(rng) for _ in range((m + 1) // 2)]
    b = half_b + [v * rng.choice((1, -1)) for v in half_b[: m // 2][::-1]]
    return _doc(a, b)


def _constant(rng: random.Random, n: int) -> dict:
    value = rng.randint(-BOUND, BOUND)
    return _doc([value] * n, [_nonzero(rng) for _ in range(n - 1)])


def _cut(rng: random.Random, n: int, cycle: int) -> dict:
    """Distinct diagonal with exactly one zero coupling.  The cut position
    sets how many subsets decide tries before its witness, so it walks
    through all n - 1 positions as the schedule repeats instead of being
    drawn: every run then holds the same mix of cheap and costly cuts."""
    doc = _generic(rng, n)
    doc["b"][cycle % (n - 1)] = "0"
    return doc


def _d3_stratum(rng: random.Random) -> dict:
    """Size 3 with a constant branch: a1 = a2 - m*b1^2, a3 = a2 + m*b2^2
    makes (a3 - a2)*b1^2 + (a1 - a2)*b2^2 vanish, with distinct a_i."""
    m, b1, b2 = _nonzero(rng), _nonzero(rng), _nonzero(rng)
    a2 = rng.randint(-BOUND, BOUND)
    return _doc([a2 - m * b1 * b1, a2, a2 + m * b2 * b2], [b1, b2])


def _make(kind: str, rng: random.Random, n: int | None, cycle: int) -> dict:
    if kind == "generic":
        return _generic(rng, n)
    if kind == "coupled":
        return _generic(rng, n, MIN_COUPLING)
    if kind == "palindromic":
        return _palindromic(rng, n)
    if kind == "constant":
        return _constant(rng, n)
    if kind == "cut":
        return _cut(rng, n, cycle)
    if kind == "d3-stratum":
        return _d3_stratum(rng)
    raise ValueError(f"unknown kind {kind!r}")


def operation(workload: str, seed: int, index: int) -> tuple[str, dict]:
    """Command and pencil document of operation ``index``."""
    schedule = SCHEDULES[workload]
    command, kind, n = schedule[index % len(schedule)]
    rng = random.Random(f"{workload}|{seed}|{index}")
    return command, _make(kind, rng, n, index // len(schedule))


def warmups(workload: str) -> list[tuple[str, dict]]:
    """One warm-up operation per command the workload uses.  The documents
    do not depend on the seed, so set-up time is the same work for every
    seed; a monodromy operation alone can vary fourfold with its input."""
    out = []
    for command, kind, n in WARMUPS[workload]:
        rng = random.Random(f"{workload}|warmup|{command}")
        out.append((command, _make(kind, rng, n, 0)))
    return out
