"""Self-contained acceptance checks, one callable per criterion.

Each check returns (name, passed, detail) and pins its own sample
sizes, seeds, and runtime budgets, so the suite is reproducible from
any entry point (pytest or the CLI selftest).  quick=True shrinks the
sample counts for an interactive smoke run; the pinned full sizes are
what the test suite asserts.
"""

from __future__ import annotations

import math
import random
import time

from .errors import UnsupportedPencilError
from .exactpoly import BiPoly, UniPoly
from .experiments import (
    _nonzero,
    classify,
    run_coprime_sweep,
    run_d2_grid,
    run_degree8_scan,
    sample_connected,
    sample_d3_stratum,
    sample_generic,
    sample_palindromic,
    sample_scalar,
)
from .hensel import IRREDUCIBLE, decide
from .mechanisms import apply_all, detect_palindrome, scalar_block_certificate
from .monodromy import monodromy_group, orbit_factor_degrees
from .pencil import Block, charpoly_oracle, continuant, curve_w, pencil

Result = tuple[str, bool, str]


def _sample_any(rng: random.Random, n: int, bound: int):
    a = [rng.randint(-bound, bound) for _ in range(n)]
    b = [rng.randint(-bound, bound) for _ in range(n - 1)]
    return pencil(a, b)


def criterion_1(samples: int = 200) -> Result:
    """Recurrence curve equals the cofactor-expansion curve bit-exactly."""
    rng = random.Random(101)
    start = time.perf_counter()
    for _ in range(samples):
        n = rng.randint(1, 7)
        p = _sample_any(rng, n, 9)
        if continuant(p) != charpoly_oracle(p):
            return (
                "continuant-determinant equivalence",
                False,
                f"mismatch at a={p.a} b={p.b}",
            )
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    return (
        "continuant-determinant equivalence",
        ok,
        f"{samples} pencils bit-exact in {elapsed:.2f}s (budget 10s)",
    )


def criterion_2() -> Result:
    """The scalar 4-chain with couplings 1,2,3 and its line structure."""
    p = pencil([0, 0, 0, 0], [1, 2, 3])
    expected = BiPoly.from_lists(
        [["0", "0", "0", "0", "1"], ["0"], ["0", "0", "-14"], ["0"], ["9"]], "w"
    )
    curve_ok = curve_w(p) == expected
    cert = scalar_block_certificate(Block(p, 1, 4))
    q = cert.data["coupling_charpoly"]
    q_ok = q == UniPoly([9, 0, -14, 0, 1])
    ok = curve_ok and q_ok
    return (
        "scalar quartic reproduction",
        ok,
        f"curve match {curve_ok}, coupling polynomial match {q_ok} (bit-exact)",
    )


def criterion_3() -> Result:
    """Exhaustive size-2 grid agrees with the closed-form criterion."""
    report = run_d2_grid()
    bad = report.counts.get("discrepancies", 0)
    total = len(report.samples)
    return (
        "size-2 exhaustive grid",
        bad == 0 and total == 343,
        f"{total} grid points, {bad} discrepancies (tolerance 0)",
    )


def criterion_4(samples: int = 500) -> Result:
    """Size-3 classification matches the two closed-form alternatives."""
    rng = random.Random(404)
    bad = 0
    for _ in range(samples):
        p = sample_connected(rng, 3, 9)
        a1, a2, a3 = p.a
        c1, c2 = p.c
        closed_form = a1 == a3 or (a3 - a2) * c1 + (a1 - a2) * c2 == 0
        outcome, _ = classify(p)
        if (outcome != "irreducible") != closed_form:
            bad += 1
    return (
        "size-3 closed-form classification",
        bad == 0,
        f"{samples} connected samples, {bad} discrepancies (tolerance 0)",
    )


def criterion_5(samples: int = 200) -> Result:
    """Consecutive leading principal curves are always coprime."""
    report = run_coprime_sweep(8, samples, seed=505)
    expected = {f"coprime-n{n}": samples for n in range(2, 9)}
    ok = {k: v for k, v in report.counts.items() if k.startswith("coprime")} == expected
    return (
        "consecutive-curve coprimality",
        ok and not report.witnesses,
        f"{samples} samples per size 2..8, {len(report.witnesses)} failures "
        f"(tolerance 0) in {report.runtime:.1f}s",
    )


def criterion_6(samples: int = 100) -> Result:
    """Palindromic size-8 splits as two quartics, odd-perturbed halves."""
    rng = random.Random(606)
    for i in range(samples):
        p = sample_palindromic(rng, 8, 9)
        cert = detect_palindrome(Block(p, 1, 8))
        if cert is None:
            return ("palindromic size-8 split", False, f"no certificate at sample {i}")
        f1, f2 = cert.factors
        if f1 * f2 != curve_w(p):
            return ("palindromic size-8 split", False, f"product mismatch at {i}")

        def even(bp):
            return all(bp.layer(j).is_zero for j in range(1, bp.deg_outer + 1, 2))

        if even(f1) or even(f2) or not even(f1 * f2):
            return ("palindromic size-8 split", False, f"parity pattern wrong at {i}")
        if sorted((f1.deg_lambda, f2.deg_lambda)) != [4, 4]:
            return ("palindromic size-8 split", False, f"degree pattern wrong at {i}")
    return (
        "palindromic size-8 split",
        True,
        f"{samples} samples: exact 4+4 product, non-even halves, even product",
    )


def criterion_7(samples: int = 100) -> Result:
    """Generic monodromy is the full symmetric group with one orbit."""
    rng = random.Random(707)
    start = time.perf_counter()
    exceptions = 0
    uncertified = 0
    for _ in range(samples):
        n = rng.randint(2, 6)
        while True:
            a = [rng.randint(-9, 9) for _ in range(n)]
            if len(set(a)) == n:
                break
        p = pencil(a, [_nonzero(rng, 9) for _ in range(n - 1)])
        rep = monodromy_group(p)
        if rep.group_order == math.factorial(n) and len(rep.orbits) == 1:
            continue
        exceptions += 1
        decision = decide(p)
        explained = decision.status != IRREDUCIBLE or bool(
            apply_all(p).certificates
        )
        if not explained:
            uncertified += 1
    elapsed = time.perf_counter() - start
    ok = uncertified == 0 and elapsed < 300.0
    return (
        "generic full symmetric monodromy",
        ok,
        f"{samples} pencils, {exceptions} non-generic (all certified reducible: "
        f"{uncertified == 0}) in {elapsed:.1f}s (budget 300s)",
    )


def criterion_8(samples: int = 50) -> Result:
    """Monodromy orbit sizes equal exact factor degrees on reducible
    constructions."""
    rng = random.Random(808)
    bad = 0
    for i in range(samples):
        family = i % 3
        if family == 0:
            p = sample_d3_stratum(rng, 9)
            exact = decide(p).factor_degrees
        elif family == 1:
            q = sample_generic(rng, rng.randint(4, 5), 9)
            b = list(q.b)
            b[rng.randrange(q.n - 1)] = 0
            p = pencil(q.a, b)
            exact = decide(p).factor_degrees
        else:
            # a scalar accident splits into lines over the complex
            # numbers, which is a different construction; keep the
            # samples properly palindromic
            while True:
                p = sample_palindromic(rng, 4, 9)
                if len(set(p.a)) > 1:
                    break
            exact = apply_all(p).leaf_degrees
        orbits = orbit_factor_degrees(monodromy_group(p))
        if sorted(exact) != orbits:
            bad += 1
    return (
        "orbit-factor consistency",
        bad == 0,
        f"{samples} constructed reducible pencils, {bad} mismatches (tolerance 0)",
    )


def criterion_9(samples: int = 1000) -> Result:
    """Size-8 census: complete decision over all 127 subsets per sample
    (most refuted by the trace filter without a lift), audited hits."""
    report = run_degree8_scan(samples, seed=1)
    hits = [w for w in report.witnesses]
    unaudited = [
        w
        for w in hits
        if "mechanism_kinds" not in w or "hensel_factors" not in w
    ]
    ok = not unaudited and report.runtime < 3600.0
    return (
        "size-8 subset census",
        ok,
        f"{samples} samples, {len(hits)} reducible hits (all audited: "
        f"{not unaudited}) in {report.runtime:.1f}s (budget 3600s)",
    )


def criterion_10(samples: int = 10) -> Result:
    """Repeated diagonals are refused by the lifting decision, never
    silently misclassified."""
    rng = random.Random(1010)
    for i in range(samples):
        n = rng.randint(2, 8)
        p = (
            sample_scalar(rng, n, 9)
            if i % 2 == 0
            else sample_palindromic(rng, max(n, 2), 9)
        )
        try:
            decide(p)
        except UnsupportedPencilError:
            continue
        return (
            "repeated-diagonal honesty",
            False,
            f"decision accepted repeated diagonals: a={p.a}",
        )
    return (
        "repeated-diagonal honesty",
        True,
        f"{samples} scalar/palindromic samples all refused with the "
        "unsupported error",
    )


def run_all(quick: bool = False) -> list[Result]:
    if quick:
        return [
            criterion_1(60),
            criterion_2(),
            criterion_3(),
            criterion_4(120),
            criterion_5(30),
            criterion_6(20),
            criterion_7(16),
            criterion_8(12),
            criterion_9(40),
            criterion_10(6),
        ]
    return [
        criterion_1(),
        criterion_2(),
        criterion_3(),
        criterion_4(),
        criterion_5(),
        criterion_6(),
        criterion_7(),
        criterion_8(),
        criterion_9(),
        criterion_10(),
    ]
