"""Reproducible sampling campaigns over integer parameter boxes.

Campaigns draw pencils with entries in [-R, R], classify each one by
the exact machinery (mechanisms and the t = 0 lifting decision, with
numeric monodromy as the advisory fallback for repeated diagonals), and
tally outcomes.  Every non-irreducible sample is recorded as a witness
carrying enough exact data to re-verify the classification offline.

Determinism.  Each sample index gets its own generator seeded by
(campaign name, seed, index), so reports are bit-identical for a given
campaign regardless of sharding or interruption; the recorded runtime
is the only field excluded from that guarantee.

Stratum samplers solve their defining equations exactly over the
rationals and assert them before handing the pencil to the classifier.
The degree-3 constant-branch stratum is parameterized by
a1 = a2 - m*b1^2, a3 = a2 + m*b2^2, which forces
(a3 - a2)*b1^2 + (a1 - a2)*b2^2 = 0 with all three diagonal entries
automatically distinct.  There is no connected analogue in size four:
the t^2 coefficient of the curve at lambda = -a_j equals b1^2*b3^2,
which cannot vanish on a connected chain, so the constant-branch probe
is only meaningful at size three.
"""

from __future__ import annotations

import csv
import io
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .errors import JacobiSpecError
from .exactpoly import format_rational
from .hensel import IRREDUCIBLE, decide
from .mechanisms import apply_all
from .monodromy import monodromy_group, orbit_factor_degrees
from .pencil import JacobiPencil, continuant, pencil

SAMPLER_NAMES = (
    "generic",
    "palindromic",
    "scalar",
    "d3-constant-branch-stratum",
    "grid",
)

OUTCOME_IRREDUCIBLE = "irreducible"
OUTCOME_UNEXPLAINED = "reducible-unexplained"
OUTCOME_UNDECIDED = "undecided"
DEFAULT_RANGE = 9


@dataclass(frozen=True)
class Campaign:
    """A named, seeded sampling plan."""

    name: str
    n: int
    sampler: str
    parameter_range: int
    sample_count: int
    seed: int

    def __post_init__(self):
        if self.sampler not in SAMPLER_NAMES:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.n < 1 or self.sample_count < 0 or self.parameter_range < 1:
            raise ValueError("campaign parameters out of range")


@dataclass
class CampaignReport:
    """Outcome tally plus re-verifiable witnesses for one campaign."""

    campaign: Campaign
    counts: dict[str, int] = field(default_factory=dict)
    witnesses: list[dict] = field(default_factory=list)
    samples: list[dict] = field(default_factory=list)
    runtime: float = 0.0

    def bump(self, outcome: str) -> None:
        self.counts[outcome] = self.counts.get(outcome, 0) + 1

    def comparable(self) -> dict:
        """Everything the determinism guarantee covers (no runtime)."""
        return {
            "campaign": vars(self.campaign).copy(),
            "counts": self.counts,
            "witnesses": self.witnesses,
            "samples": self.samples,
        }

    def csv_text(self) -> str:
        """One row per sample: parameters, outcome, witness index."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["index", "n", "a", "b", "outcome", "witness"])
        for row in self.samples:
            writer.writerow(
                [
                    row["index"],
                    row["n"],
                    ";".join(row["a"]),
                    ";".join(row["b"]),
                    row["outcome"],
                    row.get("witness", ""),
                ]
            )
        return out.getvalue()


def sample_rng(campaign: Campaign, index: int) -> random.Random:
    """Counter-based generator: independent per sample index."""
    return random.Random(f"{campaign.name}|{campaign.seed}|{index}")


def _nonzero(rng: random.Random, bound: int) -> int:
    v = 0
    while v == 0:
        v = rng.randint(-bound, bound)
    return v


def sample_generic(rng: random.Random, n: int, bound: int) -> JacobiPencil:
    """Connected pencil with pairwise distinct diagonal entries."""
    if 2 * bound + 1 < n:
        raise ValueError("parameter box too small for distinct diagonals")
    a = rng.sample(range(-bound, bound + 1), n)
    b = [_nonzero(rng, bound) for _ in range(n - 1)]
    return pencil(a, b)


def sample_connected(rng: random.Random, n: int, bound: int) -> JacobiPencil:
    """Connected pencil, diagonal entries free to repeat."""
    a = [rng.randint(-bound, bound) for _ in range(n)]
    b = [_nonzero(rng, bound) for _ in range(n - 1)]
    return pencil(a, b)


def sample_palindromic(rng: random.Random, n: int, bound: int) -> JacobiPencil:
    """Connected pencil symmetric under index reversal up to coupling
    signs."""
    if n < 2:
        raise ValueError("palindromic sampler needs n >= 2")
    half_a = [rng.randint(-bound, bound) for _ in range((n + 1) // 2)]
    a = half_a + half_a[: n // 2][::-1]
    m = n - 1
    half_b = [_nonzero(rng, bound) for _ in range((m + 1) // 2)]
    b = half_b + [
        v * rng.choice((1, -1)) for v in half_b[: m // 2][::-1]
    ]
    p = pencil(a, b)
    assert all(p.a[i] == p.a[n - 1 - i] for i in range(n))
    assert all(p.c[i] == p.c[m - 1 - i] for i in range(m))
    return p


def sample_scalar(rng: random.Random, n: int, bound: int) -> JacobiPencil:
    """Connected pencil with constant diagonal."""
    value = rng.randint(-bound, bound)
    b = [_nonzero(rng, bound) for _ in range(n - 1)]
    p = pencil([value] * n, b)
    assert len(set(p.a)) == 1
    return p


def sample_d3_stratum(rng: random.Random, bound: int) -> JacobiPencil:
    """Size-3 connected pencil with an exact constant branch.

    Solves the branch relation rationally; the three diagonal entries
    come out pairwise distinct by construction."""
    m = Fraction(_nonzero(rng, bound))
    b1 = Fraction(_nonzero(rng, bound))
    b2 = Fraction(_nonzero(rng, bound))
    a2 = Fraction(rng.randint(-bound, bound))
    a1 = a2 - m * b1 * b1
    a3 = a2 + m * b2 * b2
    p = pencil([a1, a2, a3], [b1, b2])
    assert (a3 - a2) * b1 * b1 + (a1 - a2) * b2 * b2 == 0
    assert p.distinct_diagonal
    return p


_SAMPLERS: dict[str, Callable[[random.Random, int, int], JacobiPencil]] = {
    "generic": sample_generic,
    "palindromic": sample_palindromic,
    "scalar": sample_scalar,
    "d3-constant-branch-stratum": lambda rng, n, bound: sample_d3_stratum(
        rng, bound
    ),
}


def _pencil_record(p: JacobiPencil) -> dict:
    return {
        "a": [format_rational(v) for v in p.a],
        "b": [format_rational(v) for v in p.b],
    }


def classify(p: JacobiPencil) -> tuple[str, dict]:
    """Route a pencil to the exact decision engines.

    Distinct diagonals: the lifting decision is authoritative; when it
    says reducible the mechanisms report is attached for audit.  Other
    pencils: mechanism certificates decide; with none found, numeric
    monodromy orbits give an advisory verdict.  The audit dict is empty
    exactly for irreducible outcomes."""
    if p.distinct_diagonal:
        decision = decide(p)
        if decision.status == IRREDUCIBLE:
            return OUTCOME_IRREDUCIBLE, {}
        report = apply_all(p)
        kinds = sorted({c.kind for c in report.certificates})
        audit = {
            "hensel_status": decision.status,
            "hensel_factors": [f.to_lists() for f in decision.factors_t],
            "hensel_degrees": decision.factor_degrees,
            "mechanism_kinds": kinds,
            "mechanism_leaf_degrees": report.leaf_degrees,
        }
        if kinds:
            return "reducible-by-mechanism:" + "+".join(kinds), audit
        return OUTCOME_UNEXPLAINED, audit
    report = apply_all(p)
    kinds = sorted({c.kind for c in report.certificates})
    if kinds:
        audit = {
            "hensel_status": "unsupported (repeated diagonal entries)",
            "mechanism_kinds": kinds,
            "mechanism_leaf_degrees": report.leaf_degrees,
        }
        return "reducible-by-mechanism:" + "+".join(kinds), audit
    try:
        mono = monodromy_group(p)
    except JacobiSpecError as exc:
        return OUTCOME_UNDECIDED, {"error": f"{type(exc).__name__}: {exc}"}
    degrees = orbit_factor_degrees(mono)
    if len(degrees) == 1:
        return OUTCOME_IRREDUCIBLE, {}
    audit = {
        "hensel_status": "unsupported (repeated diagonal entries)",
        "mechanism_kinds": [],
        "mechanism_leaf_degrees": report.leaf_degrees,
        "monodromy_orbit_degrees": degrees,
        "advisory": "orbit partition is numeric, not certified",
    }
    return OUTCOME_UNEXPLAINED, audit


def _record_sample(
    report: CampaignReport, index: int, p: JacobiPencil, outcome: str, audit: dict
) -> None:
    report.bump(outcome)
    row = {"index": index, "n": p.n, **_pencil_record(p), "outcome": outcome}
    if outcome != OUTCOME_IRREDUCIBLE:
        witness = {"index": index, **_pencil_record(p), "outcome": outcome, **audit}
        row["witness"] = len(report.witnesses)
        report.witnesses.append(witness)
    report.samples.append(row)


def run_campaign(c: Campaign) -> CampaignReport:
    """Sample, classify, and tally per the campaign plan."""
    if c.sampler == "grid":
        return run_d2_grid()
    sampler = _SAMPLERS[c.sampler]
    report = CampaignReport(campaign=c)
    start = time.perf_counter()
    for index in range(c.sample_count):
        p = sampler(sample_rng(c, index), c.n, c.parameter_range)
        outcome, audit = classify(p)
        _record_sample(report, index, p, outcome, audit)
    report.runtime = time.perf_counter() - start
    return report


def run_generic(
    n: int, samples: int, parameter_range: int = DEFAULT_RANGE, seed: int = 0
) -> CampaignReport:
    """Random distinct-diagonal connected pencils, full exact decision
    on each; generically every sample is irreducible and any hit is a
    logged witness."""
    return run_campaign(
        Campaign(f"generic-n{n}", n, "generic", parameter_range, samples, seed)
    )


def run_degree8_scan(
    samples: int, parameter_range: int = DEFAULT_RANGE, seed: int = 1
) -> CampaignReport:
    """Size-8 census: every sample runs the complete decision over all
    127 subsets; reducible hits carry the mechanism audit in their
    witness."""
    return run_campaign(
        Campaign("degree8-scan", 8, "generic", parameter_range, samples, seed)
    )


def run_d2_grid() -> CampaignReport:
    """Exhaustive size-2 integer grid over [-3, 3]^3.

    Size two is reducible exactly when the coupling vanishes or the two
    diagonal entries coincide; the report counts any disagreement
    between that closed form and the engines under "discrepancies"."""
    c = Campaign("d2-grid", 2, "grid", 3, 0, 0)
    report = CampaignReport(campaign=c)
    report.counts["discrepancies"] = 0
    start = time.perf_counter()
    index = 0
    for a1 in range(-3, 4):
        for a2 in range(-3, 4):
            for b1 in range(-3, 4):
                p = pencil([a1, a2], [b1])
                outcome, audit = classify(p)
                expected = b1 == 0 or a1 == a2
                actual = outcome != OUTCOME_IRREDUCIBLE
                _record_sample(report, index, p, outcome, audit)
                if expected != actual:
                    report.counts["discrepancies"] += 1
                    report.witnesses.append(
                        {
                            "index": index,
                            **_pencil_record(p),
                            "outcome": outcome,
                            "error": "closed-form disagreement",
                        }
                    )
                index += 1
    report.runtime = time.perf_counter() - start
    return report


def run_coprime_sweep(
    n_max: int,
    samples: int,
    seed: int = 0,
    parameter_range: int = DEFAULT_RANGE,
) -> CampaignReport:
    """Consecutive leading principal curves of a connected chain are
    coprime; this sweep proves it exactly for n = 2 .. n_max.  P_n and
    P_{n-1} are monic in lambda, so gcd(P_n(., t0), P_{n-1}(., t0)) = 1
    over Q means Res_lambda(P_n, P_{n-1})(t0) != 0.  That resultant has
    degree at most n(n-1)/2 in t, so a common-factor witness, which lists
    its t0, failed at every t0 = 1 .. n(n-1)/2 + 1."""
    if n_max < 2:
        raise ValueError("sweep needs n_max >= 2")
    c = Campaign("coprime-sweep", n_max, "generic", parameter_range, samples, seed)
    report = CampaignReport(campaign=c)
    start = time.perf_counter()
    index = 0
    for n in range(2, n_max + 1):
        key = f"coprime-n{n}"
        report.counts[key] = 0
        for _ in range(samples):
            rng = sample_rng(c, index)
            p = sample_connected(rng, n, parameter_range)
            sub = pencil(p.a[: n - 1], p.b[: n - 2])
            curve, truncation = continuant(p), continuant(sub)
            points = range(1, n * (n - 1) // 2 + 2)
            coprime = any(
                curve.eval_outer(t0).gcd(truncation.eval_outer(t0)).degree == 0
                for t0 in points
            )
            row = {
                "index": index,
                "n": n,
                **_pencil_record(p),
                "outcome": "coprime" if coprime else "common-factor",
            }
            if coprime:
                report.counts[key] += 1
            else:
                row["witness"] = len(report.witnesses)
                report.witnesses.append(
                    {
                        "index": index,
                        **_pencil_record(p),
                        "outcome": "common-factor",
                        "t0": list(points),
                    }
                )
                report.bump("common-factor")
            report.samples.append(row)
            index += 1
    report.runtime = time.perf_counter() - start
    return report


_PROBE_STRATA = ("palindromic", "scalar", "d3-constant-branch")


def _on_stratum(p: JacobiPencil, mechanism: str) -> bool:
    n = p.n
    if mechanism == "palindromic":
        return all(p.a[i] == p.a[n - 1 - i] for i in range(n)) and all(
            p.c[i] == p.c[n - 2 - i] for i in range(n - 1)
        )
    if mechanism == "scalar":
        return len(set(p.a)) == 1
    return (p.a[2] - p.a[1]) * p.c[0] + (p.a[0] - p.a[1]) * p.c[1] == 0


def _perturb_off(
    p: JacobiPencil, mechanism: str, rng: random.Random, bound: int
) -> JacobiPencil:
    """Change one coordinate by a nonzero integer, keeping the chain
    connected and landing exactly off the stratum."""
    n = p.n
    while True:
        coord = rng.randrange(2 * n - 1)
        delta = Fraction(_nonzero(rng, bound))
        a = list(p.a)
        b = list(p.b)
        if coord < n:
            a[coord] += delta
        else:
            b[coord - n] += delta
            if b[coord - n] == 0:
                continue
        q = pencil(a, b)
        if not _on_stratum(q, mechanism):
            return q


def run_codim_probe(
    n: int,
    mechanism: str,
    samples: int,
    seed: int = 0,
    parameter_range: int = DEFAULT_RANGE,
) -> CampaignReport:
    """Reducible strata are thin: points sampled exactly on a stratum
    must classify reducible, and a one-coordinate integer perturbation
    off it generically restores irreducibility.

    The palindromic and scalar strata probe any n from 2 to 8; the
    constant-branch stratum only exists in connected size three (see
    the module docstring), so that mechanism pins n = 3."""
    if mechanism not in _PROBE_STRATA:
        raise ValueError(f"unknown stratum {mechanism!r}")
    if mechanism == "d3-constant-branch":
        if n != 3:
            raise ValueError("constant-branch probe requires n = 3")
        sampler_name = "d3-constant-branch-stratum"
    else:
        if not 2 <= n <= 8:
            raise ValueError("probe supports sizes 2 through 8")
        sampler_name = mechanism
    c = Campaign(
        f"codim-{mechanism}-n{n}", n, sampler_name, parameter_range, samples, seed
    )
    report = CampaignReport(campaign=c)
    for key in (
        "on-stratum-reducible",
        "on-stratum-unexpected",
        "off-stratum-irreducible",
        "off-stratum-reducible",
    ):
        report.counts[key] = 0
    start = time.perf_counter()
    sampler = _SAMPLERS[sampler_name]
    for index in range(samples):
        rng = sample_rng(c, index)
        p = sampler(rng, n, parameter_range)
        assert _on_stratum(p, mechanism)
        outcome, audit = classify(p)
        if outcome == OUTCOME_IRREDUCIBLE:
            report.counts["on-stratum-unexpected"] += 1
            report.witnesses.append(
                {
                    "index": index,
                    **_pencil_record(p),
                    "outcome": outcome,
                    "error": "stratum point classified irreducible",
                }
            )
        else:
            report.counts["on-stratum-reducible"] += 1
        report.samples.append(
            {"index": index, "n": n, **_pencil_record(p), "outcome": outcome}
        )
        q = _perturb_off(p, mechanism, rng, parameter_range)
        outcome_q, audit_q = classify(q)
        if outcome_q == OUTCOME_IRREDUCIBLE:
            report.counts["off-stratum-irreducible"] += 1
        else:
            report.counts["off-stratum-reducible"] += 1
            report.witnesses.append(
                {
                    "index": index,
                    **_pencil_record(q),
                    "outcome": outcome_q,
                    **audit_q,
                }
            )
        report.samples.append(
            {
                "index": index,
                "n": n,
                **_pencil_record(q),
                "outcome": f"perturbed:{outcome_q}",
            }
        )
    report.runtime = time.perf_counter() - start
    return report
