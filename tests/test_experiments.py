"""Sampling campaigns: determinism, routing, and the canned surveys."""

from fractions import Fraction

import pytest

from jacobispec import experiments
from jacobispec.experiments import (
    Campaign,
    classify,
    run_campaign,
    run_codim_probe,
    run_coprime_sweep,
    run_d2_grid,
    sample_d3_stratum,
    sample_generic,
    sample_palindromic,
    sample_rng,
    sample_scalar,
    run_generic,
)
from jacobispec.pencil import pencil


def test_campaign_validation():
    with pytest.raises(ValueError):
        Campaign("x", 3, "bogus", 9, 1, 0)
    with pytest.raises(ValueError):
        Campaign("x", 0, "generic", 9, 1, 0)
    with pytest.raises(ValueError):
        Campaign("x", 3, "generic", 0, 1, 0)


def test_counter_seeded_rng_is_per_index():
    c = Campaign("demo", 4, "generic", 9, 8, 11)
    a = sample_rng(c, 3).random()
    b = sample_rng(c, 3).random()
    other = sample_rng(c, 4).random()
    assert a == b
    assert a != other


def test_campaign_determinism():
    c = Campaign("rep", 4, "generic", 9, 25, 42)
    r1 = run_campaign(c)
    r2 = run_campaign(c)
    assert r1.comparable() == r2.comparable()
    assert r1.csv_text() == r2.csv_text()


def test_sample_generic_distinct():
    c = Campaign("g", 5, "generic", 9, 1, 0)
    for i in range(30):
        p = sample_generic(sample_rng(c, i), 5, 9)
        assert p.distinct_diagonal
        assert p.n == 5
        assert all(abs(x) <= 9 for x in p.a)


def test_sample_palindromic_symmetry():
    c = Campaign("p", 6, "palindromic", 9, 1, 0)
    for i in range(20):
        p = sample_palindromic(sample_rng(c, i), 6, 9)
        assert p.a == tuple(reversed(p.a))
        assert p.c == tuple(reversed(p.c))


def test_sample_scalar_constant_diagonal():
    c = Campaign("s", 4, "scalar", 9, 1, 0)
    for i in range(20):
        p = sample_scalar(sample_rng(c, i), 4, 9)
        assert len(set(p.a)) == 1
        assert p.connected


def test_sample_d3_stratum_relation():
    c = Campaign("d", 3, "d3-constant-branch-stratum", 9, 1, 0)
    for i in range(40):
        p = sample_d3_stratum(sample_rng(c, i), 9)
        a1, a2, a3 = p.a
        c1, c2 = p.c
        # the stratum equation that forces a constant branch through -a2
        assert (a3 - a2) * c1 + (a1 - a2) * c2 == 0
        assert p.distinct_diagonal and p.connected


def test_classify_router():
    assert classify(pencil([0, 1, 5], [1, 1]))[0] == "irreducible"
    out, audit = classify(pencil([0, 1, 2], [1, 1]))
    assert out == "reducible-by-mechanism:constant-branch"
    assert audit["hensel_status"] == "Reducible"
    assert audit["hensel_degrees"] == [1, 2]
    out2, audit2 = classify(pencil([5, 7, 5], [3, 3]))
    assert out2 == "reducible-by-mechanism:palindrome"
    assert audit2["hensel_status"] == "unsupported (repeated diagonal entries)"
    assert audit2["mechanism_leaf_degrees"] == [2, 1]
    # repeated diagonal, no certificate: advisory single orbit
    assert classify(pencil([0, 0, 5], [1, 1]))[0] == "irreducible"


def test_stratum_campaign_all_reducible():
    c = Campaign("d3", 3, "d3-constant-branch-stratum", 9, 30, 7)
    r = run_campaign(c)
    assert r.counts == {"reducible-by-mechanism:constant-branch": 30}
    assert len(r.witnesses) == 30
    w = r.witnesses[0]
    assert w["hensel_status"] == "Reducible"
    assert sorted(w["hensel_degrees"]) == [1, 2]


def test_generic_campaign_mostly_irreducible():
    r = run_generic(n=4, samples=40, seed=5)
    assert r.counts.get("irreducible", 0) >= 38


def test_csv_shape():
    c = Campaign("c", 3, "generic", 9, 4, 9)
    lines = run_campaign(c).csv_text().splitlines()
    assert lines[0] == "index,n,a,b,outcome,witness"
    assert len(lines) == 5
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[1] == "3"
    assert len(cells[2].split(";")) == 3
    assert len(cells[3].split(";")) == 2


def test_d2_grid_exhaustive():
    r = run_d2_grid()
    assert r.counts["irreducible"] == 252
    assert r.counts["reducible-by-mechanism:cut"] == 49
    assert r.counts["reducible-by-mechanism:scalar-block"] == 42
    assert r.counts["discrepancies"] == 0
    assert sum(v for k, v in r.counts.items() if k != "discrepancies") == 343


def test_coprime_sweep():
    r = run_coprime_sweep(5, 15, seed=2)
    # every sampled size must report, and n=2 curves are coprime to the
    # size-1 truncation unless the coupling vanishes (it never does here)
    for n in range(2, 6):
        assert f"coprime-n{n}" in r.counts
        assert r.counts[f"coprime-n{n}"] == 15


def test_coprime_sweep_reports_a_cut_after_every_t0(monkeypatch):
    # b_{n-1} = 0 makes P_n = (lambda + a_n) P_{n-1}: the resultant vanishes
    # identically, so no t0 up to the degree bound n(n-1)/2 proves coprimality
    def cut(rng, n, bound):
        return pencil(list(range(1, n + 1)), [1] * (n - 2) + [0])

    monkeypatch.setattr(experiments, "sample_connected", cut)
    r = run_coprime_sweep(5, 2, seed=0)
    assert r.counts["common-factor"] == 8
    assert all(r.counts[f"coprime-n{n}"] == 0 for n in range(2, 6))
    for witness in r.witnesses:
        n = len(witness["a"])
        assert witness["outcome"] == "common-factor"
        assert witness["t0"] == list(range(1, n * (n - 1) // 2 + 2))
    assert (r.witnesses[2]["a"], r.witnesses[2]["b"]) == (["1", "2", "3"], ["1", "0"])


def test_codim_probe_d3():
    r = run_codim_probe(3, "d3-constant-branch", 12, seed=4)
    assert r.counts["on-stratum-reducible"] == 12
    assert r.counts.get("on-stratum-unexpected", 0) == 0
    assert r.counts.get("off-stratum-reducible", 0) == 0
    assert r.counts["off-stratum-irreducible"] == 12


def test_codim_probe_validates_mechanism_size():
    with pytest.raises(ValueError):
        run_codim_probe(4, "d3-constant-branch", 5)
    with pytest.raises(ValueError):
        run_codim_probe(3, "no-such-stratum", 5)


def test_runtime_excluded_from_comparison():
    c = Campaign("t", 3, "generic", 9, 5, 1)
    r = run_campaign(c)
    assert "runtime" not in r.comparable()
    assert r.runtime >= 0.0
