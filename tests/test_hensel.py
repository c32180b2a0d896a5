"""Subset-indexed lifting at t = 0 and the complete factorization decision."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobispec import hensel
from jacobispec.errors import UnsupportedPencilError
from jacobispec.exactpoly import UniPoly
from jacobispec.experiments import sample_d3_stratum, sample_generic
from jacobispec.hensel import (
    SubsetSplit,
    _attempt_split,
    _branch_series,
    canonical_subsets,
    decide,
    lift_subset,
    obstruction_profile,
)
from jacobispec.pencil import continuant, curve_t, curve_w, pencil


# ---------------------------------------------------------------- subsets


def test_subset_canonical_form():
    s = SubsetSplit.canonical((3, 4), (1, 2, 3, 4))
    # complement is smaller-or-equal and contains the least element: flipped
    assert s.indices == (1, 2)
    assert s.complement == (3, 4)
    t = SubsetSplit.canonical((2,), (1, 2, 3))
    assert t.indices == (2,)


def test_subset_rejects_noncanonical():
    with pytest.raises(ValueError):
        SubsetSplit((2, 3), (1, 2, 3))  # complement (1,) is smaller
    with pytest.raises(ValueError):
        SubsetSplit((2, 4), (1, 2, 3, 4))  # half-size but missing least element
    with pytest.raises(ValueError):
        SubsetSplit((), (1, 2))
    with pytest.raises(ValueError):
        SubsetSplit((1, 2), (1, 2))  # not proper


def test_canonical_subsets_counts():
    # one representative per unordered proper bipartition
    for m in range(2, 9):
        subs = list(canonical_subsets(range(1, m + 1)))
        assert len(subs) == 2 ** (m - 1) - 1
        assert len(set(subs)) == len(subs)
        assert all(s.is_canonical for s in subs)
    # decision order: increasing size, lexicographic inside one size
    subs4 = [s.indices for s in canonical_subsets(range(1, 5))]
    assert subs4 == [(1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4)]


def test_canonical_subsets_cover_all_bipartitions():
    universe = (1, 2, 3, 4)
    seen = set()
    for s in canonical_subsets(universe):
        seen.add(frozenset(s.indices))
        seen.add(frozenset(s.complement))
    expect = set()
    for k in range(1, 4):
        for combo in combinations(universe, k):
            expect.add(frozenset(combo))
    assert seen == expect


# ---------------------------------------------------------------- lifting


def test_lift_series_frozen():
    # P = (lambda)(lambda+1) - t split as {1}|{2}: the unique series factors
    P = curve_t(pencil([0, 1], [1]))
    state = lift_subset(P, [Fraction(0), Fraction(-1)], (1,), 4)
    assert state.F.to_lists() == [["0", "1"], ["-1"], ["1"], ["-2"], ["5"]]
    assert state.G.to_lists() == [["1", "1"], ["1"], ["-1"], ["2"], ["-5"]]
    assert [r.to_strings() for r in state.residuals] == [
        ["-1"],
        ["1"],
        ["-2"],
        ["5"],
    ]
    u, v = state.bezout
    assert u.to_strings() == ["-1"] and v.to_strings() == ["1"]
    assert state.order == 4


def test_lift_product_congruence():
    # F*G == P modulo t^(order+1), exactly, at several orders
    p = pencil([0, 1, 3], [1, 2])
    P = curve_t(p)
    roots = [Fraction(0), Fraction(-1), Fraction(-3)]
    for order in (1, 2, 5):
        state = lift_subset(P, roots, (2,), order)
        fg = state.F * state.G
        for k in range(order + 1):
            assert fg.layer(k) == P.layer(k)


def test_lift_bezout_identity():
    P = curve_t(pencil([0, 2, 5], [1, 1]))
    state = lift_subset(P, [Fraction(0), Fraction(-2), Fraction(-5)], (1, 3), 3)
    u, v = state.bezout
    f0 = state.F.layer(0)
    g0 = state.G.layer(0)
    assert u * f0 + v * g0 == type(u)([1])


def test_lift_rejects_wrong_roots():
    P = curve_t(pencil([0, 1], [1]))
    with pytest.raises(ValueError):
        lift_subset(P, [Fraction(5), Fraction(7)], (1,), 2)


# ------------------------------------------------------------ obstruction


def test_obstruction_profile_frozen():
    p = pencil([0, 1, 2, 3], [1, 1, 1])
    prof = obstruction_profile(p, (1, 2))
    assert [q.to_strings() for q in prof] == [[], ["3", "3", "1"], ["-1/2"]]


def test_obstruction_zero_iff_termination():
    # the subset behind an actual factorization has an all-zero profile
    p = pencil([-1, 0, 4], [1, 2])
    prof = obstruction_profile(p, (2,))
    assert all(q.is_zero for q in prof)
    # and a subset with no factorization does not
    prof2 = obstruction_profile(p, (1,))
    assert any(not q.is_zero for q in prof2)
    # a middle cut splits two halves, each with a t-term at its cap
    cut = pencil([0, 1, 2, 3], [1, 0, 1])
    assert all(q.is_zero for q in obstruction_profile(cut, (1, 2)))


# ---------------------------------------------------------------- decide


def test_decide_irreducible():
    d = decide(pencil([0, 1, 5], [1, 1]))
    assert d.status == "Irreducible"
    assert not d.reducible
    assert d.factor_degrees == [3]
    assert d.witnesses == ()
    assert d.factors_t == (curve_t(pencil([0, 1, 5], [1, 1])),)


def test_decide_reducible_frozen():
    d = decide(pencil([-1, 0, 4], [1, 2]))
    assert d.status == "Reducible"
    assert d.reducible
    assert d.factor_degrees == [1, 2]
    assert d.factor_indices == ((2,), (1, 3))
    assert [f.to_lists() for f in d.factors_t] == [
        [["0", "1"]],
        [["-4", "3", "1"], ["-5"]],
    ]
    assert [s.indices for s in d.witnesses] == [(2,)]


def test_decide_stratum_example():
    # couplings balanced so that lambda + 1 splits off
    d = decide(pencil([0, 1, 2], [1, 1]))
    assert d.reducible
    assert [f.to_lists() for f in d.factors_t] == [
        [["1", "1"]],
        [["0", "2", "1"], ["-2"]],
    ]


def test_decide_product_and_monicity():
    for a, b in [
        ([0, 1, 5], [1, 1]),
        ([-1, 0, 4], [1, 2]),
        ([0, 1, 2], [1, 1]),
        ([0, 3, 7, 11], [1, 1, 1]),
    ]:
        p = pencil(a, b)
        d = decide(p)
        prod = d.factors_t[0]
        for f in d.factors_t[1:]:
            prod = prod * f
        assert prod == curve_t(p)
        for f in d.factors_t:
            assert f.is_monic_lambda
        assert sorted(d.factor_degrees) == sorted(f.deg_lambda for f in d.factors_t)


def test_decide_w_form_factors():
    from jacobispec.exactpoly import to_t_form

    d = decide(pencil([-1, 0, 4], [1, 2]))
    for ft, fw in zip(d.factors_t, d.factors_w):
        assert fw.tag == "w"
        assert ft == to_t_form(fw)


def test_decide_rejects_repeated_diagonal():
    with pytest.raises(UnsupportedPencilError):
        decide(pencil([0, 0, 1], [1, 1]))
    with pytest.raises(UnsupportedPencilError):
        decide(pencil([5, 7, 5], [3, 3]))


def test_decide_disconnected_but_distinct():
    # zero coupling is fine as long as the diagonal stays distinct
    d = decide(pencil([0, 1, 2], [1, 0]))
    assert d.reducible
    assert sorted(d.factor_degrees) == [1, 2]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(-8, 8), min_size=2, max_size=4, unique=True),
    st.data(),
)
def test_decide_verdict_matches_profiles(a, data):
    b = data.draw(
        st.lists(
            st.integers(-3, 3), min_size=len(a) - 1, max_size=len(a) - 1
        )
    )
    p = pencil(a, b)
    d = decide(p)
    P = continuant(p)
    indices = tuple(range(1, len(a) + 1))
    profiles_all_clear = []
    for s in canonical_subsets(indices):
        clear = all(q.is_zero for q in obstruction_profile(p, s))
        # the multiplication gate accepts exactly the all-zero profiles
        assert (_attempt_split(P, indices, s, _roots(p)) is not None) == clear, s
        if clear:
            profiles_all_clear.append(s)
    # some subset terminates iff the decision is Reducible
    assert bool(profiles_all_clear) == d.reducible
    if d.reducible:
        # the first terminating subset in decision order is the witness
        assert d.witnesses[0] == profiles_all_clear[0]


# ---------------------------------------------------------- trace filter


def _roots(p):
    return {i: -p.a[i - 1] for i in range(1, p.n + 1)}


def _filter_pencils():
    """Seeded generic pencils, pencils with one and two zero couplings,
    and constant-branch (d3 stratum) pencils."""
    rng = random.Random(2024)
    out = [sample_generic(rng, n, 9) for n in range(2, 8) for _ in range(2)]
    for cuts in (1, 2):
        for n in range(cuts + 2, 8):
            q = sample_generic(rng, n, 9)
            b = list(q.b)
            for k in rng.sample(range(n - 1), cuts):
                b[k] = 0
            out.append(pencil(q.a, b))
    out += [sample_d3_stratum(rng, 9) for _ in range(4)]
    out += [pencil([0, 1, 2], [1, 1]), pencil([-1, 0, 4], [1, 2])]
    return out


def _passes_filter(series, subset):
    """Every order's branch coefficients sum to zero over the subset."""
    if not series:
        return True
    rows = [series[i] for i in subset.indices]
    return all(sum(col) == 0 for col in zip(*rows))


def _full_scan(P, indices, roots, series, witnesses):
    """The decision without the trace filter: _attempt_split on every
    canonical subset, checking that each one that splits passes the
    filter; the first one in decision order is the witness."""
    if len(indices) == 1:
        return [(P, indices)]
    hits = []
    for subset in canonical_subsets(indices):
        split = _attempt_split(P, indices, subset, roots)
        if split is not None:
            assert _passes_filter(series, subset), subset
            hits.append((subset, split))
    if not hits:
        return [(P, indices)]
    subset, (F, G) = hits[0]
    witnesses.append(subset)
    return _full_scan(F, subset.indices, roots, series, witnesses) + _full_scan(
        G, subset.complement, roots, series, witnesses
    )


def test_trace_filter_keeps_every_split_and_the_decision():
    for p in _filter_pencils():
        P = continuant(p)
        indices = tuple(range(1, p.n + 1))
        series = _branch_series(P, _roots(p), indices)
        assert len(series) == p.n
        witnesses = []
        parts = _full_scan(P, indices, _roots(p), series, witnesses)
        d = decide(p)
        assert d.factors_t == tuple(f for f, _ in parts), p
        assert d.factor_indices == tuple(idx for _, idx in parts), p
        assert d.witnesses == tuple(witnesses), p


def test_branch_series_are_roots_of_the_curve():
    # P(lambda_i(t), t) = 0 modulo t^(D+2), by exact substitution
    rng = random.Random(99)
    pencils = [sample_generic(rng, n, 9) for n in (3, 3, 4, 5, 6)]
    pencils += [
        pencil([0, 1], [1]),
        pencil([3, -2], [2]),
        pencil([0, 1, 2], [0, 1]),
        pencil([Fraction(1, 2), Fraction(-3, 7), 2], [Fraction(2, 3), 5]),
        pencil([0, 1, 2], [1, 1]),
    ]
    t = UniPoly.variable()
    for p in pencils:
        P = continuant(p)
        D = P.deg_outer
        series = _branch_series(P, _roots(p), tuple(range(1, p.n + 1)))
        assert sorted(series) == list(range(1, p.n + 1))
        for i, coeffs in series.items():
            assert len(coeffs) == D + 1
            branch = UniPoly([-p.a[i - 1]] + coeffs)
            value = UniPoly()
            for j, layer in enumerate(P.layers):
                value = value + layer(branch) * t**j
            assert all(value.coefficient(k) == 0 for k in range(D + 2)), (p, i)


def test_trace_filter_refutes_generic_pencils_without_lifting(monkeypatch):
    lifted = []
    real = hensel._attempt_split

    def counting(P, indices, subset, roots):
        lifted.append(subset)
        return real(P, indices, subset, roots)

    monkeypatch.setattr(hensel, "_attempt_split", counting)
    rng = random.Random(31)
    for n in range(3, 9):
        assert decide(sample_generic(rng, n, 9)).status == "Irreducible"
    # branch 2 has no t^1 term here; its t^2 term refutes {2}
    assert decide(pencil([-1, 0, 1, 5], [1, 1, 1])).status == "Irreducible"
    assert lifted == []
    # a cut pencil lifts its witness
    decide(pencil([0, 1, 2], [1, 0]))
    assert [s.indices for s in lifted] == [(3,)]
