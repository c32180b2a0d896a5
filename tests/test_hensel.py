"""Subset-indexed lifting at t = 0 and the complete factorization decision."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobispec import hensel
from jacobispec.errors import UnsupportedPencilError
from jacobispec.exactpoly import UniPoly
from jacobispec.experiments import (
    sample_d3_stratum,
    sample_generic,
    sample_palindromic,
    sample_scalar,
)
from jacobispec.hensel import (
    SubsetSplit,
    _as_bipoly,
    _attempt_split,
    _branch_series,
    _lift_core,
    _seed,
    canonical_subsets,
    decide,
    obstruction_profile,
)
from jacobispec.mechanisms import apply_all
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


def _lift(p, subset, order):
    """Seed of ``subset`` for the curve of ``p`` and its lift to ``order``,
    the sides as t-form polynomials."""
    P = curve_t(p)
    universe = tuple(range(1, p.n + 1))
    seed = _seed(P, {i: -p.a[i - 1] for i in universe}, subset, universe)
    f, g = _lift_core(seed, order)
    return P, seed, _as_bipoly(f), _as_bipoly(g)


def test_lift_series_frozen():
    # P = (lambda)(lambda+1) - t split as {1}|{2}: the unique series factors
    _, seed, F, G = _lift(pencil([0, 1], [1]), (1,), 4)
    assert F.to_lists() == [["0", "1"], ["-1"], ["1"], ["-2"], ["5"]]
    assert G.to_lists() == [["1", "1"], ["1"], ["-1"], ["2"], ["-5"]]
    assert UniPoly(seed.V).to_strings() == ["1"]


def test_lift_product_congruence():
    # F*G == P modulo t^(order+1), exactly, at several orders
    for order in (1, 2, 5):
        P, _, F, G = _lift(pencil([0, 1, 3], [1, 2]), (2,), order)
        fg = F * G
        for k in range(order + 1):
            assert fg.layer(k) == P.layer(k)


def test_lift_bezout_identity():
    # V*G0 == 1 modulo F0, with F0 = lambda(lambda+5) and G0 = lambda+2
    _, seed, F, G = _lift(pencil([0, 2, 5], [1, 1]), (1, 3), 3)
    assert (UniPoly(seed.F0), UniPoly(seed.G0)) == (F.layer(0), G.layer(0))
    assert UniPoly(seed.V) * G.layer(0) % F.layer(0) == UniPoly.one()


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


# ------------------------------------------------------- sympy as oracle

LAM, T, W = sympy.symbols("lam t w")


def _sympy_curve(p, outer):
    """det(lambda + A + wB) by the minor recurrence in sympy polynomials,
    in t-form (outer = T) or w-form (outer = W)."""
    square = outer if outer is T else outer**2

    def poly(expr):
        return sympy.Poly(expr, LAM, outer, domain=sympy.QQ)

    prev, cur = poly(1), poly(LAM + sympy.Rational(p.a[0]))
    for k in range(1, p.n):
        diag = poly(LAM + sympy.Rational(p.a[k]))
        coupling = poly(sympy.Rational(p.c[k - 1]) * square)
        cur, prev = cur * diag - prev * coupling, cur
    return cur


def _sympy_poly(f, outer):
    terms = {
        (i, j): sympy.Rational(v)
        for j, layer in enumerate(f.layers)
        for i, v in enumerate(layer.coeffs)
        if v
    }
    return sympy.Poly.from_dict(terms, LAM, outer, domain=sympy.QQ)


def _monic_factors(poly):
    """Monic irreducible factors over QQ as a multiset; monic in lambda
    because a factor of a lambda-monic curve has a constant leading
    lambda-coefficient, which leads in (lam, outer) lex order."""
    _, parts = poly.factor_list()
    return Counter(
        tuple(sorted(f.monic().terms())) for f, mult in parts for _ in range(mult)
    )


def _sympy_pencils(rng):
    """Generic, one-cut, two-cut and d3-stratum pencils, n = 3..8."""
    for n in range(3, 9):
        for _ in range(2):
            for cuts in (0, 1, 2):
                q = sample_generic(rng, n, 9)
                b = list(q.b)
                for k in rng.sample(range(n - 1), cuts):
                    b[k] = 0
                yield pencil(q.a, b)
            # a d3-stratum block (diagonal within 9 + 9**3), cut off from
            # a generic block of size n - 3 with distinct diagonal entries
            d3 = sample_d3_stratum(rng, 9)
            if n == 3:
                yield d3
                continue
            rest = sample_generic(rng, n - 3, 9)
            a = list(d3.a) + [x + 1000 for x in rest.a]
            yield pencil(a, list(d3.b) + [0] + list(rest.b))


def test_decide_factors_equal_sympy_factor_list():
    # decide's factors are absolutely irreducible, and for distinct
    # diagonals the complex and rational factorizations agree (module
    # docstring of hensel), so they are exactly sympy's factors over QQ
    rng = random.Random(2201)
    reducible = 0
    for p in _sympy_pencils(rng):
        d = decide(p)
        reducible += d.reducible
        got = Counter(tuple(sorted(_sympy_poly(f, T).terms())) for f in d.factors_t)
        assert got == _monic_factors(_sympy_curve(p, T)), p
    assert reducible >= 30


def test_mechanism_leaves_are_products_of_sympy_factors():
    # leaves are not claimed to be irreducible; their rational factors
    # together are the curve's
    rng = random.Random(2202)
    pencils = [pencil([0, 1, 1, 0], [1, 2, 1]), pencil([3, 3, 3], [1, 2])]
    pencils += [sample_palindromic(rng, n, 5) for n in (4, 5, 6)]
    pencils += [sample_scalar(rng, n, 5) for n in (3, 4)]
    pencils.append(pencil([2, 2, 5, 2, 2], [1, 0, 3, 1]))
    for p in pencils:
        leaves = apply_all(p).residual_factors
        found = Counter()
        for leaf in leaves:
            found += _monic_factors(_sympy_poly(leaf, W))
        assert found == _monic_factors(_sympy_curve(p, W)), p
