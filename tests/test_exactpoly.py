"""Exact polynomial layer: parsing, arithmetic, resultants, the mod-p kernel."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobispec.errors import ExactDivisionError, TagMismatchError
from jacobispec.exactpoly import (
    BiPoly,
    UniPoly,
    _add,
    _divexact,
    _divmod,
    _mul,
    _nullspace_mod,
    _sub,
    discriminant_in_lambda,
    divide_exact_lambda,
    format_rational,
    parse_rational,
    resultant_in_lambda,
    to_t_form,
    to_w_form,
)
from jacobispec.pencil import continuant, curve_t, curve_w, pencil

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=6
)


def unipolys(max_degree=5):
    return st.lists(rationals, min_size=0, max_size=max_degree + 1).map(UniPoly)


def test_parse_rational_forms():
    assert parse_rational("3/7") == Fraction(3, 7)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational("  4 ") == 4
    # unicode minus normalizes
    assert parse_rational("−3") == -3


def test_parse_rational_rejects_garbage():
    for bad in ("1/0", "abc", "", "1.5e3"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_format_parse_round_trip():
    for v in (Fraction(3, 7), Fraction(-9), Fraction(0), Fraction(22, 4)):
        assert parse_rational(format_rational(v)) == v


def test_unipoly_normalization():
    assert UniPoly([1, 2, 0, 0]).degree == 1
    assert UniPoly([]).is_zero
    assert UniPoly([0, 0]).degree == -1
    assert UniPoly([5]).leading == 5


def test_unipoly_arithmetic_basics():
    p = UniPoly([1, 1])  # 1 + x
    q = UniPoly([-1, 1])  # -1 + x
    assert (p * q).coeffs == (-1, 0, 1)
    assert (p + q).coeffs == (0, 2)
    assert (p - p).is_zero
    assert p**3 == p * p * p
    assert p(Fraction(2)) == 3


def test_unipoly_divmod_identity():
    p = UniPoly([2, 0, 1, 3])
    d = UniPoly([1, 2])
    q, r = divmod(p, d)
    assert q * d + r == p
    assert r.degree < d.degree


def test_exact_div_raises_on_remainder():
    with pytest.raises(ExactDivisionError):
        UniPoly([1, 0, 1]).exact_div(UniPoly([1, 1]))


def test_gcd_basics():
    a = UniPoly([-1, 0, 1])  # x^2 - 1
    b = UniPoly([-1, 1])  # x - 1
    assert a.gcd(b) == b
    assert UniPoly([]).gcd(UniPoly([])).is_zero
    # gcd is monic
    assert (UniPoly([2, 2]).gcd(UniPoly([4, 4]))).leading == 1


def test_squarefree_part():
    p = UniPoly([-1, 1]) ** 2 * UniPoly([2, 1])
    sf = p.squarefree_part()
    assert sf == (UniPoly([-1, 1]) * UniPoly([2, 1])).monic()


def test_squarefree_decomposition_recovers_product():
    p = UniPoly([1, 1]) ** 3 * UniPoly([-2, 1])
    parts = p.squarefree_decomposition()
    prod = UniPoly([1])
    for factor, mult in parts:
        prod = prod * factor**mult
    assert prod == p.monic()


@settings(max_examples=60, deadline=None)
@given(unipolys(), unipolys(), unipolys())
def test_unipoly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(unipolys(), unipolys())
def test_unipoly_divmod_property(p, d):
    if d.is_zero:
        with pytest.raises(ZeroDivisionError):
            divmod(p, d)
        return
    q, r = divmod(p, d)
    assert q * d + r == p
    assert r.is_zero or r.degree < d.degree


@settings(max_examples=40, deadline=None)
@given(unipolys(3), unipolys(3))
def test_gcd_divides_both(a, b):
    g = a.gcd(b)
    if g.is_zero:
        assert a.is_zero and b.is_zero
        return
    assert a % g == UniPoly([]) or (a % g).is_zero
    assert (b % g).is_zero


def test_bipoly_construction_and_layers():
    lam = BiPoly.lam("t")
    t = BiPoly.outer("t")
    curve = lam * lam + lam - t
    assert curve.deg_lambda == 2
    assert curve.deg_outer == 1
    assert list(curve.layer(0).coeffs) == [0, 1, 1]
    assert list(curve.layer(1).coeffs) == [-1]


def test_bipoly_tag_mismatch():
    with pytest.raises(TagMismatchError):
        BiPoly.lam("t") + BiPoly.lam("w")


def test_bipoly_eval_consistency():
    lam = BiPoly.lam("w")
    w = BiPoly.outer("w")
    f = (lam + w) * (lam - w) + BiPoly.constant(3, "w")
    v = Fraction(2)
    # evaluating lambda leaves a polynomial in w and vice versa
    assert f.eval_lambda(v)(Fraction(5)) == f.eval_outer(Fraction(5))(v)


def test_bipoly_lists_round_trip():
    f = BiPoly.from_lists([["0", "1", "1"], ["-1"]], "t")
    assert BiPoly.from_lists(f.to_lists(), "t") == f


def test_form_conversion_round_trip():
    f = BiPoly.from_lists([["0", "0", "1"], ["2"], ["-3"]], "t")
    w = to_w_form(f)
    assert w.tag == "w"
    assert to_t_form(w) == f


def test_to_t_form_rejects_odd_terms():
    odd = BiPoly.from_lists([["0", "1"], ["1"]], "w")  # lambda + w
    with pytest.raises(ValueError):
        to_t_form(odd)


def test_divide_exact_lambda():
    lam = BiPoly.lam("t")
    t = BiPoly.outer("t")
    f = lam + t
    g = lam * lam - t
    prod = f * g
    assert divide_exact_lambda(prod, f) == g
    with pytest.raises(ExactDivisionError):
        divide_exact_lambda(prod + BiPoly.one("t"), f)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3),
)
def test_divide_exact_lambda_property(fa, ga):
    lam = BiPoly.lam("t")
    t = BiPoly.outer("t")

    def build(coeffs):
        # monic in lambda with the given t-linear tail
        acc = lam ** len(coeffs)
        for k, c in enumerate(coeffs):
            acc = acc + (lam**k) * BiPoly.constant(c, "t") * t
        return acc

    f, g = build(fa), build(ga)
    assert divide_exact_lambda(f * g, f) == g


def test_resultant_linear_case():
    lam = BiPoly.lam("w")
    w = BiPoly.outer("w")
    f = lam * lam - w * w
    g = lam - BiPoly.one("w")
    # resultant of a monic quadratic with (lambda - 1) is its value there
    assert resultant_in_lambda(f, g) == UniPoly([1, 0, -1])


def test_resultant_detects_common_root():
    lam = BiPoly.lam("w")
    w = BiPoly.outer("w")
    f = (lam - w) * (lam + w)
    g = lam - w
    assert resultant_in_lambda(f, g).is_zero


def test_resultant_of_consecutive_curves_closed_form():
    # P_n = (lambda + a_n) P_{n-1} - t b_{n-1}^2 P_{n-2} gives
    # Res(P_n, P_{n-1}) = +-(t b_{n-1}^2)^(n-1) Res(P_{n-1}, P_{n-2}), so the
    # resultant is +-prod_j (t b_j^2)^j, a monomial of degree n(n-1)/2 in t
    rng = random.Random(31)
    for n in range(2, 8):
        for den in (1, 5) * 5:
            a = [Fraction(rng.randint(-9, 9), rng.randint(1, den)) for _ in range(n)]
            b = [
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, den))
                for _ in range(n - 1)
            ]
            truncation = pencil(a[:-1], b[:-1])
            res = resultant_in_lambda(continuant(pencil(a, b)), continuant(truncation))
            monomial = t_power = UniPoly.one()
            for j, x in enumerate(b, start=1):
                monomial = monomial * (x * x) ** j
                t_power = t_power * UniPoly.variable() ** j
            expected = monomial * t_power
            assert res in (expected, -expected), (a, b)


def test_discriminant_quadratic():
    lam = BiPoly.lam("w")
    w = BiPoly.outer("w")
    f = lam * lam + lam - w * w
    assert discriminant_in_lambda(f) == UniPoly([1, 0, 4])
    assert discriminant_in_lambda(lam * lam - w * w) == UniPoly([0, 0, 4])


def test_discriminant_requires_monic_quadratic_or_more():
    lam = BiPoly.lam("w")
    with pytest.raises(ValueError):
        discriminant_in_lambda(lam)
    w = BiPoly.outer("w")
    with pytest.raises(ValueError):
        discriminant_in_lambda(w * lam * lam)


def test_nullspace_mod_against_sympy_rank():
    # rank-deficient matrices as products of seeded (rows x k)(k x cols)
    # factors, with k up to the full width
    from sympy import GF
    from sympy.polys.matrices import DomainMatrix

    rng = random.Random(13)
    for p in (3, 5, 7):
        for _ in range(20):
            rows, cols = rng.randint(1, 6), rng.randint(1, 6)
            k = rng.randint(0, cols)
            left = [[rng.randint(-20, 20) for _ in range(k)] for _ in range(rows)]
            right = [[rng.randint(-20, 20) for _ in range(cols)] for _ in range(k)]
            mat = [
                [sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                if k
                else [0] * cols
                for row in left
            ]
            basis = _nullspace_mod(mat, p)
            for x in basis:
                assert len(x) == cols and all(0 <= c < p for c in x)
                assert all(sum(m * c for m, c in zip(row, x)) % p == 0 for row in mat)
            field = GF(p)
            rank = DomainMatrix(
                [[field(c) for c in row] for row in mat], (rows, cols), field
            ).rank()
            assert len(basis) == cols - rank, (mat, p)
            # the basis is independent: 1 at its own free column, its last
            # nonzero entry, and 0 at the other free columns
            free = [max(i for i, c in enumerate(x) if c) for x in basis]
            for x, i in zip(basis, free):
                assert [x[j] for j in free] == [int(j == i) for j in free]


def test_unipoly_render():
    assert UniPoly([1, 0, -2]).render("x") in ("-2x^2 + 1", "-2*x^2 + 1")


def test_bipoly_render():
    assert curve_t(pencil([-1, 0, 4], [1, 2])).render() == (
        "λ^3 + 3*λ^2 - 4*λ - 5*λ*t"
    )
    assert curve_w(pencil([0, 1, 1, 0], [1, 2, 1])).render() == (
        "λ^4 + 2*λ^3 + λ^2 - 6*λ^2*w^2 - 2*λ*w^2 + w^4"
    )


# ---------------------------------------------------------------------------
# differential checks against sympy over QQ

_X, _LAM, _OUTER = sympy.symbols("x lam outer")


def _sym_list(u):
    return sympy.Poly.from_list(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(u)],
        _X,
        domain="QQ",
    )


def _sym_bipoly(p: BiPoly):
    return sum(
        sympy.Rational(c.numerator, c.denominator) * _LAM**i * _OUTER**j
        for j, layer in enumerate(p.layers)
        for i, c in enumerate(layer.coeffs)
    )


def _from_sym_outer(expr) -> UniPoly:
    coeffs = sympy.Poly(expr, _OUTER, domain="QQ").all_coeffs()
    return UniPoly(Fraction(int(c.p), int(c.q)) for c in reversed(coeffs))


def _random_list(rng, kind, length, monic=False):
    if kind is int:
        u = [rng.randint(-9, 9) for _ in range(length)]
    else:
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(length)]
    if length and monic:
        u[-1] = kind(1)
    elif length and not u[-1]:
        u[-1] = kind(rng.choice([-3, -1, 2, 5]))
    return u


def test_list_kernel_matches_sympy():
    rng = random.Random(4242)
    for trial in range(300):
        kind = int if trial % 2 == 0 else Fraction
        u = _random_list(rng, kind, rng.randint(0, 6))
        v = _random_list(rng, kind, rng.randint(1, 4), monic=kind is int)
        su, sv = _sym_list(u), _sym_list(v)
        outputs = {
            "add": (_add(u, v), su + sv),
            "sub": (_sub(u, v), su - sv),
            "mul": (_mul(u, v), su * sv),
        }
        q, r = _divmod(u, v)
        sq, sr = sympy.div(su, sv)
        outputs["quot"] = (q, sq)
        outputs["rem"] = (r, sr)
        for name, (got, expected) in outputs.items():
            assert _sym_list(got) == expected, (name, u, v)
            if kind is int:
                assert all(type(c) is int for c in got), (name, u, v)


def test_divexact_integer_lists():
    rng = random.Random(77)
    for _ in range(200):
        u = _random_list(rng, int, rng.randint(1, 6))
        v = _random_list(rng, int, rng.randint(2, 4))
        w = _mul(u, v)
        q = _divexact(w, v)
        assert q == u
        assert all(type(c) is int for c in q)
        with pytest.raises(ExactDivisionError):
            _divexact(_add(w, [1]), v)


def _random_pencil(rng, n):
    # rational entries exercise the denominator scaling of the resultant
    a = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
    b = [Fraction(rng.choice([-9, -2, 1, 3, 7]), rng.randint(1, 2)) for _ in a[1:]]
    return pencil(a, b)


def _sparse_bipoly(rng, tag):
    # zero-rich and not monic in lambda, unlike any curve
    while True:
        layers = [
            UniPoly(rng.choice([0, 0, 0, -2, 1, 3]) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 3))
        ]
        q = BiPoly(layers, tag)
        if not q.is_zero:
            return q


def test_resultant_and_discriminant_match_sympy():
    rng = random.Random(2718)
    for trial in range(10):
        form = continuant if trial % 2 == 0 else curve_w
        p = form(_random_pencil(rng, rng.randint(2, 5)))
        sp = _sym_bipoly(p)
        q_curve = form(_random_pencil(rng, rng.randint(1, 5)))
        for q in (q_curve, _sparse_bipoly(rng, p.tag)):
            assert resultant_in_lambda(p, q) == _from_sym_outer(
                sympy.resultant(sp, _sym_bipoly(q), _LAM)
            )
        assert discriminant_in_lambda(p) == _from_sym_outer(
            sympy.discriminant(sp, _LAM)
        )
    # an even and an odd polynomial in lambda meet zero pivots in the
    # elimination; these pairs swap rows an odd number of times
    lam, t = BiPoly.lam("t"), BiPoly.outer("t")
    for p, q in [
        (lam**2 + t, lam**3 + lam),
        (lam**4 + t * lam**2 + 1, lam**3 + t * lam),
        (lam**4 + (t + 1) * lam**2 + t, t * lam**3 + lam),
    ]:
        assert resultant_in_lambda(p, q) == _from_sym_outer(
            sympy.resultant(_sym_bipoly(p), _sym_bipoly(q), _LAM)
        )
