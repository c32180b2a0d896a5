"""Structured-factorization certificates: cuts, constant branches, palindromes, scalar blocks."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from jacobispec import mechanisms
from jacobispec.errors import JacobiSpecError
from jacobispec.exactpoly import BiPoly, UniPoly
from jacobispec.mechanisms import (
    Certificate,
    apply_all,
    coupling_charpoly,
    detect_palindrome,
    scalar_block_certificate,
)
from jacobispec.pencil import Block, curve_w, pencil


def test_cut_certificate():
    p = pencil([0, 1, 2], [1, 0])
    report = apply_all(p)
    assert report.reducible
    assert report.leaf_degrees == [2, 1]
    (cert,) = report.certificates
    assert cert.kind == "cut"
    assert cert.block == (1, 3)
    assert cert.data == {"coupling_index": 2}
    assert cert.verified
    assert [f.to_lists() for f in report.residual_factors] == [
        [["0", "1", "1"], [], ["-1"]],
        [["2", "1"]],
    ]


def test_constant_branch_certificate():
    # repeated diagonal value straddling the interior: lambda + 0 divides
    p = pencil([0, 1, 0], [1, 2])
    report = apply_all(p)
    assert report.reducible
    assert report.leaf_degrees == [1, 2]
    (cert,) = report.certificates
    assert cert.kind == "constant-branch"
    assert cert.block == (1, 3)
    assert cert.data == {"value": Fraction(0), "indices": (1, 3)}
    # linear factor really divides the curve
    linear = BiPoly.from_lists([["0", "1"]], "w")
    q, ok = divmod_like(report.curve, linear)
    assert ok


def divmod_like(curve, linear):
    from jacobispec.exactpoly import divide_exact_lambda

    try:
        return divide_exact_lambda(curve, linear), True
    except Exception:
        return None, False


def test_detect_constant_branches():
    # no diagonal value gives an identically-vanishing branch here
    assert apply_all(pencil([0, 1, 5], [1, 1])).certificates == []
    # distinct diagonal can still carry one when the couplings balance:
    # (lambda+1) divides lambda(lambda+1)(lambda+2) - 2t(lambda+1)
    (cert,) = apply_all(pencil([0, 1, 2], [1, 1])).certificates
    assert cert.kind == "constant-branch"
    assert cert.data == {"value": Fraction(1), "indices": (2,)}


def test_odd_palindrome():
    p = pencil([5, 7, 5], [3, 3])
    report = apply_all(p)
    (cert,) = report.certificates
    assert cert.kind == "palindrome"
    assert cert.data["parity"] == "odd"
    assert cert.data["half"] == 1
    assert cert.data["couplings"] == (Fraction(3), Fraction(3))
    assert [f.to_lists() for f in cert.factors] == [
        [["35", "12", "1"], [], ["-18"]],
        [["5", "1"]],
    ]
    prod = cert.factors[0] * cert.factors[1]
    assert prod == cert.target


def test_even_palindrome():
    p = pencil([0, 1, 1, 0], [1, 2, 1])
    report = apply_all(p)
    (cert,) = report.certificates
    assert cert.kind == "palindrome"
    assert cert.data["parity"] == "even"
    assert cert.data["half"] == 2
    assert [f.to_lists() for f in cert.factors] == [
        [["0", "1", "1"], ["0", "2"], ["-1"]],
        [["0", "1", "1"], ["0", "-2"], ["-1"]],
    ]
    # halves are genuinely odd in w (else the split would not certify anything)
    for f in cert.factors:
        assert not f.layer(1).is_zero
    assert cert.factors[0] * cert.factors[1] == cert.target


def test_palindrome_rejects_asymmetric():
    p = pencil([0, 1, 2], [1, 1])
    assert detect_palindrome(Block(p, 1, 3)) is None


def test_scalar_block_certificate():
    p = pencil([3, 3], [2])
    report = apply_all(p)
    (cert,) = report.certificates
    assert cert.kind == "scalar-block"
    assert cert.block == (1, 2)
    assert cert.data["value"] == Fraction(3)
    assert cert.data["coupling_charpoly"] == UniPoly([-4, 0, 1])
    assert cert.data["line_degrees"] == (1, 1)
    assert cert.data["rational_factors"] == [
        (UniPoly([-2, 1]), 1),
        (UniPoly([2, 1]), 1),
    ]
    assert [f.to_lists() for f in cert.factors] == [
        [["3", "1"], ["-2"]],
        [["3", "1"], ["2"]],
    ]


def test_coupling_charpoly():
    p = pencil([3, 3], [2])
    assert coupling_charpoly(Block(p, 1, 2)) == UniPoly([-4, 0, 1])


def test_scalar_shape_inert_inside_larger_component():
    # first two entries are equal but the component extends past them, so no
    # certificate may be issued for the sub-block alone
    p = pencil([0, 0, 5], [1, 1])
    report = apply_all(p)
    assert report.certificates == []
    assert not report.reducible
    assert report.leaf_degrees == [3]


def test_product_check():
    for a, b in [
        ([0, 1, 2], [1, 0]),
        ([0, 1, 0], [1, 2]),
        ([5, 7, 5], [3, 3]),
        ([0, 1, 1, 0], [1, 2, 1]),
        ([3, 3], [2]),
        ([0, 1, 2, 3], [1, 1, 1]),
    ]:
        assert apply_all(pencil(a, b)).product_check()


def test_certificate_verify_rejects_tamper():
    good = apply_all(pencil([0, 1, 2], [1, 0])).certificates[0]
    bad = Certificate(
        kind=good.kind,
        block=good.block,
        target=good.target,
        factors=(good.factors[0], good.factors[0]),
        data=good.data,
    )
    assert not bad.verify()
    assert not bad.verified


def test_mechanisms_compose_across_cut():
    # cut then palindrome inside the right component
    p = pencil([9, 5, 7, 5], [0, 3, 3])
    report = apply_all(p)
    kinds = sorted(c.kind for c in report.certificates)
    assert kinds == ["cut", "palindrome"]
    assert sorted(report.leaf_degrees) == [1, 1, 2]
    assert report.product_check()


def test_report_curve_is_w_form():
    report = apply_all(pencil([0, 1], [1]))
    assert report.curve == curve_w(pencil([0, 1], [1]))
    assert report.curve.tag == "w"


@pytest.mark.parametrize(
    "a, b, builds, steps",
    [
        ([5, 7, 5], [3, 3], 1, [("palindrome", (1, 3))]),
        ([3, 3, 3], [1, 2], 1, [("scalar-block", (1, 3))]),
        ([0, 1, 5], [1, 1], 1, []),
        # intervals [1,6], [1,2], [3,6], [3,4], [5,6]
        ([0, 1, 2, 3, 4, 5], [1, 0, 2, 0, 3], 5, [("cut", (1, 6)), ("cut", (3, 6))]),
        (
            [2, 2, 5, 7, 5, 1, 0, 1],
            [1, 0, 3, 3, 0, 2, 2],
            5,
            [
                ("cut", (1, 8)),
                ("scalar-block", (1, 2)),
                ("cut", (3, 8)),
                ("palindrome", (3, 5)),
                ("palindrome", (6, 8)),
            ],
        ),
        # size-1 intervals are linear leaves and build no curve
        (
            [0, 1, 0, 4, 6],
            [1, 2, 0, 0],
            3,
            [("cut", (1, 5)), ("constant-branch", (1, 3)), ("cut", (4, 5))],
        ),
    ],
)
def test_each_interval_curve_is_built_once(monkeypatch, a, b, builds, steps):
    built = []
    build = mechanisms.curve_w

    def counting(q):
        built.append(q)
        return build(q)

    monkeypatch.setattr(mechanisms, "curve_w", counting)
    report = apply_all(pencil(a, b))
    assert len(built) == builds
    # a cut certificate comes before the certificates of its two sides
    assert [(c.kind, c.block) for c in report.certificates] == steps
    assert report.curve == curve_w(pencil(a, b))
    assert report.product_check()


def test_report_curve_is_an_independent_build(monkeypatch):
    # a certificate whose factors change after verification must not slip
    # through: the report curve is built from the pencil, not multiplied
    # from the leaves
    honest = mechanisms.detect_palindrome

    def lying(block):
        cert = honest(block)
        cert.factors = (cert.factors[0], cert.factors[0])
        return cert

    monkeypatch.setattr(mechanisms, "detect_palindrome", lying)
    with pytest.raises(JacobiSpecError, match="final product check"):
        apply_all(pencil([0, 1, 1, 0], [1, 2, 1]))


# ------------------------------------------------------- sympy as oracle

_X = sympy.Symbol("x")


def _sympy_factor_list(u):
    """sympy's ordered factor list of u over QQ, each factor made monic."""
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(u.coeffs)],
        _X,
        domain="QQ",
    )
    out = []
    for f, m in poly.factor_list()[1]:
        coeffs = reversed(f.monic().all_coeffs())
        out.append((UniPoly([Fraction(int(c.p), int(c.q)) for c in coeffs]), m))
    return out


def _factorization_inputs(rng):
    x = UniPoly.variable()
    # both quartics are irreducible over Q and split modulo every prime,
    # so their factors are products of two or more modular factors
    yield (x**4 - 10 * x**2 + 1) * (x**4 - 14 * x**2 + 9)
    # coupling polynomials of constant blocks, integer and rational couplings
    for n in range(2, 17):
        for den in (1, 7):
            b = [
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, den))
                for _ in range(n - 1)
            ]
            yield coupling_charpoly(Block(pencil([0] * n, b), 1, n))
    # non-monic and rational, with repeated factors and powers of x
    for _ in range(30):
        u = UniPoly([Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 3))])
        for _ in range(rng.randint(1, 4)):
            low = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
            top = rng.choice((1, 2, -3, Fraction(5, 2)))
            f = UniPoly(low[: rng.randint(1, 4)] + [top])
            u = u * f ** rng.randint(1, 3)
        yield u


def test_rational_factors_equal_sympy_factor_list():
    # the in-house factorization over Q against sympy's, factor order
    # included: the order is part of every scalar-block certificate
    for u in _factorization_inputs(random.Random(23)):
        assert mechanisms._factor_unipoly_rational(u) == _sympy_factor_list(u), u


def test_scalar_block_with_zero_coupling_equals_sympy_factor_list():
    # a zero coupling inside the block repeats eigenvalues of the coupling
    # matrix: repeated rational factors and powers of x
    rng = random.Random(7)
    repeated = with_x = 0
    for n in range(3, 11):
        for _ in range(3):
            b = [rng.choice((0, 1, -2, 3)) for _ in range(n - 1)]
            cert = scalar_block_certificate(Block(pencil([2] * n, b), 1, n))
            parts = cert.data["rational_factors"]
            assert parts == _sympy_factor_list(cert.data["coupling_charpoly"]), b
            repeated += any(m > 1 for _, m in parts)
            with_x += any(f == UniPoly.variable() for f, _ in parts)
    assert repeated and with_x


def test_scalar_block_squarefree_equals_yun():
    # data["squarefree"] is read off the rational factor list; Yun's
    # decomposition of the coupling polynomial is the reference, on blocks
    # with zero couplings (repeated factors) and on seeded nonzero ones
    rng = random.Random(11)
    repeated = 0
    for n in range(2, 11):
        for zeros in (True, True, False):
            choices = (0, 1, -2, 3) if zeros else (1, -2, 3, Fraction(5, 7))
            b = [rng.choice(choices) for _ in range(n - 1)]
            cert = scalar_block_certificate(Block(pencil([-1] * n, b), 1, n))
            q = cert.data["coupling_charpoly"]
            assert cert.data["squarefree"] == q.squarefree_decomposition(), b
            repeated += len(cert.data["squarefree"]) > 1
    assert repeated


def test_recombination_modulus_exceeds_twice_the_mignotte_bound(monkeypatch):
    # lc(f)/lc(h) * h has coefficients at most binomial(n - 1, i) * ||f||_2
    # for a factor h of f, so it is read exactly only modulo more than
    # twice that
    recombine = mechanisms._recombine
    moduli = []

    def recording(f, lifted, pk):
        moduli.append((f, pk))
        return recombine(f, lifted, pk)

    monkeypatch.setattr(mechanisms, "_recombine", recording)
    for u in _factorization_inputs(random.Random(23)):
        mechanisms._factor_unipoly_rational(u)
    assert len(moduli) > 20
    for f, pk in moduli:
        n = len(f) - 1
        binomial = math.comb(n - 1, (n - 1) // 2)
        assert pk**2 > 4 * binomial**2 * sum(c * c for c in f), f
