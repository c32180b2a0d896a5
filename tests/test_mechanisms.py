"""Structured-factorization certificates: cuts, constant branches, palindromes, scalar blocks."""

from fractions import Fraction

import pytest

from jacobispec import mechanisms
from jacobispec.errors import JacobiSpecError
from jacobispec.exactpoly import BiPoly, UniPoly
from jacobispec.mechanisms import (
    Certificate,
    apply_all,
    connected_components,
    coupling_charpoly,
    detect_constant_branches,
    detect_cuts,
    detect_palindrome,
    detect_scalar_blocks,
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


def test_connected_components():
    assert connected_components(pencil([0, 1, 2, 3], [1, 0, 2])) == [(1, 2), (3, 4)]
    assert connected_components(pencil([0, 1], [1])) == [(1, 2)]
    assert connected_components(pencil([0, 1, 2], [0, 0])) == [(1, 1), (2, 2), (3, 3)]


def test_detect_cuts():
    assert detect_cuts(pencil([0, 1, 2, 3], [1, 0, 0])) == [2, 3]
    assert detect_cuts(pencil([0, 1], [1])) == []


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
    p = pencil([0, 1, 5], [1, 1])
    assert detect_constant_branches(Block(p, 1, 3)) == []
    # distinct diagonal can still carry one when the couplings balance:
    # (lambda+1) divides lambda(lambda+1)(lambda+2) - 2t(lambda+1)
    q = pencil([0, 1, 2], [1, 1])
    assert detect_constant_branches(Block(q, 1, 3)) == [2]


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
    # the shape detector still sees the candidate interval
    assert detect_scalar_blocks(p) == [(1, 2)]


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
