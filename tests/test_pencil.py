"""Curve construction: recurrence, determinant oracle, blocks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacobispec.exactpoly import BiPoly, UniPoly
from jacobispec.pencil import (
    Block,
    JacobiPencil,
    charpoly_oracle,
    continuant,
    curve_t,
    curve_w,
    extract_block,
    pencil,
)


def test_size_one_curve():
    p = pencil([Fraction(3)], [])
    assert continuant(p) == BiPoly.from_lists([["3", "1"]], "t")


def test_size_two_frozen():
    p = pencil([0, 1], [1])
    assert continuant(p).to_lists() == [["0", "1", "1"], ["-1"]]


def test_pencil_validation():
    with pytest.raises(ValueError):
        pencil([1, 2], [1, 1])
    with pytest.raises(ValueError):
        pencil([], [])


def test_pencil_predicates():
    p = pencil([0, 1, 1], [1, 0])
    assert not p.connected
    assert not p.distinct_diagonal
    assert p.c == (Fraction(1), Fraction(0))
    q = pencil([0, 1, 2], [1, 1])
    assert q.connected and q.distinct_diagonal


def test_continuant_matches_oracle_frozen():
    for a, b in [
        ([0, 1], [1]),
        ([0, 0, 0, 0], [1, 2, 3]),
        ([2, -1, 3], [1, 2]),
        ([5], []),
        ([1, 1, 1, 1, 1], [1, 0, 2, 0]),
    ]:
        p = pencil(a, b)
        assert continuant(p) == charpoly_oracle(p)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            st.lists(st.integers(-5, 5), min_size=n - 1, max_size=n - 1),
        )
    )
)
def test_continuant_matches_oracle_random(ab):
    a, b = ab
    p = pencil(a, b)
    assert continuant(p) == charpoly_oracle(p)


def test_oracle_size_limit():
    p = pencil(list(range(11)), [1] * 10)
    with pytest.raises(ValueError):
        charpoly_oracle(p)


def test_curve_w_is_even():
    p = pencil([1, -2, 3, 4], [2, 1, 5])
    w = curve_w(p)
    assert all(w.layer(j).is_zero for j in range(1, w.deg_outer + 1, 2))


def test_curve_monic_and_degree():
    p = pencil([1, 2, 3, 4, 5], [1, 1, 1, 1])
    c = curve_t(p)
    assert c.deg_lambda == 5
    assert c.is_monic_lambda
    # weighted degree: lambda-degree i and t-degree j satisfy i + 2j <= n
    for j in range(c.deg_outer + 1):
        layer = c.layer(j)
        assert layer.is_zero or layer.degree + 2 * j <= 5


def test_block_extraction():
    p = pencil([0, 1, 2, 3], [4, 5, 6])
    blk = Block(p, 2, 3)
    assert blk.m == 2
    assert blk.diagonal() == (Fraction(1), Fraction(2))
    assert blk.couplings() == (Fraction(5),)
    sub = blk.as_pencil()
    assert sub.a == (Fraction(1), Fraction(2))
    assert sub.b == (Fraction(5),)
    assert extract_block(p, 2, 3) == sub


def test_block_validation():
    p = pencil([0, 1, 2], [1, 1])
    with pytest.raises(ValueError):
        Block(p, 2, 1)
    with pytest.raises(ValueError):
        Block(p, 0, 2)
    with pytest.raises(ValueError):
        Block(p, 1, 4)


def test_block_curve_multiplies_across_cut():
    # a cut at i splits the curve into the two block curves
    p = pencil([0, 1, 2, 3], [1, 0, 2])
    left = continuant(extract_block(p, 1, 2))
    right = continuant(extract_block(p, 3, 4))
    assert left * right == curve_t(p)


def test_eigenvalue_oracle_specialization():
    # at w = 2 the curve is det(lambda*I + [[0, 2], [2, 1]])
    p = pencil([0, 1], [1])
    assert curve_w(p).eval_outer(Fraction(2)) == UniPoly([-4, 1, 1])


def test_frozen_dataclass():
    p = pencil([0, 1], [1])
    with pytest.raises(AttributeError):
        p.a = (1, 2)
    assert isinstance(p, JacobiPencil)


def test_fraction_coercion():
    p = pencil(["1/2", 1], [Fraction(3, 2)])
    assert p.a == (Fraction(1, 2), Fraction(1))
    assert p.c == (Fraction(9, 4),)
