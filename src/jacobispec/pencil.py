"""Jacobi pencils and exact construction of their spectral curves.

A pencil of size n is a symmetric tridiagonal matrix family

    J(w) = A + w*B,   A = diag(a_1..a_n),   B zero-diagonal with
                      couplings b_1..b_{n-1} on the off-diagonals.

The spectral curve is det(lambda*I + J(w)).  With this sign convention the
curve vanishes at lambda = -eigenvalue; at w = 0 it is the product of the
linear factors (lambda + a_i).

Two independent routes to the curve are provided.  ``continuant`` runs the
three-term recurrence for leading principal minors and is the production
path; ``charpoly_oracle`` expands the symbolic determinant by cofactors
and exists only to cross-check the first.  Keeping the routes independent
is deliberate: they share no code beyond the polynomial arithmetic.

The recurrence itself is ``tridiag_det``, the one tridiagonal determinant
of the package: ``continuant`` runs it on BiPoly entries, and the
palindrome split and the coupling polynomial of a scalar block in
``mechanisms`` run it too.  The oracle never calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .exactpoly import (
    BiPoly,
    T_FORM,
    W_FORM,
    _as_fraction,
    to_t_form,
    to_w_form,
)

__all__ = [
    "JacobiPencil",
    "Block",
    "pencil",
    "continuant",
    "curve_t",
    "curve_w",
    "tridiag_det",
    "charpoly_oracle",
    "symbolic_det",
    "extract_block",
    "to_w_form",
    "to_t_form",
]

ORACLE_MAX_SIZE = 10


@dataclass(frozen=True)
class JacobiPencil:
    """Size-n pencil given by diagonal entries a and couplings b."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def __post_init__(self):
        a = tuple(_as_fraction(x) for x in self.a)
        b = tuple(_as_fraction(x) for x in self.b)
        if len(a) < 1:
            raise ValueError("pencil needs at least one diagonal entry")
        if len(b) != len(a) - 1:
            raise ValueError(
                f"size-{len(a)} pencil needs {len(a) - 1} couplings, got {len(b)}"
            )
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return len(self.a)

    @cached_property
    def c(self) -> tuple[Fraction, ...]:
        """Squared couplings; the curve in t-form depends on these only."""
        return tuple(x * x for x in self.b)

    @property
    def connected(self) -> bool:
        return all(x != 0 for x in self.b)

    @property
    def distinct_diagonal(self) -> bool:
        return len(set(self.a)) == self.n

    def __str__(self) -> str:
        a = ", ".join(str(x) for x in self.a)
        b = ", ".join(str(x) for x in self.b)
        return f"JacobiPencil(a=[{a}], b=[{b}])"


def pencil(a: Sequence, b: Sequence) -> JacobiPencil:
    """Convenience constructor accepting ints, strings, or Fractions."""
    return JacobiPencil(tuple(a), tuple(b))


@dataclass(frozen=True)
class Block:
    """An index interval [r, s] (1-based, inclusive) inside a pencil."""

    parent: JacobiPencil
    r: int
    s: int

    def __post_init__(self):
        if not (1 <= self.r <= self.s <= self.parent.n):
            raise ValueError(
                f"block [{self.r}, {self.s}] out of range for size {self.parent.n}"
            )

    @property
    def m(self) -> int:
        return self.s - self.r + 1

    def as_pencil(self) -> JacobiPencil:
        return extract_block(self.parent, self.r, self.s)

    def diagonal(self) -> tuple[Fraction, ...]:
        return self.parent.a[self.r - 1 : self.s]

    def couplings(self) -> tuple[Fraction, ...]:
        return self.parent.b[self.r - 1 : self.s - 1]


def extract_block(p: JacobiPencil, r: int, s: int) -> JacobiPencil:
    """Restriction of the pencil to the interval [r, s], 1-based."""
    if not (1 <= r <= s <= p.n):
        raise ValueError(f"block [{r}, {s}] out of range for size {p.n}")
    return JacobiPencil(p.a[r - 1 : s], p.b[r - 1 : s - 1])


def tridiag_det(diag: Sequence, offprod: Sequence):
    """Determinant of a tridiagonal matrix over a commutative ring, given
    its diagonal entries d_1..d_m and the products e_1..e_{m-1} of the
    paired off-diagonal entries, by the leading-minor recurrence

        D_0 = 1,  D_1 = d_1,  D_k = d_k * D_{k-1} - e_{k-1} * D_{k-2}.

    The entries may be BiPoly, UniPoly or Fraction values."""
    prev, cur = 1, diag[0]
    for k in range(1, len(diag)):
        cur, prev = diag[k] * cur - offprod[k - 1] * prev, cur
    return cur


def continuant(p: JacobiPencil) -> BiPoly:
    """Spectral curve in t-form (t = w^2) by the minor recurrence

        P_0 = 1,  P_1 = lambda + a_1,
        P_k = (lambda + a_k) * P_{k-1} - t * b_{k-1}^2 * P_{k-2}.
    """
    return tridiag_det(
        [BiPoly.linear_lambda(x, T_FORM) for x in p.a],
        [BiPoly.constant(c, T_FORM).mul_outer_power(1) for c in p.c],
    )


def symbolic_det(matrix: Sequence[Sequence[BiPoly]]) -> BiPoly:
    """Exact determinant of a square matrix of bivariate polynomials by
    cofactor expansion, memoized on (row, column) index sets so banded
    matrices stay cheap."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    tags = {e.tag for row in matrix for e in row}
    if len(tags) != 1:
        raise ValueError("matrix entries must share one variable tag")
    tag = tags.pop()
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], BiPoly] = {}

    def minor(rows: tuple[int, ...], cols: tuple[int, ...]) -> BiPoly:
        if not rows:
            return BiPoly.one(tag)
        key = (rows, cols)
        cached = memo.get(key)
        if cached is not None:
            return cached
        acc = BiPoly.zero(tag)
        rest = rows[1:]
        for idx, col in enumerate(cols):
            entry = matrix[rows[0]][col]
            if entry.is_zero:
                continue
            term = entry * minor(rest, cols[:idx] + cols[idx + 1 :])
            acc = acc + term if idx % 2 == 0 else acc - term
        memo[key] = acc
        return acc

    indices = tuple(range(n))
    return minor(indices, indices)


def charpoly_oracle(p: JacobiPencil) -> BiPoly:
    """Spectral curve by direct symbolic determinant expansion of
    lambda*I + J(w), converted to t-form.

    The conversion step independently verifies that the determinant is
    even in w; odd terms would make it raise.  Guarded to n <= 10 because
    cofactor expansion is only meant for cross-checks.
    """
    if p.n > ORACLE_MAX_SIZE:
        raise ValueError(f"oracle limited to size {ORACLE_MAX_SIZE}, got {p.n}")
    n = p.n
    zero = BiPoly.zero(W_FORM)
    rows: list[list[BiPoly]] = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = BiPoly.linear_lambda(p.a[i], W_FORM)
    for i in range(n - 1):
        coupling = BiPoly.constant(p.b[i], W_FORM).mul_outer_power(1)
        rows[i][i + 1] = coupling
        rows[i + 1][i] = coupling
    return to_t_form(symbolic_det(rows))


def curve_t(p: JacobiPencil) -> BiPoly:
    """Alias for :func:`continuant`, named for readability at call sites."""
    return continuant(p)


def curve_w(p: JacobiPencil) -> BiPoly:
    """Spectral curve in w-form."""
    return to_w_form(continuant(p))
