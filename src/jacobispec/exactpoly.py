"""Exact bivariate polynomial arithmetic over the rationals.

Everything downstream (curve construction, reducibility certificates, the
lifting decision) runs on the two classes defined here, so the conventions
are worth stating once:

* Scalars are ``fractions.Fraction``.  No floats enter this module.
  The private coefficient-list kernel below the parsers is the one
  implementation of list arithmetic in the package; it also runs on
  ``int`` lists, for the fraction-free resultant, and holds the package's
  arithmetic modulo a prime (remainders, gcds, inverses, null spaces) that
  the factorizer in ``mechanisms`` runs on.
* ``UniPoly`` is a dense univariate polynomial, coefficients ascending.
  The zero polynomial has an empty coefficient tuple and degree -1.
* ``BiPoly`` is a polynomial in ``lambda`` and one outer variable, stored
  as a tuple of ``UniPoly`` layers: ``layers[j]`` is the coefficient of
  ``outer^j`` and is itself a polynomial in lambda.  The outer variable is
  named by ``tag``, either ``"t"`` or ``"w"``.  The two tags never mix:
  a curve in ``t`` (where ``t = w^2``) and the same curve in ``w`` are
  different objects and combining them raises ``TagMismatchError``.

Both classes are immutable and hashable, so they can sit inside frozen
dataclasses and serve as cache keys.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ExactDivisionError, TagMismatchError

T_FORM = "t"
W_FORM = "w"
_TAGS = (T_FORM, W_FORM)

LAMBDA_SYMBOL = "\N{GREEK SMALL LETTER LAMDA}"


def parse_rational(text: str) -> Fraction:
    """Parse a rational from a string such as ``"-3/7"`` or ``"12"``.

    Only the canonical integer or p/q forms are accepted; decimal and
    exponent notation is rejected so inexact-looking literals never
    slip into exact documents.  Unicode minus signs are normalized so
    values copied out of rendered documents round-trip.
    """
    cleaned = text.strip().replace("\N{MINUS SIGN}", "-")
    if not re.fullmatch(r"[+-]?\d+(\s*/\s*[+-]?\d+)?", cleaned):
        raise ValueError(f"not a rational in p/q form: {text!r}")
    try:
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Inverse of :func:`parse_rational`; always plain ASCII."""
    return str(value)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Fraction")


def _var_power(var: str, k: int) -> list[str]:
    return [] if k == 0 else [var if k == 1 else f"{var}^{k}"]


def _render_terms(terms: Iterable[tuple[Fraction, list[str]]]) -> str:
    """Signed sum of (coefficient, variable powers) terms, zeros skipped;
    a unit coefficient is written only on a constant term."""
    parts: list[str] = []
    for c, powers in terms:
        if c == 0:
            continue
        mag = -c if c < 0 else c
        body = "*".join(
            powers if powers and mag == 1 else [format_rational(mag)] + powers
        )
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


# ---------------------------------------------------------------------------
# coefficient-list kernel
#
# Polynomials as plain lists of coefficients, ascending, with no trailing
# zeros.  The coefficients are int in the fraction-free resultant,
# Fraction in UniPoly and the Hensel lift, and UniPoly in BiPoly
# arithmetic and exact division in lambda.  Products and quotients start
# from the zero of their inputs' type, so int lists stay int.


def _trim(u: list) -> list:
    while u and not u[-1]:
        u.pop()
    return u


def _add(u: Sequence, v: Sequence) -> list:
    if len(u) < len(v):
        u, v = v, u
    out = list(u)
    for i, y in enumerate(v):
        out[i] += y
    return _trim(out)


def _sub(u: Sequence, v: Sequence) -> list:
    out = list(u) + [-y for y in v[len(u) :]]
    for i, y in enumerate(v[: len(u)]):
        out[i] -= y
    return _trim(out)


def _mul(u: Sequence, v: Sequence) -> list:
    if not u or not v:
        return []
    out = [type(u[-1])()] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        if x:
            for j, y in enumerate(v):
                out[i + j] += x * y
    return out


def _divmod(u: Sequence, v: Sequence) -> tuple[list, list]:
    """Quotient and remainder of u by v.  The leading coefficient of v
    must be a unit: any nonzero value for Fraction lists, 1 for int lists."""
    rem = list(u)
    top = len(v) - 1
    dq = len(rem) - top - 1
    if dq < 0:
        return [], _trim(rem)
    lead = v[-1]
    monic = lead == 1
    quot = [type(lead)()] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + top]
        if c:
            if not monic:
                c = c / lead
            quot[k] = c
            for j, y in enumerate(v):
                rem[k + j] -= c * y
    del rem[top:]
    return _trim(quot), _trim(rem)


def _divexact(u: Sequence, v: Sequence) -> list:
    """Exact quotient u / v over a Euclidean coefficient ring: int lists
    (Z[x]) or lists of UniPoly (polynomials in lambda over Q[outer]).
    Raises ExactDivisionError when v does not divide u."""
    if not u:
        return []
    rem = list(u)
    top = len(v) - 1
    lead = v[-1]
    quot = [0] * (len(rem) - top)
    for k in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[k + top], lead)
        if r:
            raise ExactDivisionError("division step leaves a remainder")
        quot[k] = c
        if c:
            for j, y in enumerate(v):
                rem[k + j] -= c * y
    if any(rem):
        raise ExactDivisionError("nonzero remainder in exact division")
    return _trim(quot)


# The same kernel modulo m, on int lists.  Residues are kept in [0, m); a
# division needs the leading coefficient of the divisor to be a unit.

_IntPoly = list[int]


def _reduce(u: _IntPoly, m: int) -> _IntPoly:
    return _trim([c % m for c in u])


def _product(factors: list[_IntPoly], m: int) -> _IntPoly:
    out = [1]
    for f in factors:
        out = _reduce(_mul(out, f), m)
    return out


def _divmod_mod(u: _IntPoly, v: _IntPoly, m: int) -> tuple[_IntPoly, _IntPoly]:
    """Quotient and remainder of u by v modulo m; lc(v) must be a unit."""
    inv = pow(v[-1], -1, m)
    quot, rem = _divmod(u, [c * inv % m for c in v])
    return _reduce([c * inv for c in quot], m), _reduce(rem, m)


def _gcd_mod(u: _IntPoly, v: _IntPoly, p: int) -> _IntPoly:
    """Monic gcd modulo the prime p."""
    while v:
        u, v = v, _divmod_mod(u, v, p)[1]
    return _divmod_mod(u, u[-1:], p)[0]


def _inverse_mod(u: _IntPoly, v: _IntPoly, p: int) -> _IntPoly:
    """s with s*u = 1 modulo v and the prime p, for u coprime to v."""
    r0, r1, s0, s1 = u, v, [1], []
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, _reduce(_sub(s0, _mul(q, s1)), p)
    return _divmod_mod(s0, r0, p)[0]


def _nullspace_mod(rows: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {x : rows * x = 0} modulo the prime p for a nonempty matrix,
    by Gauss-Jordan elimination: one vector per free column, in column
    order, with 1 at its own free column and 0 at the others."""
    mat = [[c % p for c in row] for row in rows]
    width = len(mat[0])
    pivots: list[int] = []
    for col in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        inv = pow(mat[piv][col], -1, p)
        mat[piv], mat[r] = mat[r], [c * inv % p for c in mat[piv]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                c = mat[i][col]
                mat[i] = [(x - c * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        a = [0] * width
        a[free] = 1
        for i, col in enumerate(pivots):
            a[col] = -mat[i][free] % p
        basis.append(a)
    return basis


def _odd_primes():
    p = 1
    while True:
        p += 2
        if all(p % d for d in range(3, math.isqrt(p) + 1, 2)):
            yield p


def _residue(f: _IntPoly, p: int) -> _IntPoly | None:
    """f made monic modulo the prime p, or None when p divides lc(f) or f
    is not squarefree modulo p."""
    if f[-1] % p == 0:
        return None
    fp = _divmod_mod(f, f[-1:], p)[0]
    derivative = _reduce([k * c for k, c in enumerate(fp)][1:], p)
    return fp if _gcd_mod(fp, derivative, p) == [1] else None


def _primitive(u) -> _IntPoly:
    """The primitive integer multiple of u (int or Fraction coefficients)
    with positive leading coefficient."""
    den = math.lcm(*(c.denominator for c in u))
    ints = [int(c * den) for c in u]
    g = math.gcd(*ints)
    return [c // (g if ints[-1] > 0 else -g) for c in ints]


def _power(base, n: int, one):
    """base**n by square-and-multiply through ``*``; ``one`` is the
    identity of base's ring."""
    if n < 0:
        raise ValueError("negative power")
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


class UniPoly:
    """Dense univariate polynomial over Fraction, ascending coefficients."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def one(cls) -> "UniPoly":
        return cls((Fraction(1),))

    @classmethod
    def constant(cls, value) -> "UniPoly":
        return cls((_as_fraction(value),))

    @classmethod
    def variable(cls) -> "UniPoly":
        return cls((Fraction(0), Fraction(1)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    @staticmethod
    def _coerce(value):
        if isinstance(value, UniPoly):
            return value
        if isinstance(value, (int, Fraction)):
            return UniPoly.constant(value)
        return NotImplemented

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == UniPoly.constant(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("UniPoly", self.coeffs))

    def __neg__(self) -> "UniPoly":
        return UniPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "UniPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return UniPoly(_add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other) -> "UniPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return UniPoly(_sub(self.coeffs, other.coeffs))

    def __rsub__(self, other) -> "UniPoly":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return UniPoly(_sub(other.coeffs, self.coeffs))

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return UniPoly(tuple(c * q for c in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        return UniPoly(_mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "UniPoly":
        return _power(self, n, UniPoly.one())

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if not isinstance(other, UniPoly):
            other = UniPoly.constant(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        quot, rem = _divmod(self.coeffs, other.coeffs)
        return UniPoly(quot), UniPoly(rem)

    def __floordiv__(self, other) -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "UniPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "UniPoly") -> "UniPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ExactDivisionError(f"{self} is not divisible by {other}")
        return q

    def __call__(self, value):
        """Horner evaluation; works for Fraction, complex, float."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly(tuple(c * k for k, c in enumerate(self.coeffs) if k))

    def monic(self) -> "UniPoly":
        if self.is_zero:
            return self
        inv = 1 / self.leading
        return UniPoly(tuple(c * inv for c in self.coeffs))

    def gcd(self, other: "UniPoly") -> "UniPoly":
        """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def squarefree_part(self) -> "UniPoly":
        if self.degree <= 0:
            return self.monic() if not self.is_zero else self
        return self.exact_div(self.gcd(self.derivative())).monic()

    def squarefree_decomposition(self) -> list[tuple["UniPoly", int]]:
        """Yun's algorithm: monic factors with their multiplicities,
        ascending; the leading coefficient is dropped."""
        f = self.monic()
        if f.degree <= 0:
            return []
        out: list[tuple[UniPoly, int]] = []
        g = f.gcd(f.derivative())
        c = f.exact_div(g)
        d = f.derivative().exact_div(g) - c.derivative()
        i = 1
        while c.degree > 0:
            a = c.gcd(d)
            if a.degree > 0:
                out.append((a, i))
            c = c.exact_div(a)
            d = d.exact_div(a) - c.derivative()
            i += 1
        return out

    def to_strings(self) -> list[str]:
        return [format_rational(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, data: Sequence[str]) -> "UniPoly":
        return cls(tuple(parse_rational(s) for s in data))

    def render(self, var: str = "x") -> str:
        return _render_terms(
            (self.coeffs[k], _var_power(var, k)) for k in range(self.degree, -1, -1)
        )

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"UniPoly({[str(c) for c in self.coeffs]})"


def _check_tag(tag: str) -> str:
    if tag not in _TAGS:
        raise ValueError(f"unknown variable tag {tag!r}; expected 't' or 'w'")
    return tag


class BiPoly:
    """Polynomial in lambda and one outer variable (t or w).

    ``layers[j]`` is the lambda-polynomial multiplying ``outer^j``.
    """

    __slots__ = ("layers", "tag")

    layers: tuple[UniPoly, ...]
    tag: str

    def __init__(self, layers: Iterable[UniPoly] = (), tag: str = T_FORM):
        ls = [l if isinstance(l, UniPoly) else UniPoly(l) for l in layers]
        while ls and ls[-1].is_zero:
            ls.pop()
        object.__setattr__(self, "layers", tuple(ls))
        object.__setattr__(self, "tag", _check_tag(tag))

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @classmethod
    def zero(cls, tag: str = T_FORM) -> "BiPoly":
        return cls((), tag)

    @classmethod
    def one(cls, tag: str = T_FORM) -> "BiPoly":
        return cls((UniPoly.one(),), tag)

    @classmethod
    def constant(cls, value, tag: str = T_FORM) -> "BiPoly":
        return cls((UniPoly.constant(value),), tag)

    @classmethod
    def lam(cls, tag: str = T_FORM) -> "BiPoly":
        """The lambda monomial."""
        return cls((UniPoly.variable(),), tag)

    @classmethod
    def outer(cls, tag: str = T_FORM) -> "BiPoly":
        """The outer-variable monomial (t or w depending on tag)."""
        return cls((UniPoly.zero(), UniPoly.one()), tag)

    @classmethod
    def linear_lambda(cls, shift, tag: str = T_FORM) -> "BiPoly":
        """The factor lambda + shift."""
        return cls((UniPoly((_as_fraction(shift), Fraction(1))),), tag)

    @property
    def is_zero(self) -> bool:
        return not self.layers

    @property
    def deg_outer(self) -> int:
        return len(self.layers) - 1

    @property
    def deg_lambda(self) -> int:
        return max((l.degree for l in self.layers), default=-1)

    def layer(self, j: int) -> UniPoly:
        return self.layers[j] if 0 <= j < len(self.layers) else UniPoly.zero()

    def __bool__(self) -> bool:
        return bool(self.layers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.tag == other.tag and self.layers == other.layers

    def __hash__(self) -> int:
        return hash(("BiPoly", self.tag, self.layers))

    def _require_same_tag(self, other: "BiPoly") -> None:
        if self.tag != other.tag:
            raise TagMismatchError(
                f"cannot combine {self.tag}-form with {other.tag}-form"
            )

    def __neg__(self) -> "BiPoly":
        return BiPoly(tuple(-l for l in self.layers), self.tag)

    def __add__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            other = BiPoly.constant(other, self.tag)
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._require_same_tag(other)
        return BiPoly(_add(self.layers, other.layers), self.tag)

    __radd__ = __add__

    def __sub__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            other = BiPoly.constant(other, self.tag)
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> "BiPoly":
        if isinstance(other, (int, Fraction)):
            q = _as_fraction(other)
            return BiPoly(tuple(l * q for l in self.layers), self.tag)
        if isinstance(other, UniPoly):
            # scalar in lambda only
            return BiPoly(tuple(l * other for l in self.layers), self.tag)
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._require_same_tag(other)
        return BiPoly(_mul(self.layers, other.layers), self.tag)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        return _power(self, n, BiPoly.one(self.tag))

    def mul_outer_power(self, k: int) -> "BiPoly":
        """Multiply by outer^k."""
        if self.is_zero or k == 0:
            return self
        return BiPoly((UniPoly.zero(),) * k + self.layers, self.tag)

    def eval_lambda(self, value) -> UniPoly:
        """Substitute a rational for lambda; the result is univariate in
        the outer variable."""
        v = _as_fraction(value)
        return UniPoly(tuple(l(v) for l in self.layers))

    def eval_outer(self, value) -> UniPoly:
        """Substitute a rational for the outer variable; the result is
        univariate in lambda."""
        v = _as_fraction(value)
        acc = UniPoly.zero()
        for l in reversed(self.layers):
            acc = acc * v + l
        return acc

    def lambda_major(self) -> list[UniPoly]:
        """Transpose to coefficients of lambda^i, each a polynomial in the
        outer variable, ascending in i."""
        cols = [
            UniPoly(tuple(l.coefficient(i) for l in self.layers))
            for i in range(self.deg_lambda + 1)
        ]
        return cols

    @classmethod
    def from_lambda_major(cls, cols: Sequence[UniPoly], tag: str) -> "BiPoly":
        depth = max((c.degree for c in cols), default=-1) + 1
        layers = [
            UniPoly(tuple(c.coefficient(j) for c in cols)) for j in range(depth)
        ]
        return cls(layers, tag)

    @property
    def leading_lambda(self) -> UniPoly:
        """Coefficient of the highest lambda power, in the outer variable."""
        cols = self.lambda_major()
        if not cols:
            raise ValueError("zero polynomial has no leading coefficient")
        return cols[-1]

    @property
    def is_monic_lambda(self) -> bool:
        return not self.is_zero and self.leading_lambda == UniPoly.one()

    def derivative_lambda(self) -> "BiPoly":
        return BiPoly(tuple(l.derivative() for l in self.layers), self.tag)

    def to_lists(self) -> list[list[str]]:
        return [l.to_strings() for l in self.layers]

    @classmethod
    def from_lists(cls, data: Sequence[Sequence[str]], tag: str) -> "BiPoly":
        return cls(tuple(UniPoly.from_strings(row) for row in data), tag)

    def render(self) -> str:
        return _render_terms(
            (l.coefficient(i), _var_power(LAMBDA_SYMBOL, i) + _var_power(self.tag, j))
            for i in range(self.deg_lambda, -1, -1)
            for j, l in enumerate(self.layers)
        )

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"BiPoly(tag={self.tag!r}, {self.render()!r})"


def to_w_form(p: BiPoly) -> BiPoly:
    """Substitute t = w^2: interleave zero layers."""
    if p.tag == W_FORM:
        return p
    layers: list[UniPoly] = []
    for l in p.layers:
        layers.append(l)
        layers.append(UniPoly.zero())
    return BiPoly(layers, W_FORM)


def to_t_form(p: BiPoly) -> BiPoly:
    """Inverse of :func:`to_w_form`; requires the w-form to be even in w."""
    if p.tag == T_FORM:
        return p
    for j in range(1, len(p.layers), 2):
        if not p.layers[j].is_zero:
            raise ValueError("polynomial has odd w-terms; no t-form exists")
    return BiPoly(p.layers[::2], T_FORM)


def divide_exact_lambda(p: BiPoly, d: BiPoly) -> BiPoly:
    """Exact division in the lambda variable; raises ExactDivisionError
    if d does not divide p with a polynomial quotient."""
    p._require_same_tag(d)
    if d.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    quot = _divexact(p.lambda_major(), d.lambda_major())
    return BiPoly.from_lambda_major(quot, p.tag)


def _integer_cols(cols: Sequence[UniPoly]) -> tuple[list[_IntPoly], int]:
    """The columns times the lcm of all their denominators, as int lists,
    and that lcm."""
    den = math.lcm(*(x.denominator for c in cols for x in c.coeffs))
    return [[int(x * den) for x in c.coeffs] for c in cols], den


# ---------------------------------------------------------------------------
# resultant and discriminant in lambda, fraction-free

def _bareiss_det(mat: list[list[_IntPoly]]) -> _IntPoly:
    """Determinant of a matrix over Z[x] by Bareiss one-step elimination."""
    n = len(mat)
    if n == 0:
        return [1]
    sign = 1
    prev: _IntPoly = [1]
    for k in range(n - 1):
        if not mat[k][k]:
            pivot_row = next(
                (i for i in range(k + 1, n) if mat[i][k]), None
            )
            if pivot_row is None:
                return []
            mat[k], mat[pivot_row] = mat[pivot_row], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = _sub(
                    _mul(mat[i][j], mat[k][k]),
                    _mul(mat[i][k], mat[k][j]),
                )
                mat[i][j] = _divexact(num, prev) if num else []
            mat[i][k] = []
        prev = mat[k][k]
    det = mat[n - 1][n - 1]
    return [-c for c in det] if sign < 0 else det


def resultant_in_lambda(p: BiPoly, q: BiPoly) -> UniPoly:
    """Resultant of p and q with respect to lambda, exact, as a polynomial
    in the outer variable."""
    p._require_same_tag(q)
    if p.is_zero or q.is_zero:
        raise ValueError("resultant with a zero polynomial")
    cp, den_p = _integer_cols(p.lambda_major())
    cq, den_q = _integer_cols(q.lambda_major())
    m = len(cp) - 1
    r = len(cq) - 1
    if m == 0 and r == 0:
        return UniPoly.one()
    size = m + r
    mat: list[list[_IntPoly]] = [[[] for _ in range(size)] for _ in range(size)]
    for i in range(r):
        for j, col in enumerate(reversed(cp)):
            mat[i][i + j] = list(col)
    for i in range(m):
        for j, col in enumerate(reversed(cq)):
            mat[r + i][i + j] = list(col)
    det = _bareiss_det(mat)
    # undo the integer scaling: Res(c*p, d*q) = c^r * d^m * Res(p, q)
    scale = Fraction(1, den_p**r * den_q**m)
    return UniPoly(tuple(Fraction(c) * scale for c in det))


def discriminant_in_lambda(p: BiPoly) -> UniPoly:
    """Discriminant of p with respect to lambda, exact.

    Requires p monic in lambda with lambda-degree at least 2.  The zero
    polynomial is a legitimate result and signals a repeated factor.
    """
    if not p.is_monic_lambda:
        raise ValueError("discriminant requires a polynomial monic in lambda")
    m = p.deg_lambda
    if m < 2:
        raise ValueError("discriminant requires lambda-degree >= 2")
    res = resultant_in_lambda(p, p.derivative_lambda())
    if (m * (m - 1) // 2) % 2:
        res = -res
    return res
