"""Independent checks of CLI reports, in sympy arithmetic.

The reference curve is built here from the pencil document by the minor
recurrence of det(lambda*I + A + w*B) for a symmetric tridiagonal matrix,

    D_k = (lambda + a_k) * D_{k-1} - w^2 * b_{k-1}^2 * D_{k-2},

over sympy polynomials, sharing no code with the program.  The t-form is
the same recurrence with t in place of w^2.  ``check`` returns an empty
string when a report passes and a reason otherwise.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import sympy
from sympy import QQ, Poly, Rational

LAM, T, W = sympy.symbols("lam t w")
MAX_FACTOR_LIST_N = 10


class Checker:
    """Checks reports and keeps the total time spent in sympy's
    ``factor_list`` (the external yardstick)."""

    def __init__(self):
        self.factor_list_s = 0.0
        # sympy builds internal tables on its first factorization; keep that
        # out of the yardstick.
        Poly(LAM**2 - T, LAM, T, domain=QQ).factor_list()

    def rational_degrees(self, curve: Poly) -> list[int]:
        """Lambda-degrees of the irreducible factors over QQ, with
        multiplicity."""
        start = time.perf_counter()
        _, parts = curve.factor_list()
        self.factor_list_s += time.perf_counter() - start
        return sorted(f.degree(LAM) for f, mult in parts for _ in range(mult))

    def check(self, command: str, doc: dict, result: dict) -> str:
        try:
            if command == "decide":
                return self._decide(doc, result)
            if command == "detect":
                return _detect(doc, result)
            return self._monodromy(doc, result)
        except (KeyError, TypeError, ValueError) as exc:
            return f"malformed report: {type(exc).__name__}: {exc}"

    def _decide(self, doc: dict, result: dict) -> str:
        factors = [_poly(f, T) for f in result["factors_t"]]
        reference = curve(doc, T)
        if _product(factors, T) != reference:
            return "decide: factors_t do not multiply to the curve"
        degrees = sorted(f.degree(LAM) for f in factors)
        if result["factor_degrees"] != degrees:
            return "decide: factor_degrees disagree with the factors"
        irreducible = len(factors) == 1
        if (result["status"] == "Irreducible") != irreducible:
            return "decide: status disagrees with the factor count"
        if [_w_lists(f) for f in result["factors_t"]] != result["factors_w"]:
            return "decide: factors_w are not factors_t at t = w^2"
        if doc["n"] <= MAX_FACTOR_LIST_N:
            if self.rational_degrees(reference) != degrees:
                return "decide: factor degrees differ from sympy factor_list"
        return ""

    def _monodromy(self, doc: dict, result: dict) -> str:
        n = doc["n"]
        if result["consistent"] is not True:
            return "monodromy: big-circle consistency check failed"
        orbits = result["orbits"]
        if sorted(i for o in orbits for i in o) != list(range(1, n + 1)):
            return "monodromy: orbits do not partition the sheets"
        degrees = sorted(len(o) for o in orbits)
        if result["orbit_degrees"] != degrees:
            return "monodromy: orbit_degrees disagree with the orbits"
        order = result["group_order"]
        if order < 1 or math.factorial(n) % order:
            return "monodromy: group order does not divide n!"
        # With distinct diagonal entries rational factors are absolutely
        # irreducible, so the orbits must match the rational factorization.
        if len(set(doc["a"])) == n and n <= MAX_FACTOR_LIST_N:
            if self.rational_degrees(curve(doc, T)) != degrees:
                return "monodromy: orbit degrees differ from sympy factor_list"
        return ""


def _detect(doc: dict, result: dict) -> str:
    certificates = result["certificates"]
    if not all(c["verified"] is True for c in certificates):
        return "detect: a certificate is not verified"
    if result["reducible"] != bool(certificates):
        return "detect: reducible flag disagrees with the certificates"
    leaves = [_poly(f, W) for f in result["residual_factors"]]
    if _product(leaves, W) != curve(doc, W):
        return "detect: leaves do not multiply to the curve"
    if result["leaf_degrees"] != [f.degree(LAM) for f in leaves]:
        return "detect: leaf_degrees disagree with the leaves"
    return ""


def curve(doc: dict, outer) -> Poly:
    """Spectral curve of the document, in t-form (outer = T) or w-form.
    Terms are kept as {(lambda power, outer power): coefficient}; each step
    of the recurrence only shifts and scales, so no product is needed."""
    a = [Fraction(x) for x in doc["a"]]
    step = 1 if outer is T else 2
    prev: dict = {(0, 0): Fraction(1)}
    cur: dict = {(1, 0): Fraction(1), (0, 0): a[0]}
    for k in range(1, len(a)):
        c = Fraction(doc["b"][k - 1]) ** 2
        nxt: dict = {}
        for (i, j), v in cur.items():
            nxt[(i + 1, j)] = nxt.get((i + 1, j), 0) + v
            nxt[(i, j)] = nxt.get((i, j), 0) + a[k] * v
        for (i, j), v in prev.items():
            nxt[(i, j + step)] = nxt.get((i, j + step), 0) - c * v
        cur, prev = {key: v for key, v in nxt.items() if v}, cur
    return Poly.from_dict(
        {key: Rational(v.numerator, v.denominator) for key, v in cur.items()},
        LAM,
        outer,
        domain=QQ,
    )


def _poly(layers: list[list[str]], outer) -> Poly:
    """Report polynomial: layers[j][i] is the coefficient of lam^i outer^j."""
    terms = {}
    for j, layer in enumerate(layers):
        for i, c in enumerate(layer):
            if Rational(c) != 0:
                terms[(i, j)] = Rational(c)
    return Poly.from_dict(terms or {(0, 0): 0}, LAM, outer, domain=QQ)


def _product(factors: list[Poly], outer) -> Poly:
    out = Poly(1, LAM, outer, domain=QQ)
    for f in factors:
        out = out * f
    return out


def _w_lists(layers: list[list[str]]) -> list[list[str]]:
    """t-form layers rewritten at t = w^2: a zero layer after each."""
    out: list[list[str]] = []
    for layer in layers:
        out += [layer, []]
    while out and not out[-1]:
        out.pop()
    return out


def exact_part(command: str, result: dict) -> dict:
    """The part of a report that must stay bit-identical across commits:
    all of decide and detect, and the group order and orbits of monodromy
    (its floating-point fields may legitimately change)."""
    if command == "monodromy":
        return {"group_order": result["group_order"], "orbits": result["orbits"]}
    return result
