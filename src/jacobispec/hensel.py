"""Complete absolute-irreducibility decision by lifting at t = 0.

Setting: P(lambda, t) is the spectral curve in t-form, monic in lambda,
and the diagonal entries a_i are pairwise distinct, so

    P(lambda, 0) = (lambda + a_1) * ... * (lambda + a_n)

is squarefree.  Any factorization of P into two monic factors splits this
product, so it selects a subset S of the index set; conversely each
subset determines at most one factorization, recovered order by order in
t from the coprime seed factors.  Scanning all canonical subsets (one per
complementary pair, 2^(n-1) - 1 of them) therefore decides reducibility
outright, and recursion on the two sides produces the complete splitting
into absolutely irreducible factors.

Why the verdict holds over the complex numbers and not merely over the
rationals: the roots of P(., 0) are simple and rational, so each branch
lambda_i(t) is a formal power series with rational coefficients, and any
monic factor of P over C has coefficients that are symmetric functions
of a sub-collection of branches.  Those coefficients are simultaneously
polynomials in t over C and power series in t over Q, hence polynomials
over Q.  A complex factorization is thus already a rational one, and the
subset scan sees it.

Three exact cutoffs keep the scan finite and fast:

* Working order.  A true factor has t-degree at most D = deg_t P, so
  lifting to order D and truncating recovers it exactly; the final
  acceptance gate is exact polynomial multiplication, nothing numeric.

* Degree bound per side.  Assign weight i + 2j to the monomial
  lambda^i t^j.  The top weight of a product is the sum of top weights,
  and by induction along the minor recurrence every monomial of the
  curve satisfies i + 2j <= n.  A monic-in-lambda factor F of the curve
  therefore has top weight exactly deg_lambda F, which caps its t-degree
  at floor(deg_lambda F / 2).  The formal lift is unique, so if the
  subset carries a true factorization, every correction past a side's
  cap vanishes.  The decision therefore lifts each candidate subset
  only to the larger of its two caps, truncates the smaller side at
  its own cap, and accepts the pair iff it multiplies back to P
  exactly.  The diagnostic entry point lifts to order D + 1 and reports
  the beyond-cap content of each order-k correction as the order-k
  obstruction; the obstruction sequence is identically zero exactly
  when the subset terminates.

* Trace filter.  A monic factor F with branch set S has lambda^(|S|-1)
  coefficient -sum_{i in S} lambda_i(t), and the weight bound forces it
  to be constant in t.  So sum_{i in S} c_{i,k} = 0 for every k >= 1,
  where c_{i,k} is the t^k coefficient of branch i.  For n >= 2 the
  decision reads c_{i,k} for k = 1..D+1 off the n singleton lifts once,
  and skips the lift of every subset whose sums are not all zero; such a
  subset cannot terminate, so the witnesses and factors are those of the
  plain scan.  The branches of a factor are branches of P, so the
  recursion reuses the same coefficients.

Repeated diagonal entries are rejected, not mishandled: with a repeated
root at t = 0 the seed factors need not be coprime, branches can involve
half-integer powers of t (equivalently, factors odd in w, as in the
constant-diagonal pencil whose curve is lambda^2 - t =
(lambda - w)(lambda + w)), and the subset indexing breaks down.  Callers
route those pencils through the structural mechanisms and the numeric
monodromy fallback.  For the supported pencils the t-form verdict
transfers to the w-form curve: every branch is a series in t = w^2, so
each w-form factor is invariant under w -> -w and descends to t-form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import UnsupportedPencilError
from .exactpoly import BiPoly, T_FORM, UniPoly, _add, _divmod, _mul, _sub, to_w_form
from .pencil import JacobiPencil, continuant

IRREDUCIBLE = "Irreducible"
REDUCIBLE = "Reducible"


@dataclass(frozen=True)
class SubsetSplit:
    """Canonical representative of a complementary pair of index subsets.

    ``indices`` is the chosen side, sorted; ``universe`` the full sorted
    index set it splits.  Canonical means the smaller side, with ties
    broken toward the side containing the smallest universe element, so
    1 <= size <= len(universe) // 2 always holds.
    """

    indices: tuple[int, ...]
    universe: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(self.indices))
        uni = tuple(sorted(self.universe))
        if not set(idx) < set(uni) or not idx:
            raise ValueError("subset must be a non-empty proper part of universe")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "universe", uni)
        if not self.is_canonical:
            raise ValueError(
                f"subset {idx} of {uni} is not canonical; "
                f"use SubsetSplit.canonical"
            )

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def complement(self) -> tuple[int, ...]:
        chosen = set(self.indices)
        return tuple(i for i in self.universe if i not in chosen)

    @property
    def is_canonical(self) -> bool:
        return _is_canonical(self.indices, self.universe)

    @classmethod
    def canonical(
        cls, indices: Iterable[int], universe: Iterable[int]
    ) -> "SubsetSplit":
        """Build the canonical representative, complementing if needed."""
        uni = tuple(sorted(universe))
        idx = tuple(sorted(indices))
        if not _is_canonical(idx, uni):
            idx = tuple(i for i in uni if i not in idx)
        return cls(idx, uni)


def _is_canonical(indices: tuple[int, ...], universe: tuple[int, ...]) -> bool:
    """The smaller side, or of two halves the one holding the smallest
    element of the sorted universe."""
    k, m = len(indices), len(universe)
    return 2 * k < m or (2 * k == m and universe[0] in indices)


def canonical_subsets(universe: Sequence[int]) -> Iterator[SubsetSplit]:
    """All canonical subsets in decision order: increasing size, then
    lexicographic.  2^(m-1) - 1 subsets for a size-m universe."""
    uni = tuple(sorted(universe))
    m = len(uni)
    for size in range(1, m // 2 + 1):
        if 2 * size < m:
            for combo in combinations(uni, size):
                yield SubsetSplit(combo, uni)
        else:
            # size == m/2: fix the smallest element to pick one side per pair
            for combo in combinations(uni[1:], size - 1):
                yield SubsetSplit((uni[0],) + combo, uni)


@dataclass(frozen=True)
class Decision:
    """Verdict of the complete subset scan.

    ``factors_t`` multiply exactly to the input curve and are each
    absolutely irreducible (certified by recursive scan).  When the
    status is Irreducible the tuple has the single entry P itself.
    ``witnesses`` are the subsets whose lifts terminated, in the order
    they fired; ``factor_indices`` gives each factor's diagonal index
    set, aligned with ``factors_t``."""

    status: str
    factors_t: tuple[BiPoly, ...]
    factors_w: tuple[BiPoly, ...]
    witnesses: tuple[SubsetSplit, ...]
    factor_indices: tuple[tuple[int, ...], ...]

    @property
    def reducible(self) -> bool:
        return self.status == REDUCIBLE

    @property
    def factor_degrees(self) -> list[int]:
        return sorted(f.deg_lambda for f in self.factors_t)


# ---------------------------------------------------------------------------
# the lift on coefficient lists
#
# Polynomials in lambda as plain lists of Fractions, ascending, run through
# the coefficient-list kernel of exactpoly.  The hot path of the subset
# scan runs here; BiPoly objects are built only at the boundaries.


def _bezout(f: list[Fraction], g: list[Fraction]) -> list[Fraction]:
    """Extended Euclid over Q[lambda], tracking the g cofactor only: v
    with v*g = 1 modulo f.  Raises if f and g share a root."""
    r0, r1 = list(f), list(g)
    v0, v1 = [], [Fraction(1)]
    while r1:
        inv = 1 / r1[-1]
        if len(r1) == 1:
            return [c * inv for c in v1]
        monic_r1 = [c * inv for c in r1]
        q, r = _divmod(r0, monic_r1)
        q = [c * inv for c in q]
        r0, r1 = r1, r
        v0, v1 = v1, _sub(v0, _mul(q, v1))
    raise ValueError("seed factors are not coprime")


def _root_product(values: Sequence[Fraction]) -> list[Fraction]:
    """Monic product of (lambda - v) over the given root values."""
    out = [Fraction(1)]
    for v in values:
        out = _mul(out, [-v, Fraction(1)])
    return out


class _Seed(NamedTuple):
    """Start of the lift of one subset: the curve's t-layers as lists,
    the canonical subset, its seed factors F0 and G0 with the Bezout
    cofactor V, V*G0 = 1 modulo F0, the t-degree caps of both sides and
    the working order D + 1, one past deg_t of the curve (see the module
    docstring)."""

    layers: list[list[Fraction]]
    subset: SubsetSplit
    F0: list[Fraction]
    G0: list[Fraction]
    V: list[Fraction]
    cap_f: int
    cap_g: int
    order: int


def _seed(
    P: BiPoly,
    roots: Mapping[int, Fraction],
    subset: SubsetSplit | Iterable[int],
    universe: tuple[int, ...],
) -> _Seed:
    """Seed the lift of ``subset``, a part of ``universe``; ``roots[i]``
    is the lambda-root at t=0 carrying index i."""
    if not isinstance(subset, SubsetSplit):
        subset = SubsetSplit.canonical(subset, universe)
    elif subset.universe != universe:
        raise ValueError("subset universe does not match the root list")
    D = max(P.deg_outer, 0)
    F0 = _root_product([roots[i] for i in subset.indices])
    G0 = _root_product([roots[i] for i in subset.complement])
    V = _bezout(F0, G0)
    cap_f = min(subset.size // 2, D)
    cap_g = min((len(universe) - subset.size) // 2, D)
    layers = [list(l.coeffs) for l in P.layers]
    return _Seed(layers, subset, F0, G0, V, cap_f, cap_g, D + 1)


def _lift_core(
    seed: _Seed, order: int
) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Order-by-order lift of the unique formal factorization, returned
    as the layers f and g of both sides through t^order.

    The order-k correction absorbs d = (P - F*G)_k, taken with the
    corrections through order k-1 in place.  It solves
    fk*G0 + gk*F0 = d with deg fk < deg F0: fk is V*d reduced modulo F0,
    and gk then comes out of an exact division (its exactness is an
    internal invariant)."""
    p_layers, F0, G0, V = seed.layers, seed.F0, seed.G0, seed.V
    f: list[list[Fraction]] = [F0]
    g: list[list[Fraction]] = [G0]
    for k in range(1, order + 1):
        d = list(p_layers[k]) if k < len(p_layers) else []
        for j in range(1, k):
            if f[j] and g[k - j]:
                d = _sub(d, _mul(f[j], g[k - j]))
        fk: list[Fraction] = []
        gk: list[Fraction] = []
        if d:
            fk = _divmod(_mul(V, d), F0)[1]
            gk, leftover = _divmod(_sub(d, _mul(fk, G0)), F0)
            if leftover:
                raise ArithmeticError("lift correction failed to divide out")
        f.append(fk)
        g.append(gk)
    return f, g


def _as_bipoly(layers: list[list[Fraction]]) -> BiPoly:
    return BiPoly([UniPoly(l) for l in layers], T_FORM)


def obstruction_profile(
    p: JacobiPencil, subset: SubsetSplit | Iterable[int]
) -> list[UniPoly]:
    """Obstructions of the subset lift at orders 1..D+1, D = deg_t of
    the curve.

    The order-k entry is the beyond-cap content of the order-k formal
    correction (fk*G0 past the F cap plus gk*F0 past the G cap): the
    part of the residual no factorization within the weighted-degree
    caps could carry.  The profile is identically zero exactly when the
    subset terminates.  It is computed from the plain formal lift to
    order D+1 and serves diagnostics only; the decision accepts a split
    by exact multiplication instead."""
    if not p.distinct_diagonal:
        raise UnsupportedPencilError(
            "repeated diagonal entries; lifting diagnostics unavailable"
        )
    P = continuant(p)
    universe = tuple(range(1, p.n + 1))
    seed = _seed(P, {i: -p.a[i - 1] for i in universe}, subset, universe)
    f, g = _lift_core(seed, seed.order)
    profile = []
    for k in range(1, seed.order + 1):
        o: list[Fraction] = []
        if k > seed.cap_f:
            o = _add(o, _mul(f[k], seed.G0))
        if k > seed.cap_g:
            o = _add(o, _mul(g[k], seed.F0))
        profile.append(UniPoly(o))
    return profile


def _attempt_split(
    P: BiPoly, indices: tuple[int, ...], subset: SubsetSplit, roots: dict[int, Fraction]
) -> tuple[BiPoly, BiPoly] | None:
    """The split of P that ``subset`` seeds, or None if it has none.

    Lifts to the larger cap, cap_g, truncates F at cap_f and accepts by
    exact multiplication.  If F*G == P, this is a factorization with
    the subset's seeds, and the formal lift is unique, so it is the
    subset's split.  If the subset splits, both factors fit within the
    caps, so the truncated lift is exactly those factors."""
    seed = _seed(P, roots, subset, indices)
    f, g = _lift_core(seed, seed.cap_g)
    F, G = _as_bipoly(f[: seed.cap_f + 1]), _as_bipoly(g)
    return (F, G) if F * G == P else None


def _branch_series(
    P: BiPoly, roots: dict[int, Fraction], universe: tuple[int, ...]
) -> dict[int, list[Fraction]]:
    """Coefficients of t^1 .. t^(D+1) of every branch lambda_i(t), the
    root of P that equals roots[i] at t = 0, read off the singleton lift
    of i: the side seeded by lambda - roots[i] is lambda - lambda_i(t).
    Empty for a single branch, which has no split to filter."""
    if len(universe) < 2:
        return {}
    series: dict[int, list[Fraction]] = {}
    for i in universe:
        seed = _seed(P, roots, (i,), universe)
        f, g = _lift_core(seed, seed.order)
        side = f if seed.subset.indices == (i,) else g
        series[i] = [-c[0] if c else Fraction(0) for c in side[1:]]
    return series


def _split_completely(
    P: BiPoly,
    indices: tuple[int, ...],
    roots: dict[int, Fraction],
    series: dict[int, list[Fraction]],
    witnesses: list[SubsetSplit],
) -> list[tuple[BiPoly, tuple[int, ...]]]:
    if len(indices) == 1:
        return [(P, indices)]
    for subset in canonical_subsets(indices):
        rows = (series[i] for i in subset.indices)
        if any(sum(col) for col in zip(*rows)):
            continue
        split = _attempt_split(P, indices, subset, roots)
        if split is None:
            continue
        F, G = split
        witnesses.append(subset)
        return _split_completely(
            F, subset.indices, roots, series, witnesses
        ) + _split_completely(G, subset.complement, roots, series, witnesses)
    return [(P, indices)]


def decide(p: JacobiPencil) -> Decision:
    """Decide absolute irreducibility of the spectral curve and, when it
    is reducible, produce the complete exact factorization.

    Requires pairwise-distinct diagonal entries; raises
    UnsupportedPencilError otherwise (see the module docstring for why
    that case genuinely escapes this method)."""
    if not p.distinct_diagonal:
        raise UnsupportedPencilError(
            "repeated diagonal entries; the subset-lift decision does not "
            "apply (use mechanisms and monodromy instead)"
        )
    P = continuant(p)
    indices = tuple(range(1, p.n + 1))
    roots = {i: -p.a[i - 1] for i in indices}
    series = _branch_series(P, roots, indices)
    witnesses: list[SubsetSplit] = []
    parts = _split_completely(P, indices, roots, series, witnesses)
    factors_t = tuple(f for f, _ in parts)
    factor_indices = tuple(idx for _, idx in parts)
    status = REDUCIBLE if len(parts) > 1 else IRREDUCIBLE
    return Decision(
        status=status,
        factors_t=factors_t,
        factors_w=tuple(to_w_form(f) for f in factors_t),
        witnesses=tuple(witnesses),
        factor_indices=factor_indices,
    )
