"""Structured reducibility mechanisms with verifiable certificates.

A spectral curve can factor for four structural reasons, each tied to the
shape of the pencil rather than to accidents of the coefficients:

cut
    A zero coupling b_i disconnects the chain; the curve is the product
    of the two component curves.

constant branch
    The block curve is divisible by lambda + a_j for some diagonal entry
    a_j: one eigenvalue branch is constant in w.

palindrome
    A connected block whose diagonal and squared couplings both read the
    same reversed carries a reflection symmetry.  After a diagonal sign
    change that makes the couplings themselves palindromic, the symmetric
    and antisymmetric invariant subspaces split the block determinant in
    two.  For even block size the two factors pick up corner terms linear
    in w (so they are not even in w individually, though their product
    is); for odd size both factors stay even in w.

scalar block
    A block with constant diagonal a is a scaled coupling matrix: the
    block curve equals w^m * q((lambda + a)/w) where q is the
    characteristic polynomial of the coupling-only matrix.  Over the
    complex numbers this is a product of lines, so such a block of size
    >= 2 is always absolutely reducible; over the rationals it splits
    according to the factorization of q.  q is factored over Q by
    Zassenhaus's algorithm (Berlekamp modulo a small prime, Hensel lifting
    above a Mignotte bound, recombination by exact trial division); a
    factor is proved irreducible when no recombination divides it.

Every certificate stores the exact factors it claims together with the
polynomial they multiply to, and verifies the product on construction.
``apply_all`` drives the mechanisms to a complete leaf factorization:
cuts first, then per connected component scalar, palindrome, and finally
repeated constant-branch extraction on whatever factors remain.  Scalar
and palindrome apply only when the whole component has the shape; a
proper sub-interval with the shape does not factor the component curve
(size 3 with diagonal (0, 0, 5) and unit couplings is already
irreducible, so the scalar pair in front cannot split anything).

``apply_all`` builds each interval's curve once and passes it up: a cut
interval builds its own curve as the cut target and takes its two factors
from the intervals below it.  Every target, and ``MechanismReport.curve``,
is an independent ``continuant`` build, never the product of the factors
it checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice

from .errors import ExactDivisionError, JacobiSpecError
from .exactpoly import BiPoly, UniPoly, W_FORM, divide_exact_lambda
from .exactpoly import _IntPoly, _add, _divexact, _divmod, _divmod_mod, _gcd_mod
from .exactpoly import _inverse_mod, _mul, _nullspace_mod, _odd_primes, _primitive
from .exactpoly import _product, _reduce, _residue, _sub, _trim
from .pencil import Block, JacobiPencil, curve_w, extract_block, tridiag_det

CUT = "cut"
CONSTANT_BRANCH = "constant-branch"
PALINDROME = "palindrome"
SCALAR_BLOCK = "scalar-block"

KINDS = (CUT, CONSTANT_BRANCH, PALINDROME, SCALAR_BLOCK)


@dataclass
class Certificate:
    """One verified factorization step.

    ``factors`` multiply to ``target`` exactly; both sides are w-form.
    ``block`` is the 1-based interval the mechanism acted on.  ``data``
    carries mechanism-specific payload (cut index, branch value, the
    shifted characteristic polynomial of a scalar block, ...).
    """

    kind: str
    block: tuple[int, int]
    target: BiPoly
    factors: tuple[BiPoly, ...]
    data: dict = field(default_factory=dict)
    verified: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        self.verified = self.verify()

    def verify(self) -> bool:
        if not self.factors:
            return False
        if any(f.deg_lambda < 1 for f in self.factors):
            return False
        prod = BiPoly.one(W_FORM)
        for f in self.factors:
            prod = prod * f
        return prod == self.target


@dataclass
class MechanismReport:
    """Outcome of running every mechanism to exhaustion on one pencil.

    ``residual_factors`` are the leaves of the factorization tree: their
    product is the full curve, and no mechanism splits any of them
    further.  Linear leaves are included.  ``reducible`` means at least
    one certificate fired; note a scalar block certifies absolute
    reducibility even when its rational factor list has a single entry.
    """

    pencil: JacobiPencil
    curve: BiPoly
    certificates: list[Certificate]
    residual_factors: list[BiPoly]

    @property
    def reducible(self) -> bool:
        return bool(self.certificates)

    @property
    def leaf_degrees(self) -> list[int]:
        return [f.deg_lambda for f in self.residual_factors]

    def product_check(self) -> bool:
        prod = BiPoly.one(W_FORM)
        for f in self.residual_factors:
            prod = prod * f
        return prod == self.curve and all(c.verified for c in self.certificates)


def _palindromic_couplings(block: Block) -> list[Fraction] | None:
    """Sign-normalized couplings d with d_k = d_{m-2-k}, or None if the
    block has no reflection symmetry.

    The block is palindromic when the diagonal reads the same reversed
    and the squared couplings do too.  Signs of individual couplings are
    free to differ because conjugation by a diagonal sign matrix flips
    them without touching the curve, so only b^2 is tested and a
    concretely palindromic sign choice is returned.
    """
    a = block.diagonal()
    b = block.couplings()
    m = block.m
    if m < 2 or any(x == 0 for x in b):
        return None
    if any(a[k] != a[m - 1 - k] for k in range(m // 2)):
        return None
    c = [x * x for x in b]
    if any(c[k] != c[m - 2 - k] for k in range((m - 1) // 2)):
        return None
    d = list(b)
    for k in range((m - 1) // 2):
        d[m - 2 - k] = d[k]
    return d


def detect_palindrome(block: Block) -> Certificate | None:
    """Split a palindromic connected block into its symmetric and
    antisymmetric parts; None when the block is not palindromic.

    For size m = 2h the parts are two h x h tridiagonal determinants
    whose last diagonal entry is lambda + a +/- d_mid * w; for odd
    m = 2h + 1 they have sizes h + 1 and h, the larger one carrying a
    doubled last off-diagonal product."""
    d = _palindromic_couplings(block)
    if d is None:
        return None
    a = block.diagonal()
    m = block.m
    h = m // 2
    lin = [BiPoly.linear_lambda(x, W_FORM) for x in a[: h + 1]]
    sq = [BiPoly.constant(d[k] * d[k], W_FORM).mul_outer_power(2) for k in range(h)]
    if m % 2 == 0:
        corner = BiPoly.constant(d[h - 1], W_FORM).mul_outer_power(1)
        plus = tridiag_det(lin[: h - 1] + [lin[h - 1] + corner], sq[: h - 1])
        minus = tridiag_det(lin[: h - 1] + [lin[h - 1] - corner], sq[: h - 1])
        factors = (plus, minus)
        parity = "even"
    else:
        sym = tridiag_det(lin[: h + 1], sq[: h - 1] + [2 * sq[h - 1]])
        anti = tridiag_det(lin[:h], sq[: h - 1])
        factors = (sym, anti)
        parity = "odd"
    cert = Certificate(
        kind=PALINDROME,
        block=(block.r, block.s),
        target=curve_w(block.as_pencil()),
        factors=factors,
        data={"half": h, "parity": parity, "couplings": tuple(d)},
    )
    if not cert.verified:
        raise JacobiSpecError("palindrome split failed verification")
    return cert


# ---------------------------------------------------------------------------
# factorization over Q by Zassenhaus's algorithm, on int coefficient lists.
# The arithmetic modulo a prime or a prime power (remainders, gcds,
# inverses, the null space, squarefree residues) is the kernel's, in
# exactpoly; this section drives it.

# Primes tried for the modular step; the one giving the fewest factors wins.
_PRIMES_TRIED = 5
# Odd primes scanned for one that keeps a polynomial's degree and leaves it
# squarefree, which proves it squarefree over Q without the squarefree
# decomposition.
_SQUAREFREE_PRIMES = 10


def _berlekamp_basis(f: _IntPoly, p: int) -> list[_IntPoly]:
    """Basis of the algebra {a : a^p = a modulo f and p}, the constant 1
    first, for a monic f squarefree modulo p.  Its dimension is the number
    of irreducible factors of f modulo p."""
    n = len(f) - 1
    # column i of the matrix is x^(i p) - x^i modulo f
    mat = [[0] * n for _ in range(n)]
    xk = [1] + [0] * (n - 1)
    for i in range(n):
        for j, c in enumerate(xk):
            mat[j][i] = (c - (i == j)) % p
        for _ in range(p):  # times x; the entries grow by less than p^2
            top = xk[-1] % p
            xk = [-top * f[0]] + [c - top * d for c, d in zip(xk, f[1:n])]
    return [_trim(a) for a in _nullspace_mod(mat, p)]


def _berlekamp_split(f: _IntPoly, basis: list[_IntPoly], p: int) -> list[_IntPoly]:
    """Monic irreducible factors of f modulo p: gcds with a - s, for the
    basis elements a and residues s, separate every pair of factors."""
    factors = [f]
    for a in basis[1:]:
        for g in list(factors):
            for s in range(p):
                h = _gcd_mod(g, _reduce(_sub(a, [s]), p), p)
                if 1 < len(h) < len(g):
                    factors.remove(g)
                    g = _divmod_mod(g, h, p)[0]
                    factors += [g, h]
                if len(factors) == len(basis):
                    return factors
    return factors


def _modular_factors(f: _IntPoly) -> tuple[int, list[_IntPoly]]:
    """A prime p and the monic factors of f modulo p, for a squarefree f:
    of the first _PRIMES_TRIED odd primes that keep f squarefree and its
    degree, the one with the fewest factors."""
    best = None
    tried = 0
    for p in _odd_primes():
        fp = _residue(f, p)
        if fp is None:
            continue
        basis = _berlekamp_basis(fp, p)
        if best is None or len(basis) < len(best[2]):
            best = (p, fp, basis)
        tried += 1
        if tried == _PRIMES_TRIED or len(basis) == 1:
            break
    p, fp, basis = best
    return p, _berlekamp_split(fp, basis, p)


def _hensel_step(f, g, h, s, t, m):
    """From f = g*h and s*g + t*h = 1 modulo m, with h monic, the same
    identities modulo m^2 (von zur Gathen and Gerhard, Algorithm 15.10)."""
    mm = m * m
    e = _reduce(_sub(f, _mul(g, h)), mm)
    q, r = _divmod(_mul(s, e), h)
    g = _reduce(_add(g, _add(_mul(t, e), _mul(q, g))), mm)
    h = _reduce(_add(h, r), mm)
    b = _reduce(_sub(_add(_mul(s, g), _mul(t, h)), [1]), mm)
    c, d = _divmod(_mul(s, b), h)
    t = _reduce(_sub(t, _add(_mul(t, b), _mul(c, g))), mm)
    return g, h, _reduce(_sub(s, d), mm), t


def _hensel_lift(f: _IntPoly, mods: list[_IntPoly], p: int, pk: int) -> list[_IntPoly]:
    """Monic factors modulo pk of f = lc(f) * prod(mods) modulo p, in the
    order of mods, by lifting a balanced factor tree."""
    if len(mods) == 1:
        return [_divmod_mod(f, f[-1:], pk)[0]]
    half = len(mods) // 2
    g = _product([f[-1:]] + mods[:half], p)
    h = _product(mods[half:], p)
    s = _inverse_mod(g, h, p)
    t = _divmod_mod(_sub([1], _mul(s, g)), h, p)[0]
    m = p
    while m < pk:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel_lift(g, mods[:half], p, pk) + _hensel_lift(h, mods[half:], p, pk)


def _recombine(f: _IntPoly, lifted: list[_IntPoly], pk: int) -> list[_IntPoly]:
    """Irreducible factors over Z of f from its monic factors modulo pk.

    Subsets of the remaining factors are tried by increasing size, up to
    half of them: lc(f) times their product, read in the symmetric range
    and made primitive, is a factor when it divides f exactly.  What is
    left when no subset divides is irreducible."""
    out = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            cand = _product([f[-1:]] + [lifted[i] for i in subset], pk)
            cand = _primitive([c - pk if 2 * c > pk else c for c in cand])
            try:
                quot = _divexact(f, cand)
            except ExactDivisionError:
                continue
            out.append(cand)
            f = quot
            lifted = [g for i, g in enumerate(lifted) if i not in subset]
            break
        else:
            size += 1
    return out + [f]


def _factor_squarefree(f: _IntPoly) -> list[_IntPoly]:
    """Irreducible factors over Z of a squarefree primitive f.

    A factor h of f of degree d < n = deg f has coefficients at most
    binomial(d, i) * ||f||_2 <= 2^(n-1) * ||f||_2 = B (Mignotte).  Lifted
    modulo p^k > 2 |lc(f)| B, lc(f)/lc(h) * h is lc(f) times a product of
    lifted factors read exactly in the symmetric range."""
    if len(f) <= 2:
        return [f]
    p, mods = _modular_factors(f)
    if len(mods) == 1:
        return [f]
    bound = 2 * abs(f[-1]) * 2 ** (len(f) - 2) * (math.isqrt(sum(c * c for c in f)) + 1)
    pk = p
    while pk <= bound:
        pk *= p
    return _recombine(f, _hensel_lift(f, mods, p, pk), pk)


def _factor_unipoly_rational(u: UniPoly) -> list[tuple[UniPoly, int]]:
    """Irreducible factorization over Q of a univariate polynomial by
    Zassenhaus's algorithm: monic factors with multiplicities, in sympy's
    ``factor_list`` order (degree, multiplicity, then the primitive integer
    coefficients from the highest down).

    x^j is split off and the rest split by ``squarefree_decomposition``.
    A factor is proved irreducible by exhausted recombination: no product
    of its modular factors divides it.  The product of the factors is
    checked against u exactly."""
    j = next((k for k, c in enumerate(u.coeffs) if c), 0)
    parts = [([0, 1], j)] if j else []
    rest = UniPoly(u.coeffs[j:])
    if rest.degree > 0:
        # squarefree modulo a prime that keeps the degree: squarefree over Q
        f = _primitive(rest.coeffs)
        if any(_residue(f, p) for p in islice(_odd_primes(), _SQUAREFREE_PRIMES)):
            squarefree = [(rest, 1)]
        else:
            squarefree = rest.squarefree_decomposition()
        for g, mult in squarefree:
            parts += [(h, mult) for h in _factor_squarefree(_primitive(g.coeffs))]
    parts.sort(key=lambda part: (len(part[0]), part[1], part[0][::-1]))
    out = [(UniPoly([Fraction(c, f[-1]) for c in f]), mult) for f, mult in parts]
    check = UniPoly.one()
    for f, mult in out:
        for _ in range(mult):
            check = check * f
    if check != u.monic():
        raise JacobiSpecError("rational factorization failed to verify")
    return out


def _homogenize(f: UniPoly, shift: Fraction) -> BiPoly:
    """Turn f(mu) into the w-form polynomial w^d * f((lambda + shift)/w)
    where d = deg f, by Horner in lambda + shift."""
    d = f.degree
    lam = BiPoly.linear_lambda(shift, W_FORM)
    acc = BiPoly.zero(W_FORM)
    for k in range(d, -1, -1):
        c = BiPoly.constant(f.coefficient(k), W_FORM)
        acc = acc * lam + c.mul_outer_power(d - k)
    return acc


def coupling_charpoly(block: Block) -> UniPoly:
    """Characteristic polynomial det(mu*I - B) of the coupling-only
    matrix of the block, by the tridiagonal minor recurrence."""
    mu = UniPoly.variable()
    return tridiag_det([mu] * block.m, [x * x for x in block.couplings()])


def scalar_block_certificate(block: Block) -> Certificate:
    """Certificate for a constant-diagonal block of size >= 2.

    The block curve is the degree-m homogenization of q(mu) in
    (lambda + a, w), so it splits over C into m lines; the stored
    factors are the homogenized rational irreducible factors of q."""
    values = set(block.diagonal())
    if len(values) != 1:
        raise ValueError("scalar certificate needs a constant diagonal")
    if block.m < 2:
        raise ValueError("scalar certificate needs block size >= 2")
    shift = block.diagonal()[0]
    q = coupling_charpoly(block)
    parts = _factor_unipoly_rational(q)
    factors = tuple(
        _homogenize(f, shift) for f, mult in parts for _ in range(mult)
    )
    # Yun's decomposition of q: for each multiplicity, ascending, the
    # product of the monic factors that carry it
    squarefree = []
    for mult in sorted({mult for _, mult in parts}):
        part = UniPoly.one()
        for f, m in parts:
            if m == mult:
                part = part * f
        squarefree.append((part, mult))
    cert = Certificate(
        kind=SCALAR_BLOCK,
        block=(block.r, block.s),
        target=curve_w(block.as_pencil()),
        factors=factors,
        data={
            "value": shift,
            "coupling_charpoly": q,
            "rational_factors": parts,
            "squarefree": squarefree,
            "line_degrees": (1,) * block.m,
        },
    )
    if not cert.verified:
        raise JacobiSpecError("scalar block split failed verification")
    return cert


def apply_all(p: JacobiPencil) -> MechanismReport:
    """Run every mechanism to exhaustion and return the leaf factors.

    Cuts split first.  Each connected component then takes the finest
    applicable whole-component mechanism (scalar, else palindrome), and
    constant branches are peeled off every remaining factor by repeated
    exact division, so one diagonal value dividing with multiplicity is
    extracted that many times.  A cut certificate precedes the
    certificates of its two sides."""
    certificates: list[Certificate] = []
    leaves: list[BiPoly] = []

    def peel_branches(target: BiPoly, block: Block) -> None:
        candidates = sorted(set(block.diagonal()))
        work = target
        while work.deg_lambda >= 2:
            hit = next(
                (v for v in candidates if work.eval_lambda(-v).is_zero), None
            )
            if hit is None:
                break
            linear = BiPoly.linear_lambda(hit, W_FORM)
            cofactor = divide_exact_lambda(work, linear)
            certificates.append(
                Certificate(
                    kind=CONSTANT_BRANCH,
                    block=(block.r, block.s),
                    target=work,
                    factors=(linear, cofactor),
                    data={
                        "value": hit,
                        "indices": tuple(
                            j
                            for j, u in enumerate(
                                block.diagonal(), start=block.r
                            )
                            if u == hit
                        ),
                    },
                )
            )
            leaves.append(linear)
            work = cofactor
        leaves.append(work)

    def process_component(r: int, s: int) -> BiPoly:
        block = Block(p, r, s)
        if block.m == 1:
            leaves.append(BiPoly.linear_lambda(p.a[r - 1], W_FORM))
            return leaves[-1]
        if len(set(block.diagonal())) == 1:
            cert = scalar_block_certificate(block)
            certificates.append(cert)
            leaves.extend(cert.factors)
            return cert.target
        cert = detect_palindrome(block)
        if cert is not None:
            certificates.append(cert)
            for f in cert.factors:
                peel_branches(f, block)
            return cert.target
        curve = curve_w(block.as_pencil())
        peel_branches(curve, block)
        return curve

    def process_interval(r: int, s: int) -> BiPoly:
        """Certify the interval [r, s] and return its curve."""
        cut = next(
            (i for i in range(r, s) if p.b[i - 1] == 0), None
        )
        if cut is None:
            return process_component(r, s)
        slot = len(certificates)
        left = process_interval(r, cut)
        right = process_interval(cut + 1, s)
        target = curve_w(extract_block(p, r, s))
        certificates.insert(
            slot,
            Certificate(
                kind=CUT,
                block=(r, s),
                target=target,
                factors=(left, right),
                data={"coupling_index": cut},
            ),
        )
        return target

    report = MechanismReport(
        pencil=p,
        curve=process_interval(1, p.n),
        certificates=certificates,
        residual_factors=leaves,
    )
    if not report.product_check():
        raise JacobiSpecError("mechanism factorization failed final product check")
    return report
