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
    according to the factorization of q.

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

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import JacobiSpecError
from .exactpoly import BiPoly, UniPoly, W_FORM, divide_exact_lambda
from .pencil import Block, JacobiPencil, continuant, curve_w, extract_block, tridiag_det

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


def detect_cuts(p: JacobiPencil) -> list[int]:
    """1-based coupling indices where b_i = 0."""
    return [i for i, x in enumerate(p.b, start=1) if x == 0]


def connected_components(p: JacobiPencil) -> list[tuple[int, int]]:
    """Maximal intervals with no zero coupling inside, in order."""
    out = []
    start = 1
    for i in detect_cuts(p):
        out.append((start, i))
        start = i + 1
    out.append((start, p.n))
    return out


def detect_constant_branches(block: Block) -> list[int]:
    """Diagonal positions j (1-based, absolute) whose value v makes
    lambda + v divide the block curve identically in t."""
    curve = continuant(block.as_pencil())
    hits: list[int] = []
    seen: set[Fraction] = set()
    values = block.diagonal()
    for j, v in enumerate(values, start=block.r):
        if v in seen:
            continue
        seen.add(v)
        if curve.eval_lambda(-v).is_zero:
            hits.extend(
                idx for idx, u in enumerate(values, start=block.r) if u == v
            )
    return sorted(hits)


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
    w = BiPoly.outer(W_FORM)
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


def detect_scalar_blocks(p: JacobiPencil) -> list[tuple[int, int]]:
    """Maximal intervals of length >= 2 with constant diagonal."""
    out = []
    r = 1
    for i in range(2, p.n + 1):
        if p.a[i - 1] != p.a[r - 1]:
            if i - r >= 2:
                out.append((r, i - 1))
            r = i
    if p.n - r + 1 >= 2:
        out.append((r, p.n))
    return out


def _factor_unipoly_rational(u: UniPoly) -> list[tuple[UniPoly, int]]:
    """Irreducible factorization over Q of a monic univariate polynomial,
    monic factors with multiplicities."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(u.coeffs)],
        x,
        domain="QQ",
    )
    _, parts = poly.factor_list()
    out = []
    for f, mult in parts:
        coeffs = [
            Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())
        ]
        out.append((UniPoly(coeffs).monic(), int(mult)))
    check = UniPoly.one()
    for f, mult in out:
        check = check * f**mult
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
    cert = Certificate(
        kind=SCALAR_BLOCK,
        block=(block.r, block.s),
        target=curve_w(block.as_pencil()),
        factors=factors,
        data={
            "value": shift,
            "coupling_charpoly": q,
            "rational_factors": parts,
            "squarefree": q.squarefree_decomposition(),
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
