"""Numeric monodromy of the spectral curve over the punctured w-plane.

The curve chi(lambda, w) = 0 is an n-sheeted covering of the w-plane,
branched over the roots of the exact lambda-discriminant.  This module
computes those branch points numerically, tracks the n sheets around a
small loop at each one, and assembles the permutation group the loops
generate.  Orbits of that group correspond to absolutely irreducible
factors, which makes the whole module a floating-point cross-check for
the exact decision machinery; nothing here ever feeds a certificate.

Sheet labels.  At the base point w0 (real, positive, well to the right
of every branch point) the n lambda-roots are sorted lexicographically
by (re, im) and labeled 1..n in that order.  For a connected pencil with
distinct diagonal entries this coincides with continuation from the
roots -a_i at w = 0: an unreduced real symmetric tridiagonal matrix has
simple eigenvalues, so no two sheets can meet anywhere on the real
w-axis and the ascending real order at w0 is the ascending order of the
-a_i.  For other pencils the sorted labeling is simply a fixed
convention.

Tracking.  Roots are recomputed from the exact coefficients at each step
(companion-matrix eigenvalues) and matched to the previous positions by
nearest assignment.  A step is certified when the largest root movement
is below a third of the smallest pairwise root separation before the
step; the triangle inequality then forces the assignment to be the
unique correct bijection.  Failing steps bisect down to a minimum
parameter step, below which TrackingError propagates.

Loops.  Each branch point gets a lasso: a straight segment from w0 to
the boundary of a small circle, the circle counterclockwise, and back.
Because the outgoing segment transports the base labels to the circle,
the permutation read off at the circle is already expressed in base
labels and the return segment cancels; it is never tracked.
Compositions are left-to-right: (p then q)[i] = q[p[i]].  As a global
consistency check the report compares the big counterclockwise circle
through w0 against the product of all lasso permutations ordered by the
angle of each branch point as seen from the base point, descending (the
order in which the outgoing segments leave w0, counterclockwise from
the positive real axis).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NotSquarefreeError, TrackingError, UnsupportedPencilError
from .exactpoly import UniPoly, discriminant_in_lambda, gcd_in_lambda
from .pencil import JacobiPencil, curve_w

RESIDUAL_TOL = 1e-12
CLUSTER_TOL = 1e-8
MIN_PARAM_STEP = 1e-6
MAX_PARAM_STEP = 1.0 / 16.0
CIRCLE_MARGIN = 0.1
SEPARATION_FACTOR = 3.0


@dataclass(frozen=True)
class ComplexApprox:
    """Finite double-precision complex value for reports."""

    re: float
    im: float

    def __post_init__(self):
        if not (math.isfinite(self.re) and math.isfinite(self.im)):
            raise ValueError("non-finite value in numeric report")

    @classmethod
    def from_complex(cls, z: complex) -> "ComplexApprox":
        return cls(float(z.real), float(z.imag))

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self) -> str:
        return f"{self.re:.15g} {'+' if self.im >= 0 else '-'} {abs(self.im):.15g}i"


@dataclass
class MonodromyReport:
    """Branch points, loop permutations, and the group they generate.

    Permutations are tuples over sheet labels 1..n: entry i-1 is the
    label a sheet starting as i carries after the loop, one tuple per
    branch point, aligned with ``branch_points``.  ``certified_step`` is
    the smallest separation-to-movement ratio accepted during tracking
    (certification requires > 3; infinity when nothing was tracked).
    ``consistent`` records the big-circle consistency check described in
    the module docstring."""

    pencil: JacobiPencil
    base_point: ComplexApprox
    branch_points: list[ComplexApprox]
    permutations: list[tuple[int, ...]]
    group_order: int
    orbits: list[tuple[int, ...]]
    certified_step: float
    consistent: bool


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Left-to-right composition on 0-based tuples: first p, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


class _CurveNumerics:
    """Float evaluation of the exact w-form curve: lambda-coefficients
    at a w value and the corresponding root vector."""

    def __init__(self, p: JacobiPencil):
        cols = curve_w(p).lambda_major()
        # ascending lambda; each entry ascending w-coefficients
        self.cols = [
            np.array([complex(c) for c in col.coeffs] or [0j]) for col in cols
        ]
        self.n = len(cols) - 1

    def lambda_poly(self, w: complex) -> np.ndarray:
        """Coefficients of chi(., w), descending, leading first."""
        vals = [
            complex(np.polyval(col[::-1], w)) for col in self.cols
        ]
        return np.array(vals[::-1])

    def roots(self, w: complex) -> np.ndarray:
        return np.roots(self.lambda_poly(w))


class _StepTracker:
    """Accumulates the worst separation ratio over accepted steps."""

    def __init__(self):
        self.min_ratio = math.inf

    def record(self, ratio: float) -> None:
        if ratio < self.min_ratio:
            self.min_ratio = ratio


def _min_separation(points: np.ndarray) -> float:
    n = len(points)
    best = math.inf
    for i in range(n):
        for j in range(i + 1, n):
            d = abs(points[i] - points[j])
            if d < best:
                best = d
    return best


def _certified_step(
    current: np.ndarray, new_roots: np.ndarray
) -> tuple[np.ndarray, float] | None:
    """Match new roots to current sheet positions.  Returns the new
    positions ordered by sheet, plus the separation ratio, or None when
    the movement certificate fails."""
    sep = _min_separation(current)
    n = len(current)
    taken = [False] * n
    ordered = np.empty_like(current)
    max_move = 0.0
    for i in range(n):
        dists = np.abs(new_roots - current[i])
        j = int(np.argmin(dists))
        if taken[j]:
            return None
        move = float(dists[j])
        if move * SEPARATION_FACTOR >= sep:
            return None
        taken[j] = True
        ordered[i] = new_roots[j]
        if move > max_move:
            max_move = move
    ratio = math.inf if max_move == 0.0 else sep / max_move
    return ordered, ratio


def _track(
    curve: _CurveNumerics,
    path: Callable[[float], complex],
    start: np.ndarray,
    tracker: _StepTracker,
) -> np.ndarray:
    """Continue sheet positions along path(s), s in [0, 1]."""
    # The step cap keeps any closed path sampled densely enough that a
    # root exchange cannot complete inside one step and fool the
    # movement certificate with a near-zero apparent displacement.
    current = start
    s = 0.0
    step = MAX_PARAM_STEP
    while s < 1.0:
        target = min(1.0, s + step)
        outcome = _certified_step(current, curve.roots(path(target)))
        if outcome is None:
            step /= 2.0
            if step < MIN_PARAM_STEP:
                raise TrackingError(
                    f"separation certificate failed near path parameter {s:.6f}"
                )
            continue
        current, ratio = outcome
        tracker.record(ratio)
        s = target
        if step < MAX_PARAM_STEP:
            step *= 2.0
    return current


def _aberth_polish(coeffs: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """Simultaneous Newton (Aberth) refinement of all roots of the
    polynomial with the given descending coefficients."""
    deriv = np.polyder(coeffs)
    z = roots.astype(complex).copy()
    scale = float(np.max(np.abs(coeffs))) or 1.0
    for _ in range(60):
        pz = np.polyval(coeffs, z)
        if np.all(np.abs(pz) <= RESIDUAL_TOL * scale):
            break
        dz = np.polyval(deriv, z)
        corr = np.zeros_like(z)
        for i in range(len(z)):
            if dz[i] == 0:
                continue
            newton = pz[i] / dz[i]
            others = np.sum(
                1.0 / (z[i] - np.delete(z, i))
            ) if len(z) > 1 else 0.0
            denom = 1.0 - newton * others
            corr[i] = newton / denom if denom != 0 else newton
        z = z - corr
    return z


def _exact_squarefree_check(p: JacobiPencil) -> None:
    chi = curve_w(p)
    g = gcd_in_lambda(chi, chi.derivative_lambda())
    if g.deg_lambda > 0:
        raise NotSquarefreeError(
            "curve has a repeated lambda-factor; factor first, then take "
            "monodromy of the squarefree parts"
        )


def branch_points(p: JacobiPencil) -> list[ComplexApprox]:
    """Numeric roots of the exact lambda-discriminant in w.

    The discriminant comes from exact arithmetic; only root finding is
    numeric.  Roots are found on the exact squarefree part (repeated
    discriminant roots carry no extra branch points) and polished by an
    Aberth pass.  The squarefree part has distinct roots, so two polished
    roots closer than 1e-8 times the root scale are a numeric failure,
    never one branch point: TrackingError is raised instead of merging
    them."""
    if p.n < 2:
        raise UnsupportedPencilError("monodromy needs at least two sheets")
    _exact_squarefree_check(p)
    disc = discriminant_in_lambda(curve_w(p))
    if disc.is_zero:
        raise NotSquarefreeError("identically zero discriminant")
    reduced = disc.squarefree_part()
    if reduced.degree == 0:
        return []
    coeffs = np.array([complex(c) for c in reduced.coeffs[::-1]])
    raw = np.roots(coeffs)
    polished = _aberth_polish(coeffs, raw)
    scale = max(1.0, float(np.max(np.abs(polished))))
    snap = RESIDUAL_TOL * scale
    cleaned = [
        complex(0.0 if abs(z.real) < snap else z.real,
                0.0 if abs(z.imag) < snap else z.imag)
        for z in polished
    ]
    if _min_separation(cleaned) < CLUSTER_TOL * scale:
        raise TrackingError(
            "two roots of the squarefree discriminant are numerically "
            "coincident; branch points cannot be separated"
        )
    cleaned.sort(key=lambda z: (z.real, z.imag))
    return [ComplexApprox.from_complex(z) for z in cleaned]


def _base_point(bps: Sequence[complex]) -> complex:
    top = max((abs(z) for z in bps), default=0.0)
    return complex(2.0 * (1.0 + top), 0.0)


def _loop_radius(bp: complex, others: Sequence[complex], w0: complex) -> float:
    nearest = min((abs(bp - o) for o in others), default=abs(w0 - bp))
    return max(nearest / 3.0, MIN_PARAM_STEP)


def _sorted_start(roots: np.ndarray) -> np.ndarray:
    order = sorted(range(len(roots)), key=lambda i: (roots[i].real, roots[i].imag))
    return roots[order]


def _end_permutation(start: np.ndarray, final: np.ndarray) -> tuple[int, ...]:
    """Match final sheet positions back to the start labels (0-based)."""
    sep = _min_separation(start)
    n = len(start)
    taken = [False] * n
    perm = [0] * n
    for i in range(n):
        dists = np.abs(start - final[i])
        j = int(np.argmin(dists))
        if taken[j] or float(dists[j]) * SEPARATION_FACTOR >= sep:
            raise TrackingError("loop endpoint does not match its start labels")
        taken[j] = True
        perm[i] = j
    return tuple(perm)


EXCLUSION_FACTOR = 0.4
TIE_TOL = 1e-12


def _cross(a: complex, b: complex) -> float:
    """Positive when b points to the left of a."""
    return (a.conjugate() * b).imag


def _route(
    start: complex, end: complex, obstacles: list[tuple[complex, float]]
) -> list[tuple]:
    """Piecewise path from start to end dodging obstacle disks.

    Returns ("seg", a, b) and ("arc", center, r, phase0, sweep)
    descriptors.  Straight where possible; where the segment would
    enter a disk, an arc along the disk boundary replaces the chord, on
    the side the straight segment already favors (the side away from
    the center).  When the segment passes exactly through a center the
    arc goes right of the travel direction, which for the leftward runs
    from the real base point means above the obstacle.  Disk radii are
    0.4 times each point's distance to its nearest distinct neighbor,
    which keeps disks disjoint and clear of loop circles and of the
    base point."""
    pieces: list[tuple] = []
    cur = start
    direction = end - start
    length = abs(direction)
    if length == 0:
        return pieces
    unit = direction / length
    remaining = sorted(obstacles, key=lambda ob: ((ob[0] - start) / unit).real)
    for center, r in remaining:
        along = ((center - cur) / unit).real
        offset = _cross(unit, center - cur)
        total = ((end - cur) / unit).real
        if along <= 0 or along >= total or abs(offset) >= r:
            continue
        half = math.sqrt(r * r - offset * offset)
        z_in = cur + (along - half) * unit
        z_out = cur + (along + half) * unit
        ph_in = cmath.phase(z_in - center)
        ph_out = cmath.phase(z_out - center)
        sweep_ccw = (ph_out - ph_in) % (2.0 * math.pi)
        side = -1.0 if offset > TIE_TOL * max(1.0, abs(center)) else 1.0
        mid_ccw = center + r * cmath.exp(1j * (ph_in + sweep_ccw / 2.0))
        ccw_side = 1.0 if _cross(unit, mid_ccw - cur) > 0 else -1.0
        sweep = sweep_ccw if ccw_side == side else sweep_ccw - 2.0 * math.pi
        pieces.append(("seg", cur, z_in))
        pieces.append(("arc", center, r, ph_in, sweep))
        cur = z_out
    pieces.append(("seg", cur, end))
    return pieces


def _piece_path(piece: tuple) -> Callable[[float], complex]:
    if piece[0] == "seg":
        _, a, b = piece
        return lambda s: a + s * (b - a)
    _, center, r, ph0, sweep = piece
    return lambda s: center + r * cmath.exp(1j * (ph0 + s * sweep))


def _track_route(
    curve: _CurveNumerics,
    pieces: list[tuple],
    start: np.ndarray,
    tracker: _StepTracker,
) -> np.ndarray:
    current = start
    for piece in pieces:
        current = _track(curve, _piece_path(piece), current, tracker)
    return current


def _lasso(
    curve: _CurveNumerics,
    w0: complex,
    base: np.ndarray,
    bp: complex,
    radius: float,
    obstacles: list[tuple[complex, float]],
    tracker: _StepTracker,
) -> tuple[int, ...]:
    direction = (w0 - bp) / abs(w0 - bp)
    entry = bp + radius * direction
    route = _route(w0, entry, obstacles)
    # The final straight run heads radially into the target; uniform
    # steps cannot resolve a loop radius far smaller than the run, so
    # reparameterize it geometrically: equal parameter steps then halve
    # the remaining distance to the branch point, matching the
    # square-root stiffness of the colliding sheets.
    closures = [_piece_path(piece) for piece in route[:-1]]
    _, seg_from, _ = route[-1]
    far = abs(seg_from - bp)
    if far > radius:
        ratio = radius / far
        closures.append(
            lambda s, a=seg_from, c=bp, rho=ratio: c + (a - c) * rho**s
        )
    else:
        closures.append(_piece_path(route[-1]))
    at_entry = base
    for path in closures:
        at_entry = _track(curve, path, at_entry, tracker)
    phase = cmath.phase(entry - bp)
    circle = lambda s: bp + radius * cmath.exp(1j * (phase + 2.0 * math.pi * s))
    after = _track(curve, circle, at_entry, tracker)
    return _end_permutation(at_entry, after)


def _circle_permutation(
    curve: _CurveNumerics,
    center: complex,
    radius: float,
    tracker: _StepTracker,
) -> tuple[int, ...]:
    start_point = center + radius
    base = _sorted_start(curve.roots(start_point))
    circle = lambda s: center + radius * cmath.exp(2j * math.pi * s)
    after = _track(curve, circle, base, tracker)
    return _end_permutation(base, after)


def track_loop(
    p: JacobiPencil, center: ComplexApprox | complex, radius: float
) -> tuple[int, ...]:
    """Permutation induced by the counterclockwise circle of the given
    center and radius, on sheet labels 1..n fixed by the (re, im) sort
    of the roots at the circle's starting point center + radius.

    The circle must keep a margin of at least radius/10 from every
    branch point."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    c = center.value if isinstance(center, ComplexApprox) else complex(center)
    for bp in branch_points(p):
        if abs(abs(bp.value - c) - radius) < CIRCLE_MARGIN * radius:
            raise ValueError(
                f"circle passes too close to branch point {bp}"
            )
    curve = _CurveNumerics(p)
    tracker = _StepTracker()
    perm = _circle_permutation(curve, c, radius, tracker)
    return tuple(i + 1 for i in perm)


def _group_closure(generators: list[tuple[int, ...]], n: int) -> int:
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for g in frontier:
            for h in generators:
                prod = compose(g, h)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)


def _orbits(generators: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for g in generators:
        for i, j in enumerate(g):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[ri] = rj
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i + 1)
    return sorted(tuple(sorted(v)) for v in groups.values())


def monodromy_group(p: JacobiPencil) -> MonodromyReport:
    """Full monodromy report: one lasso permutation per branch point,
    the order of the generated group by closure enumeration, the orbit
    partition, and the big-circle consistency check."""
    bps = branch_points(p)
    values = [b.value for b in bps]
    w0 = _base_point(values)
    curve = _CurveNumerics(p)
    tracker = _StepTracker()
    base = _sorted_start(curve.roots(w0))
    exclusion = [
        (
            bp,
            EXCLUSION_FACTOR
            * min((abs(bp - o) for o in values if o != bp), default=abs(w0 - bp)),
        )
        for bp in values
    ]
    perms: list[tuple[int, ...]] = []
    for k, bp in enumerate(values):
        others = [o for o in values if o != bp]
        radius = _loop_radius(bp, others, w0)
        obstacles = exclusion[:k] + exclusion[k + 1 :]
        perms.append(_lasso(curve, w0, base, bp, radius, obstacles, tracker))
    group_order = _group_closure(perms, p.n)
    orbits = _orbits(perms, p.n)
    if values:
        big_radius = abs(w0)
        big = _circle_permutation(curve, 0j, big_radius, tracker)
        # concatenation order: by departure angle from the base point,
        # descending; collinear branch points share an angle and the
        # farther one, whose lasso detours around the nearer, comes
        # first
        order = sorted(
            range(len(values)),
            key=lambda i: (
                -cmath.phase(values[i] - w0),
                -abs(values[i] - w0),
            ),
        )
        product = tuple(range(p.n))
        for i in order:
            product = compose(product, perms[i])
        consistent = product == big
    else:
        consistent = True
    return MonodromyReport(
        pencil=p,
        base_point=ComplexApprox.from_complex(w0),
        branch_points=bps,
        permutations=[tuple(i + 1 for i in g) for g in perms],
        group_order=group_order,
        orbits=orbits,
        certified_step=tracker.min_ratio,
        consistent=consistent,
    )


def orbit_factor_degrees(report: MonodromyReport) -> list[int]:
    """Sorted orbit sizes; matches the lambda-degrees of the absolutely
    irreducible factors of the curve."""
    return sorted(len(o) for o in report.orbits)
