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

Tracking.  The curve is even in w, so sheet positions at a point w come
from one Horner pass in t = w^2 over a table of the exact t-form
coefficients (one row per power of t, one column per power of lambda),
giving the lambda-coefficients of chi(., w), followed by
``numpy.roots``.  One nearest-neighbour matcher serves both the
tracking steps and the loop ends.  A step is certified when the largest
root movement is below a third of the smallest pairwise root separation
before the step; the triangle inequality then forces the assignment to
be the unique correct bijection.  Failing steps bisect; a failing step
that moves w by less than a fixed fraction (MIN_STEP_FRACTION) of the
smallest loop or obstacle radius on its way raises TrackingError.  A
loop end is matched back to the positions it started from under the
same rule.

Loops.  Each branch point gets a lasso: a straight segment from w0 to
the boundary of a small circle, the circle counterclockwise, and back.
Because the outgoing segment transports the base labels to the circle,
the permutation read off at the circle is already expressed in base
labels and the return segment cancels; it is never tracked.
Compositions are left-to-right: (p then q)[i] = q[p[i]].

Checks.  The pencil is rational, so chi(conj l, conj w) = conj chi(l, w)
(Schwarz reflection): the sheets over conj(w) are the conjugates of
those over w, and over real w they are real, so conjugation fixes the
sorted labels at w0.  Hence the big circle through w0, its upper arc
followed by that arc's mirror image reversed, is the identity and is
never tracked; ``consistent`` says whether the product of all lasso
permutations, ordered by the angle of each branch point seen from w0,
descending (the order in which the outgoing segments leave w0,
counterclockwise from the positive real axis), is the identity.  And
the lasso to conj(bp) mirrors the lasso to bp with its circle turned
clockwise, so the two permutations are mutually inverse; a pair that is
not raises TrackingError naming both lassos.  Where the tie rule of
_route picks a side, the two routes are not mirror images and the pair
is left to the product check.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NotSquarefreeError, TrackingError, UnsupportedPencilError
from .exactpoly import BiPoly, discriminant_in_lambda, to_t_form
from .pencil import JacobiPencil, curve_w

RESIDUAL_TOL = 1e-12
CLUSTER_TOL = 1e-8
MIN_STEP_FRACTION = 1e-3
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
    (certification requires > 3; infinity when nothing was tracked); it
    covers the lassos only, since the big circle is never tracked.
    ``consistent`` says whether the departure-angle product of the lasso
    permutations is the identity, which the big circle's permutation is
    by Schwarz reflection (module docstring)."""

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


def _sheet_solver(chi: BiPoly) -> Callable[[complex], np.ndarray]:
    """Float sheet positions of the exact curve: w -> the roots of
    chi(., w).  The table holds the t-form (``to_t_form`` raises on a
    curve with odd w-terms), one row per power of t = w^2 and one column
    per lambda-power, both highest first; Horner over the rows performs
    the same float operations as ``np.polyval`` at t on each
    lambda-column."""
    curve = to_t_form(chi)
    degree = curve.deg_lambda
    table = np.array(
        [
            [complex(layer.coefficient(i)) for i in range(degree, -1, -1)]
            for layer in reversed(curve.layers)
        ]
    )

    def roots(w: complex) -> np.ndarray:
        t = w * w
        acc = np.zeros(degree + 1, dtype=complex)
        for row in table:
            acc = acc * t + row
        return np.roots(acc)

    return roots


def _min_separation(points: Sequence[complex] | np.ndarray) -> float:
    """Smallest pairwise distance; infinity for fewer than two points.
    The scalar complex ``abs`` on Python complexes; ``np.abs`` of a
    complex array may differ from it in the last bit."""
    z = points.tolist() if isinstance(points, np.ndarray) else list(points)
    best = math.inf
    for i in range(1, len(z)):
        a = z[i]
        for b in z[:i]:
            d = abs(a - b)
            if d < best:
                best = d
    return best


def _match(
    queries: np.ndarray, candidates: np.ndarray, sep: float
) -> tuple[list[int], float] | None:
    """Nearest candidate index for each query (the first one on a tie),
    plus the largest move.  None when two queries pick the same
    candidate or a move reaches sep / SEPARATION_FACTOR."""
    dists = np.abs(candidates[None, :] - queries[:, None])
    picks = dists.argmin(axis=1).tolist()
    max_move = float(dists.min(axis=1).max())
    if len(set(picks)) < len(picks) or max_move * SEPARATION_FACTOR >= sep:
        return None
    return picks, max_move


def _track(
    solve: Callable[[complex], np.ndarray],
    path: Callable[[float], complex],
    start: np.ndarray,
    ratios: list[float],
    floor: float,
) -> np.ndarray:
    """Continue sheet positions along path(s), s in [0, 1], appending the
    separation-to-movement ratio of every accepted step to ``ratios``.
    A refused step is halved; a refused step that moved w by less than
    ``floor`` raises TrackingError."""
    # The step cap keeps any closed path sampled densely enough that a
    # root exchange cannot complete inside one step and fool the
    # movement certificate with a near-zero apparent displacement.
    current = start
    s = 0.0
    here = path(s)
    step = MAX_PARAM_STEP
    sep = _min_separation(current)
    while s < 1.0:
        target = min(1.0, s + step)
        there = path(target)
        new_roots = solve(there)
        outcome = _match(current, new_roots, sep)
        if outcome is None:
            if abs(there - here) < floor:
                raise TrackingError(
                    f"separation certificate failed near path parameter {s:.6f}"
                )
            step /= 2.0
            continue
        picks, max_move = outcome
        ratios.append(math.inf if max_move == 0.0 else sep / max_move)
        current = new_roots[picks]
        sep = _min_separation(current)
        s = target
        here = there
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


def branch_points(p: JacobiPencil, curve: BiPoly | None = None) -> list[ComplexApprox]:
    """Numeric roots of the exact lambda-discriminant in w.  ``curve`` is
    ``curve_w(p)`` when the caller has built it already.

    The discriminant comes from exact arithmetic; only root finding is
    numeric.  The curve is monic in lambda, so its discriminant vanishes
    identically exactly when it has a repeated lambda-factor over Q(w);
    that is the one squarefree test, and it raises NotSquarefreeError.
    Roots are found on the exact squarefree part of the discriminant
    (repeated discriminant roots carry no extra branch points) and
    polished by an Aberth pass.  The squarefree part has distinct roots,
    so two polished roots closer than 1e-8 times the root scale are a
    numeric failure, never one branch point: TrackingError is raised
    instead of merging them."""
    if p.n < 2:
        raise UnsupportedPencilError("monodromy needs at least two sheets")
    disc = discriminant_in_lambda(curve_w(p) if curve is None else curve)
    if disc.is_zero:
        raise NotSquarefreeError(
            "curve has a repeated lambda-factor; factor first, then take "
            "monodromy of the squarefree parts"
        )
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


def _sorted_start(roots: np.ndarray) -> np.ndarray:
    order = sorted(range(len(roots)), key=lambda i: (roots[i].real, roots[i].imag))
    return roots[order]


def _circle(
    solve: Callable[[complex], np.ndarray],
    center: complex,
    radius: float,
    phase: float,
    start: np.ndarray,
    ratios: list[float],
) -> tuple[int, ...]:
    """Permutation (0-based) of the sheets at the circle's starting point
    after one counterclockwise turn from angle ``phase``."""
    circle = lambda s: center + radius * cmath.exp(1j * (phase + 2.0 * math.pi * s))
    after = _track(solve, circle, start, ratios, MIN_STEP_FRACTION * radius)
    outcome = _match(after, start, _min_separation(start))
    if outcome is None:
        raise TrackingError("loop endpoint does not match its start labels")
    return tuple(outcome[0])


EXCLUSION_FACTOR = 0.4
TIE_TOL = 1e-12


def _cross(a: complex, b: complex) -> float:
    """Positive when b points to the left of a."""
    return (a.conjugate() * b).imag


def _route(
    start: complex, end: complex, obstacles: list[tuple[complex, float]]
) -> tuple[list[Callable[[float], complex]], complex, bool]:
    """Piecewise path from start toward end dodging obstacle disks.

    Returns the paths of the pieces before the final straight run to
    end, the point where that run starts, and whether the route is the
    mirror image of the route from conj(start) to conj(end) past the
    conjugate disks (False when the tie rule below decided a side).
    Straight where possible;
    where the segment would enter a disk, an arc along the disk boundary
    replaces the chord, on the side the straight segment already favors
    (the side away from the center).  When the segment passes exactly
    through a center the arc goes right of the travel direction, which
    for the leftward runs from the real base point means above the
    obstacle.  Disk radii are 0.4 times each point's distance to its
    nearest distinct neighbor, which keeps disks disjoint and clear of
    loop circles and of the base point."""
    paths: list[Callable[[float], complex]] = []
    cur = start
    mirrored = True
    direction = end - start
    length = abs(direction)
    if length == 0:
        return paths, cur, mirrored
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
        tie = TIE_TOL * max(1.0, abs(center))
        side = -1.0 if offset > tie else 1.0
        mirrored = mirrored and abs(offset) > tie
        mid_ccw = center + r * cmath.exp(1j * (ph_in + sweep_ccw / 2.0))
        ccw_side = 1.0 if _cross(unit, mid_ccw - cur) > 0 else -1.0
        sweep = sweep_ccw if ccw_side == side else sweep_ccw - 2.0 * math.pi
        paths.append(lambda s, a=cur, b=z_in: a + s * (b - a))
        paths.append(
            lambda s, c=center, r=r, ph0=ph_in, sw=sweep: c
            + r * cmath.exp(1j * (ph0 + s * sw))
        )
        cur = z_out
    return paths, cur, mirrored


def _lasso(
    solve: Callable[[complex], np.ndarray],
    w0: complex,
    base: np.ndarray,
    bp: complex,
    radius: float,
    obstacles: list[tuple[complex, float]],
    ratios: list[float],
) -> tuple[tuple[int, ...], bool]:
    """Permutation (0-based) of the lasso around bp, and whether its
    route is the mirror image of the route to conj(bp) (see _route)."""
    direction = (w0 - bp) / abs(w0 - bp)
    entry = bp + radius * direction
    paths, seg_from, mirrored = _route(w0, entry, obstacles)
    # The final straight run heads radially into the target; uniform
    # steps cannot resolve a loop radius far smaller than the run, so
    # reparameterize it geometrically: equal parameter steps then halve
    # the remaining distance to the branch point, matching the
    # square-root stiffness of the colliding sheets.
    far = abs(seg_from - bp)
    if far > radius:
        ratio = radius / far
        paths.append(
            lambda s, a=seg_from, c=bp, rho=ratio: c + (a - c) * rho**s
        )
    else:
        paths.append(lambda s, a=seg_from, b=entry: a + s * (b - a))
    # the approach passes obstacle disks, so its floor is a fraction of
    # the smallest radius it can meet
    floor = MIN_STEP_FRACTION * min([radius] + [r for _, r in obstacles])
    at_entry = base
    for path in paths:
        at_entry = _track(solve, path, at_entry, ratios, floor)
    perm = _circle(solve, bp, radius, cmath.phase(entry - bp), at_entry, ratios)
    return perm, mirrored


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
    chi = curve_w(p)
    for bp in branch_points(p, chi):
        if abs(abs(bp.value - c) - radius) < CIRCLE_MARGIN * radius:
            raise ValueError(
                f"circle passes too close to branch point {bp}"
            )
    solve = _sheet_solver(chi)
    perm = _circle(solve, c, radius, 0.0, _sorted_start(solve(c + radius)), [])
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


def _check_conjugate_pairs(
    bps: list[ComplexApprox],
    radii: list[float],
    perms: list[tuple[int, ...]],
    mirrored: list[bool],
) -> None:
    """Raise TrackingError unless the lasso of each upper branch point and
    that of the reported point nearest its conjugate are mutually
    inverse.  The partner must lie within CIRCLE_MARGIN times the upper
    lasso's radius of that conjugate; a pair whose routes are not mirror
    images is skipped."""
    values = [b.value for b in bps]
    for k, bp in enumerate(values):
        if bp.imag <= 0:
            continue
        mirror = bp.conjugate()
        j = min(range(len(values)), key=lambda i: abs(values[i] - mirror))
        if abs(values[j] - mirror) >= CIRCLE_MARGIN * radii[k]:
            raise TrackingError(
                f"lasso {k + 1} around {bps[k]}: no branch point near its "
                "conjugate"
            )
        if not (mirrored[k] and mirrored[j]):
            continue
        after = compose(perms[k], perms[j])
        if after != tuple(range(len(after))):
            raise TrackingError(
                f"lassos {k + 1} and {j + 1} around conjugate branch points "
                f"{bps[k]} and {bps[j]}: permutations are not mutually inverse"
            )


def monodromy_group(p: JacobiPencil) -> MonodromyReport:
    """Full monodromy report: one lasso permutation per branch point,
    checked pairwise against the conjugate lasso, the order of the
    generated group by closure enumeration, the orbit partition, and the
    product consistency check."""
    chi = curve_w(p)
    bps = branch_points(p, chi)
    values = [b.value for b in bps]
    w0 = _base_point(values)
    solve = _sheet_solver(chi)
    ratios: list[float] = []
    base = _sorted_start(solve(w0))
    nearest = [
        min((abs(bp - o) for o in values if o != bp), default=abs(w0 - bp))
        for bp in values
    ]
    # branch_points keeps every nearest distance at least CLUSTER_TOL
    # times the root scale, so a third of it is a usable radius
    radii = [d / 3.0 for d in nearest]
    exclusion = [(bp, EXCLUSION_FACTOR * d) for bp, d in zip(values, nearest)]
    perms: list[tuple[int, ...]] = []
    mirrored: list[bool] = []
    for k, bp in enumerate(values):
        obstacles = exclusion[:k] + exclusion[k + 1 :]
        try:
            perm, mirror_route = _lasso(
                solve, w0, base, bp, radii[k], obstacles, ratios
            )
        except TrackingError as exc:
            raise TrackingError(f"lasso {k + 1} around {bps[k]}: {exc}") from exc
        perms.append(perm)
        mirrored.append(mirror_route)
    _check_conjugate_pairs(bps, radii, perms, mirrored)
    group_order = _group_closure(perms, p.n)
    orbits = _orbits(perms, p.n)
    # concatenation order: by departure angle from the base point,
    # descending; collinear branch points share an angle and the farther
    # one, whose lasso detours around the nearer, comes first
    order = sorted(
        range(len(values)),
        key=lambda i: (-cmath.phase(values[i] - w0), -abs(values[i] - w0)),
    )
    identity = tuple(range(p.n))
    product = identity
    for i in order:
        product = compose(product, perms[i])
    return MonodromyReport(
        pencil=p,
        base_point=ComplexApprox.from_complex(w0),
        branch_points=bps,
        permutations=[tuple(i + 1 for i in g) for g in perms],
        group_order=group_order,
        orbits=orbits,
        certified_step=min(ratios, default=math.inf),
        consistent=product == identity,
    )


def orbit_factor_degrees(report: MonodromyReport) -> list[int]:
    """Sorted orbit sizes; matches the lambda-degrees of the absolutely
    irreducible factors of the curve."""
    return sorted(len(o) for o in report.orbits)
