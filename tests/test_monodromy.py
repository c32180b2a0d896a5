"""Numeric sheet tracking around branch points; advisory cross-check only."""

import math
import random

import numpy as np
import pytest

from jacobispec import monodromy
from jacobispec.errors import NotSquarefreeError, TrackingError, UnsupportedPencilError
from jacobispec.hensel import decide
from jacobispec.monodromy import (
    ComplexApprox,
    branch_points,
    compose,
    monodromy_group,
    orbit_factor_degrees,
    track_loop,
)
from jacobispec.pencil import curve_w, pencil


def test_complex_approx():
    c = ComplexApprox.from_complex(1.5 - 2j)
    assert c.value == 1.5 - 2j
    assert str(c) == "1.5 - 2i"
    with pytest.raises(ValueError):
        ComplexApprox(math.nan, 0.0)
    with pytest.raises(ValueError):
        ComplexApprox(0.0, math.inf)


def test_compose_left_to_right():
    # (p then q)[i] = q[p[i]], 0-based
    assert compose((1, 0, 2), (0, 2, 1)) == (2, 0, 1)
    assert compose((0, 2, 1), (1, 0, 2)) == (1, 2, 0)
    ident = (0, 1, 2, 3)
    assert compose(ident, (3, 1, 2, 0)) == (3, 1, 2, 0)
    assert compose((3, 1, 2, 0), ident) == (3, 1, 2, 0)


def test_branch_points_two_sheets():
    # lambda^2 + lambda - w^2 ramifies where 1 + 4 w^2 = 0
    bps = branch_points(pencil([0, 1], [1]))
    assert len(bps) == 2
    assert abs(bps[0].value + 0.5j) < 1e-12
    assert abs(bps[1].value - 0.5j) < 1e-12


def test_transposition_monodromy():
    p = pencil([0, 1], [1])
    r = monodromy_group(p)
    assert r.permutations == [(2, 1), (2, 1)]
    assert r.group_order == 2
    assert r.orbits == [(1, 2)]
    assert r.consistent
    assert r.base_point.value == 3 + 0j


def test_reducible_square_difference():
    # lambda^2 - w^2 = (lambda - w)(lambda + w): single branch point, trivial loop
    p = pencil([0, 0], [1])
    bps = branch_points(p)
    assert len(bps) == 1 and abs(bps[0].value) < 1e-12
    r = monodromy_group(p)
    assert r.permutations == [(1, 2)]
    assert r.orbits == [(1,), (2,)]


def test_track_loop_direct():
    p = pencil([0, 1], [1])
    # loop enclosing nothing is the identity
    assert track_loop(p, 10 + 0j, 0.5) == (1, 2)
    # loop around one simple branch point swaps the sheets
    assert track_loop(p, 0.5j, 0.1) == (2, 1)


def test_track_loop_validation():
    p = pencil([0, 1], [1])
    with pytest.raises(ValueError):
        track_loop(p, 0.5j, -1.0)
    with pytest.raises(ValueError):
        track_loop(p, 0.5j, 0.0)
    with pytest.raises(ValueError):
        # branch point sits on the circle itself
        track_loop(p, 0.5j + 0.1, 0.1)


def test_orbits_reducible_stratum():
    # the constant branch splits one sheet off
    r = monodromy_group(pencil([0, 1, 2], [1, 1]))
    assert r.orbits == [(1, 3), (2,)]
    assert orbit_factor_degrees(r) == [1, 2]


def test_full_symmetric_group():
    r = monodromy_group(pencil([0, 1, 5], [1, 1]))
    assert r.group_order == 6
    assert r.orbits == [(1, 2, 3)]
    assert r.consistent


def test_palindromic_orbit_degrees():
    r = monodromy_group(pencil([0, 1, 1, 0], [1, 2, 1]))
    assert sorted(orbit_factor_degrees(r)) == [2, 2]


def test_unsupported_inputs():
    with pytest.raises(UnsupportedPencilError):
        monodromy_group(pencil([2], []))
    with pytest.raises(NotSquarefreeError, match="repeated lambda-factor"):
        # (lambda + 3)^2 has no squarefree sheet structure to track
        monodromy_group(pencil([3, 3], [0]))


def test_disconnected_collinear_regression():
    # zero coupling puts real branch points near the base path; the router
    # must detour around them instead of failing
    r = monodromy_group(pencil([9, 7, -8, 8], [8, -4, 0]))
    assert sorted(len(o) for o in r.orbits) == [1, 3]
    assert r.consistent


def test_close_branch_point_pair_regression():
    # nearly-coincident branch points force tiny lasso radii; the final
    # approach has to resolve them anyway
    r = monodromy_group(pencil([9, 7, -8, 8], [8, -4, 0]))
    assert r.certified_step is None or r.certified_step > 0


def test_near_coincident_branch_points_raise(monkeypatch):
    # the squarefree discriminant has distinct roots, so two polished
    # roots closer than CLUSTER_TOL times the scale are a numeric failure
    # that must be reported, never merged into one branch point
    p = pencil([0, 1, 5], [1, 1])
    assert len(branch_points(p)) == 6  # n(n-1) distinct roots in w
    polish = monodromy._aberth_polish

    def crowded(coeffs, roots):
        z = polish(coeffs, roots)
        z[1] = z[0] + 1e-3 * monodromy.CLUSTER_TOL
        return z

    monkeypatch.setattr(monodromy, "_aberth_polish", crowded)
    with pytest.raises(TrackingError):
        branch_points(p)


def test_tracking_error_names_the_failing_loop(monkeypatch):
    p = pencil([0, 1, 5], [1, 1])
    first = branch_points(p)[0]
    match = monodromy._match
    monkeypatch.setattr(monodromy, "_match", lambda queries, candidates, sep: None)
    with pytest.raises(TrackingError) as info:
        monodromy_group(p)
    assert str(info.value).startswith(f"lasso 1 around {first}: ")
    assert isinstance(info.value.__cause__, TrackingError)

    # one circle closes each lasso; the next one is the big circle
    circle = monodromy._circle
    circles = []

    def counting(*args):
        circles.append(args)
        return circle(*args)

    lassos = len(branch_points(p))

    def failing_on_big_circle(queries, candidates, sep):
        return None if len(circles) > lassos else match(queries, candidates, sep)

    monkeypatch.setattr(monodromy, "_circle", counting)
    monkeypatch.setattr(monodromy, "_match", failing_on_big_circle)
    with pytest.raises(TrackingError, match="^big circle: "):
        monodromy_group(p)


def _by_position(roots):
    return sorted(roots, key=lambda z: (z.real, z.imag))


def test_sheet_solver_matches_matrix_eigenvalues():
    # chi(lambda, w) = det(lambda + A + wB), so the sheets over w are the
    # negated eigenvalues of A + wB
    rng = random.Random(11)
    for n in range(2, 7):
        a = [rng.randint(-9, 9) for _ in range(n)]
        b = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n - 1)]
        solve = monodromy._sheet_solver(curve_w(pencil(a, b)))
        upper = np.diag(np.array(b, dtype=float), 1)
        for w in (0.3 + 0.7j, -1.2 + 0.1j, 2.5 - 1.5j):
            matrix = np.diag(a) + w * (upper + upper.T)
            got = _by_position(solve(w))
            want = _by_position(-np.linalg.eigvals(matrix))
            assert len(got) == n
            for g, e in zip(got, want):
                assert abs(g - e) <= 1e-9 * max(1.0, abs(e))


def test_matcher_refuses_collisions_and_long_moves():
    queries = np.array([0.0, 1.0, 2.0 + 0j])
    picks, move = monodromy._match(queries, np.array([2.1, 0.05, 1.0 + 0j]), 1.0)
    assert picks == [1, 2, 0]
    assert move == pytest.approx(0.1)
    # two queries nearest to the same candidate
    assert monodromy._match(queries, np.array([0.1, 0.2, 5.0 + 0j]), 10.0) is None
    # a move of sep / 3 is refused, a shorter one accepted
    far = np.array([0.0, 10.0, 20.0 + 0j])
    assert monodromy._match(far, np.array([0.0, 10.0, 21.0 + 0j]), 3.0) is None
    assert monodromy._match(far, np.array([0.0, 10.0, 20.99 + 0j]), 3.0) is not None
    # an exact tie goes to the first candidate, even when that collides
    picks, move = monodromy._match(
        np.array([0.0, 4.0 + 0j]), np.array([1.0, -1.0, 3.0, 5.0 + 0j]), 10.0
    )
    assert picks == [0, 2] and all(type(j) is int for j in picks)
    assert move == 1.0
    assert monodromy._match(np.array([0.0, 2.0 + 0j]), np.array([1.0, 1.0 + 0j]), 10.0) is None
    # separation: smallest pairwise distance, of a list or an array
    assert monodromy._min_separation([0j, 3 + 4j, 1 + 0j]) == 1.0
    assert monodromy._min_separation(np.array([2j, 3 + 6j])) == 5.0
    assert monodromy._min_separation([1 + 1j]) == math.inf


def _loop_match(queries, candidates, sep):
    # reference: one query at a time, refusing at the first collision
    taken = [False] * len(candidates)
    picks, max_move = [], 0.0
    for q in queries:
        dists = np.abs(candidates - q)
        j = int(np.argmin(dists))
        move = float(dists[j])
        if taken[j] or move * monodromy.SEPARATION_FACTOR >= sep:
            return None
        taken[j] = True
        picks.append(j)
        max_move = max(max_move, move)
    return picks, max_move


def test_matcher_agrees_with_the_pairwise_loop():
    rng = np.random.default_rng(7)
    outcomes = set()
    for trial in range(400):
        n = int(rng.integers(1, 8))
        points = rng.normal(size=n) + 1j * rng.normal(size=n)
        if trial % 3 == 0:
            points = np.round(points * 2) / 2  # exact ties and duplicates
        moved = points + rng.normal(scale=10 ** rng.uniform(-3, 0), size=n)
        candidates = rng.permutation(moved)
        sep = min(
            (abs(points[i] - points[j]) for i in range(n) for j in range(i)),
            default=math.inf,
        )
        assert monodromy._min_separation(points) == sep
        assert monodromy._min_separation(points.tolist()) == sep
        got = monodromy._match(points, candidates, sep)
        assert got == _loop_match(points, candidates, sep)
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_orbits_agree_with_exact_decision():
    for a, b in [
        ([0, 1, 5], [1, 1]),
        ([0, 1, 2], [1, 1]),
        ([-1, 0, 4], [1, 2]),
        ([0, 3, 7], [2, 1]),
    ]:
        p = pencil(a, b)
        d = decide(p)
        r = monodromy_group(p)
        assert sorted(orbit_factor_degrees(r)) == sorted(d.factor_degrees)


def test_permutations_one_per_branch_point():
    p = pencil([0, 1, 5], [1, 1])
    r = monodromy_group(p)
    assert len(r.permutations) == len(r.branch_points)
    n = p.n
    for perm in r.permutations:
        assert sorted(perm) == list(range(1, n + 1))
