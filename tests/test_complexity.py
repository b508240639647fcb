import dataclasses
from fractions import Fraction

import pytest

from qhandle import complexity
from qhandle.complexity import (NOT_FOUND, LimitReport, ProjState, Trajectory,
                                approx_complexity, chordal, exact_complexity,
                                limit_points_real, s_infinity, trajectory)
from qhandle.frobenius import FrobeniusRing
from qhandle.linalg import frmat, frvec
from qhandle.rings import fano_ci, fci_report, grassmannian, projective_space, quadric


def test_not_found_sentinel():
    assert repr(NOT_FOUND) == "NOT_FOUND"
    assert not NOT_FOUND
    assert NOT_FOUND is not None


def test_proj_state_normalization():
    assert ProjState([2, 4]) == ProjState([1, 2])
    assert ProjState([0, -3, 6]) == ProjState([0, 1, -2])
    assert ProjState([Fraction(1, 2), 1]) == ProjState([1, 2])
    assert hash(ProjState([2, 4])) == hash(ProjState([1, 2]))
    assert ProjState([1, 0]) != ProjState([0, 1])
    with pytest.raises(ValueError):
        ProjState([0, 0])


def test_proj_state_from_element():
    ring = projective_space(2)
    x = ring.element({"H": 2, ("1", 1): 4})
    # at q = 1 the coordinates are (4, 2, 0), normalized to (1, 1/2, 0)
    assert ProjState.from_element(ring, x) == ProjState([1, Fraction(1, 2), 0])


def test_chordal_metric():
    a, b = ProjState([1, 0]), ProjState([0, 1])
    assert chordal(a, a) == 0
    assert chordal(a, b) == pytest.approx(1.0)
    assert chordal(a, b) == chordal(b, a)
    assert chordal(a, ProjState([-3, 0])) == 0
    assert chordal((1.0, 1.0), (1.0, 0.0)) == pytest.approx(2 ** -0.5)


def test_trajectory_projective_cycle():
    ring = projective_space(2)
    traj = trajectory(ring, ring.unit())
    assert traj.closed and not traj.hit_zero
    assert traj.cycle_start == 0 and traj.cycle_length == 3
    assert traj.states == [
        ProjState.from_element(ring, ring.unit()),
        ProjState.from_element(ring, ring.basis_element(2)),
        ProjState.from_element(ring, ring.basis_element(1)),
    ]


def test_trajectory_shift_property():
    ring = quadric(3)
    z = ring.element({"1": 1, "H": 2})
    shifted = ring.product(ring.handle_element(), z)
    t0 = trajectory(ring, z, kmax=12)
    t1 = trajectory(ring, shifted, kmax=12)
    assert t0.states[1:len(t1.states) + 1] == t1.states[:len(t0.states) - 1]


def test_exact_complexity_projective():
    for n in (2, 4):
        ring = projective_space(n)
        for i in range(1, n + 1):
            assert exact_complexity(ring, ring.unit(), ring.basis_element(i)) \
                == n + 1 - i
    ring = projective_space(3)
    assert exact_complexity(ring, ring.unit(), ring.unit()) == 0


def test_exact_complexity_not_found():
    ring = quadric(3)
    assert exact_complexity(ring, ring.unit(), ring.element({"H": 1})) is NOT_FOUND


def test_approx_complexity_monotone():
    ring = quadric(3)
    target = ring.element({"1": 1, "s3": 1})
    eps_values = [1e-8, 1e-4, 1e-2, 0.5]
    ks = [approx_complexity(ring, ring.unit(), target, eps) for eps in eps_values]
    assert all(k is not NOT_FOUND for k in ks)
    assert all(ks[i] >= ks[i + 1] for i in range(len(ks) - 1))
    # the target is a limit point, never hit exactly
    assert exact_complexity(ring, ring.unit(), target) is NOT_FOUND


def test_approx_complexity_rejects_negative_eps():
    ring = projective_space(2)
    with pytest.raises(ValueError):
        approx_complexity(ring, ring.unit(), ring.unit(), -0.1)


def test_searches_stop_at_the_first_hit_or_revisit(monkeypatch):
    calls = []
    step = complexity.mat_vec

    def counted(mat, vec):
        calls.append(vec)
        return step(mat, vec)

    monkeypatch.setattr(complexity, "mat_vec", counted)
    ring = projective_space(3)
    assert exact_complexity(ring, ring.unit(), ring.unit()) == 0
    assert calls == []
    # the unit orbit is a 4-cycle that never comes within 0.01 of 1 + H
    target = ring.unit() + ring.basis_element(1)
    assert approx_complexity(ring, ring.unit(), target, 0.01) is NOT_FOUND
    assert len(calls) == 4


def test_finite_state_set_projective():
    for n in (1, 2, 3):
        ring = projective_space(n)
        traj = trajectory(ring, ring.unit())
        assert traj.closed and len(traj.states) == n + 1


def test_s_infinity_builds_the_handle_matrix_once(monkeypatch):
    ring = quadric(5)
    calls = []
    build = FrobeniusRing.mult_matrix

    def counted(self, x):
        calls.append(x)
        return build(self, x)

    monkeypatch.setattr(FrobeniusRing, "mult_matrix", counted)
    rep = s_infinity(ring, ring.unit())
    assert rep.exact and rep.method == "rational-split"
    assert calls == [ring.handle_element()]


def test_handle_matrix_is_built_once_per_ring(monkeypatch):
    calls = []
    build = FrobeniusRing.mult_matrix

    def counted(self, x):
        calls.append(x)
        return build(self, x)

    monkeypatch.setattr(FrobeniusRing, "mult_matrix", counted)
    # criterion 1's work on P^6; projective_space is not cached, so the ring is fresh
    ring = projective_space(6)
    trajectory(ring, ring.unit())
    for i in range(7):
        exact_complexity(ring, ring.unit(), ring.basis_element(i))
    for i in range(7):
        s_infinity(ring, ring.basis_element(i))
    assert calls == [ring.handle_element()]
    calls.clear()
    ring = fano_ci((4,), 3)  # tau = 1: the report also reads the A-matrix
    fci_report(ring)
    assert calls == [ring.handle_element()]


def test_zero_reference_state_rejected():
    ring = projective_space(2)
    with pytest.raises(ValueError):
        trajectory(ring, ring.zero())


def test_limit_points_real_frozen():
    rep = limit_points_real(frmat([[2, 0], [0, 1]]), frvec([1, 1]))
    assert not rep.finite_orbit and rep.dominant == 2 and rep.depth == 1
    assert rep.points == [ProjState([1, 0])]

    rep = limit_points_real(frmat([[2, 0], [0, -2]]), frvec([1, 1]))
    assert {p for p in rep.points} == {ProjState([1, 1]), ProjState([1, -1])}

    rep = limit_points_real(frmat([[3, 1], [0, 3]]), frvec([0, 1]))
    assert rep.points == [ProjState([1, 0])] and rep.depth == 2

    rep = limit_points_real(frmat([[0, 1], [0, 0]]), frvec([0, 1]))
    assert rep.finite_orbit and rep.points == []


def test_limit_points_real_errors():
    with pytest.raises(ValueError):
        limit_points_real(frmat([[1, 0], [0, 1]]), frvec([0, 0]))
    with pytest.raises(ValueError):
        # rotation matrix has no rational eigenvalues
        limit_points_real(frmat([[0, -1], [1, 0]]), frvec([1, 0]))


def test_s_infinity_projective_empty():
    ring = projective_space(3)
    for i in range(ring.dim):
        rep = s_infinity(ring, ring.basis_element(i))
        assert rep.exact and rep.points == [] and rep.method == "finite-orbit"


def test_s_infinity_quadric_unit():
    for r in (3, 4, 5):
        ring = quadric(r)
        rep = s_infinity(ring, ring.unit())
        assert rep.exact and rep.method == "rational-split"
        assert rep.points == [ProjState.from_element(
            ring, ring.element({"1": 1, f"s{r}": 1}))]


def test_s_infinity_quadric_eigenstate_is_fixed():
    ring = quadric(3)
    rep = s_infinity(ring, ring.element({"1": 1, "s3": -1}))
    assert rep.exact and rep.points == [] and rep.method == "finite-orbit"


def test_s_infinity_grassmannian_bounded_by_theta():
    ring = grassmannian(2, 4)
    theta, _ = ring.theta_order()
    rep = s_infinity(ring, ring.unit())
    assert len(rep.points) <= theta


def test_s_infinity_fano_ci_tau_one():
    for m, r in [((4,), 3), ((5,), 4)]:
        ring = fano_ci(m, r)
        rep = s_infinity(ring, ring.unit())
        assert rep.exact and rep.method == "rational-split"
        assert 1 <= len(rep.points) <= 2


def test_s_infinity_fano_ci_tau_two_empty():
    ring = fano_ci((3,), 3)
    rep = s_infinity(ring, ring.unit())
    assert rep.exact and rep.points == []


def test_s_infinity_theta_float_path():
    ring = grassmannian(2, 5)
    rep = s_infinity(ring, ring.unit())
    assert rep.method == "theta-float" and rep.exact is False


def test_s_infinity_power_iteration_fallback():
    # no point class and the handle 1 + H, whose q = 1 spectrum 2, 1 + w, 1 + w^2
    # (w a primitive cube root of 1) does not split over the rationals
    base = projective_space(2)
    ring = dataclasses.replace(base, point_index=None, _cache={},
                               delta_override=base.unit() + base.basis_element(1))
    rep = s_infinity(ring, ring.unit(), kmax=10)
    assert rep.method == "float" and rep.exact is False
    assert len(rep.points) == 1
    assert chordal(rep.points[0], (1.0, 1.0, 1.0)) < 1e-6
