from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (FractionProjState, faddeev_leverrier, fraction_inverse,
                     fraction_limit_points, fraction_orbit, jacobi_theta_points, replaced)

from qhandle import acceptance, cli, complexity
from qhandle.complexity import (NOT_FOUND, LimitReport, ProjState, Trajectory,
                                approx_complexity, chordal, exact_complexity,
                                limit_points_real, s_infinity, trajectory)
from qhandle.frobenius import FrobeniusRing
from qhandle.linalg import char_poly, cyclic_char_poly, int_scale, mat_mul, rational_roots
from qhandle.rings import fano_ci, grassmannian, projective_space, quadric


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


def test_proj_state_matches_the_fraction_form():
    for coords in ([Fraction(1, 2), 1], [0, -3, 6], [Fraction(-2, 3), Fraction(5, 7), 0],
                   [0, 0, 7, -14, 21], [3 * 2 ** 70, -(2 ** 71)],
                   [2 ** 61 - 1, 1]):  # a pivot divisible by the hash modulus
        new, old = ProjState(coords), FractionProjState(coords)
        assert new.vec == old.vec and all(type(x) is Fraction for x in new.vec)
        assert new.floats() == old.floats()
        scaled = ProjState([Fraction(-7, 3) * x for x in coords])
        assert scaled == new and hash(scaled) == hash(new)


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


def test_trajectory_fixed_point_is_a_one_state_cycle():
    # Delta = 4 s3 + 2q on Q^3, and Delta (1 - s3) = -2 (1 - s3) at q = 1:
    # the first step revisits state 0, so the cycle has length 1
    ring = quadric(3)
    z = ring.element({"1": 1, "s3": -1})
    traj = trajectory(ring, z)
    assert traj.states == [ProjState.from_element(ring, z)]
    assert traj.cycle_start == 0 and traj.cycle_length == 1
    assert traj.closed and not traj.hit_zero


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
    step = complexity._step

    def counted(cols, vec):
        calls.append(vec)
        return step(cols, vec)

    monkeypatch.setattr(complexity, "_step", counted)
    ring = projective_space(3)
    assert exact_complexity(ring, ring.unit(), ring.unit()) == 0
    assert calls == []
    # the unit orbit is a 4-cycle that never comes within 0.01 of 1 + H
    target = ring.element({"1": 1, "H": 1})
    assert approx_complexity(ring, ring.unit(), target, 0.01) is NOT_FOUND
    assert len(calls) == 4


# the states the perfbench dynamics workload draws its gr:3,8 orbits from
GR38_STATES = ["unit", "point", "s[1,1,1]", "s[3,1]", "s[5]", "s[4,2]"]


@pytest.mark.parametrize("spec, source", [("gr:3,8", s) for s in GR38_STATES]
                         + [("gr:2,8", "unit"), ("gr:2,8", "point")]
                         + [(f"pn:{n}", s) for n in range(3, 7) for s in ("unit", "point")]
                         + [(f"quadric:{r}", s) for r in range(3, 7) for s in ("unit", "point")]
                         + [("fci:5;r=4", "unit")])
def test_orbit_matches_the_fraction_walk(spec, source):
    ring = cli.build_ring(spec)
    s0 = cli.parse_state(ring, source)
    traj = trajectory(ring, s0)
    ints, den = ring.handle_matrix()
    states, hit_zero, start, length = fraction_orbit(
        [[Fraction(x, den) for x in row] for row in ints], ring.element_vector(s0), 10 * ring.dim)
    assert [s.vec for s in traj.states] == [s.vec for s in states]
    assert (traj.hit_zero, traj.cycle_start, traj.cycle_length) == (hit_zero, start, length)


@pytest.mark.parametrize("mat, vec", [
    ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], [0, 0, 1]),  # nilpotent: hits zero
    ([[0, Fraction(-1, 2)], [2, 0]], [1, 1]),  # a rational 4-cycle
    ([[Fraction(1, 2), 1], [0, Fraction(-1, 3)]], [Fraction(1, 3), 1]),  # open
])
def test_walk_on_rational_matrices_matches_the_fraction_walk(mat, vec):
    traj = complexity._walk(int_scale(mat), vec, 12)
    states, hit_zero, start, length = fraction_orbit(mat, vec, 12)
    assert [s.vec for s in traj.states] == [s.vec for s in states]
    assert (traj.hit_zero, traj.cycle_start, traj.cycle_length) == (hit_zero, start, length)


@pytest.mark.parametrize("kmax", [0, 1, 2, 3])
def test_walk_budget_sees_a_zero_step_like_the_fraction_walk(kmax):
    # e3 -> e2 -> e1 -> 0: with kmax = 2 the zero is the step after the last state
    mat, vec = [[0, 1, 0], [0, 0, 1], [0, 0, 0]], [0, 0, 1]
    traj = complexity._walk(int_scale(mat), vec, kmax)
    states, hit_zero, start, length = fraction_orbit(mat, vec, kmax)
    assert [s.vec for s in traj.states] == [s.vec for s in states]
    assert (traj.hit_zero, traj.cycle_start, traj.cycle_length) == (hit_zero, start, length)
    assert traj.hit_zero == (kmax >= 2)


EIGENVALUES = [Fraction(v) for v in (0, 1, -1, 2, -2, 3, -3)] + [Fraction(1, 2), Fraction(-1, 2)]


@st.composite
def split_iterations(draw):
    """(P J P^-1, z): J a rational Jordan form of size <= 8, z nonzero."""
    blocks = draw(st.lists(st.tuples(st.sampled_from(EIGENVALUES), st.integers(1, 3)),
                           min_size=1, max_size=4))
    assume(sum(size for _, size in blocks) <= 8)
    diag = [(value, k < size - 1) for value, size in blocks for k in range(size)]
    n = len(diag)
    jmat = [[diag[i][0] if i == j else Fraction(int(j == i + 1 and diag[i][1]))
             for j in range(n)] for i in range(n)]
    p = [[Fraction(draw(st.integers(-3, 3))) for _ in range(n)] for _ in range(n)]
    p_inv = fraction_inverse(p)
    assume(p_inv is not None)
    z = [Fraction(draw(st.integers(-4, 4))) for _ in range(n)]
    assume(any(z))
    return mat_mul(mat_mul(p, jmat), p_inv), z


# criterion 7's case: dominant eigenvalues +-1/2, one of them in a 2-block
@example(([[Fraction(1, 2), 1, 0], [0, Fraction(1, 2), 0], [0, 0, Fraction(-1, 2)]],
          [Fraction(1), Fraction(2), Fraction(3)]))
# a scale with a prime factor past trial division (see test_linalg)
@example(([[Fraction(2), Fraction(1, 1000003)], [Fraction(0), Fraction(3)]],
          [Fraction(1), Fraction(1)]))
@settings(max_examples=150, deadline=None)
@given(split_iterations())
def test_eigenstructure_and_limits_match_the_fraction_oracle(case):
    m, z = case
    # the integer matrix d m, the one limit_points_real reads, has x^(n-k)
    # coefficient d^k times that of m
    ints, den = int_scale(m)
    assert [Fraction(c, den ** k) for k, c in enumerate(char_poly(ints))] == \
        faddeev_leverrier(m)
    rep = limit_points_real((ints, den), z)
    points, finite, dominant, depth = fraction_limit_points(m, z)
    assert [p.vec for p in rep.points] == [p.vec for p in points]
    assert (rep.finite_orbit, rep.dominant, rep.depth) == (finite, dominant, depth)


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
    # criterion 6 builds each of its rings once (fano_ci is not cached); on
    # tau = 1 it also reads the descending-basis handle matrix
    acceptance.criterion_6()
    assert calls == [fano_ci(m, r).handle_element() for m, r in acceptance.FCI_INSTANCES]


def test_zero_reference_state_rejected():
    ring = projective_space(2)
    with pytest.raises(ValueError):
        trajectory(ring, ring.element({}))


def test_limit_points_real_frozen():
    rep = limit_points_real(([[2, 0], [0, 1]], 1), [1, 1])
    assert not rep.finite_orbit and rep.dominant == 2 and rep.depth == 1
    assert rep.points == [ProjState([1, 0])]

    rep = limit_points_real(([[2, 0], [0, -2]], 1), [1, 1])
    assert rep.points == [ProjState([1, 1]), ProjState([1, -1])]

    rep = limit_points_real(([[3, 1], [0, 3]], 1), [0, 1])
    assert rep.points == [ProjState([1, 0])] and rep.depth == 2

    rep = limit_points_real(([[0, 1], [0, 0]], 1), [0, 1])
    assert rep.finite_orbit and rep.points == []

    # M = [[3, 1], [0, -1]] / 2: the eigenvalue 3/2 wins
    rep = limit_points_real(([[3, 1], [0, -1]], 2), [0, 1])
    assert rep.dominant == Fraction(3, 2) and rep.points == [ProjState([1, 0])]


def test_limit_points_real_errors():
    with pytest.raises(ValueError):
        limit_points_real(([[1, 0], [0, 1]], 1), [0, 0])
    with pytest.raises(ValueError):
        # rotation matrix has no rational eigenvalues
        limit_points_real(([[0, -1], [1, 0]], 1), [1, 0])


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
    theta, _, _ = ring.theta_order()
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


def test_s_infinity_without_a_path_is_an_error():
    # a theta Grassmannian with its point class taken away: the handle does not
    # split, which the open orbit proves on Gr(2,5) (cycle length 5) and the
    # cycle polynomial shows on Gr(2,8) (cycle length 2)
    for k, n in ((2, 5), (2, 8)):
        ring = replaced(grassmannian(k, n), point_index=None, _cache={})
        with pytest.raises(ValueError, match="no S_infinity path: the orbit does not "
                                             f"close within {10 * ring.dim} steps"):
            s_infinity(ring, ring.unit())


def test_s_infinity_with_a_non_symmetric_theta_power_is_an_error():
    # Gr(3,6) keeps its point class (theta 2), but the homogeneous handle
    # q s[3] + [pt] does not split and its square is not symmetric at q = 1
    base = grassmannian(3, 6)
    ring = replaced(base, _cache={},
                    delta_override=base.element({("s[3]", 1): 1, "s[3,3,3]": 1}))
    assert ring.theta_order()[0] == 2
    with pytest.raises(ValueError, match="no S_infinity path"):
        s_infinity(ring, ring.unit())


@pytest.mark.parametrize("k, n", [(2, 5), (2, 6), (2, 7), (3, 7), (3, 8), (4, 8)])
def test_theta_points_match_the_jacobi_oracle(k, n):
    # the points before the visited filter, whose 1e-7 threshold the two
    # paths may straddle; a point is a class, so its sign is free
    ring = grassmannian(k, n)
    theta, _, _ = ring.theta_order()
    for source in ("unit", "point", "s[1]"):
        state = cli.parse_state(ring, source)
        states = trajectory(ring, state).states
        got = complexity._float_cluster(complexity._theta_block(states, theta), 1e-7)
        want = jacobi_theta_points(ring, ring.element_vector(state))
        assert len(got) == len(want), source
        for p, w in zip(got, want):
            assert min(max(abs(a - b) for a, b in zip(p, w)),
                       max(abs(a + b) for a, b in zip(p, w))) <= 1e-12, source
    with pytest.raises(ValueError, match="no theta-block of the walk is stable"):
        complexity._theta_block(states[:theta + 1], theta)


@st.composite
def split_integer_matrices(draw):
    """U T U^-1: T upper triangular over Z, its diagonal drawn from a few
    values so that eigenvalues repeat, and U = L R unimodular, L and R
    unitriangular over Z."""
    n = draw(st.integers(1, 8))
    values = draw(st.lists(st.sampled_from([-3, -1, 0, 1, 2, 104, -202]),
                           min_size=1, max_size=3))
    small = st.integers(-2, 2)

    def square(entry):
        return [[entry(i, j) for j in range(n)] for i in range(n)]

    tri = square(lambda i, j: draw(st.sampled_from(values)) if i == j
                 else draw(small) if j > i else 0)
    lower = square(lambda i, j: 1 if i == j else draw(small) if j < i else 0)
    upper = square(lambda i, j: 1 if i == j else draw(small) if j > i else 0)
    u = mat_mul(lower, upper)
    u_inv = [[int(x) for x in row] for row in fraction_inverse(u)]
    return mat_mul(mat_mul(u, tri), u_inv)


def _cycle_polynomial_holds(a, cycles):
    # the cycle polynomial is Berkowitz's, and for cycle length c >= 3 a split
    # matrix is nilpotent: with U = zeta^t on the t-th block, U a U^-1 = zeta a,
    # so a nonzero rational eigenvalue would bring the non-real zeta times it
    f = char_poly(a)
    assert cyclic_char_poly(a, cycles) == f
    if len(cycles[0]) >= 3:
        split = sum(m for _, m in rational_roots(f)) == len(a)
        assert split == (f == [1] + [0] * len(a))


@st.composite
def block_cyclic_matrices(draw):
    """(a, cycles): an integer matrix that maps the span of each block of a
    cycle into that of the next and is zero elsewhere, with up to three
    cycles of one common length c <= 4 and blocks of sizes 0..3, scattered
    over the indices.  A drawn block map may be zero, which makes its cycle
    nilpotent."""
    c = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.lists(st.integers(0, 3), min_size=c, max_size=c),
                          min_size=1, max_size=3))
    n = sum(map(sum, sizes))
    assume(0 < n <= 10)
    order = draw(st.permutations(range(n)))
    cycles, pos = [], 0
    for cycle in sizes:
        cycles.append([order[pos + sum(cycle[:t]):pos + sum(cycle[:t + 1])] for t in range(c)])
        pos += sum(cycle)
    a = [[0] * n for _ in range(n)]
    for cycle in cycles:
        for t, src in enumerate(cycle):
            zero = draw(st.booleans()) and draw(st.booleans())
            for i in cycle[(t + 1) % c]:
                for j in src:
                    a[i][j] = 0 if zero else draw(st.integers(-3, 3))
    return a, cycles


# blocks of sizes 2, 2, 1 (X(3;r=7) has such a cycle): P lives on the block of
# size 1, and the factor x^(2 + 2 + 1 - 3) carries the rest
@example(([[0, 0, 0, 0, 1], [0, 0, 0, 0, 2], [1, 1, 0, 0, 0], [0, 1, 0, 0, 0],
           [0, 0, 1, 1, 0]], [[[0, 1], [2, 3], [4]]]))
@example(([[0, 1], [1, 0]], [[[0], [1]]]))  # c = 2, spectrum +-1: split
@settings(max_examples=200, deadline=None)
@given(block_cyclic_matrices())
def test_cyclic_char_poly_matches_berkowitz(case):
    _cycle_polynomial_holds(*case)


BUILT_IN_RINGS = ([f"pn:{n}" for n in range(1, 7)]
                  + [f"quadric:{r}" for r in range(2, 7)]
                  + [f"gr:{k},{n}" for n in range(4, 9) for k in range(2, n - 1)]
                  + ["fci:3;r=3", "fci:2,2;r=3", "fci:4;r=3", "fci:2,3;r=3", "fci:5;r=4",
                     "fci:3;r=7", "fci:4;r=4", "fci:2,2;r=4", "fci:3;r=5"])


@pytest.mark.parametrize("spec", BUILT_IN_RINGS)
def test_the_non_split_certificate_agrees_with_the_rational_roots(spec):
    # s_infinity's split decision: for c >= 3 an open orbit is never taken for a
    # split matrix, and for c <= 2 the cycle polynomial decides; the handle
    # matrix is ints / den, which splits over Q exactly when ints does
    ring = cli.build_ring(spec)
    _cycle_polynomial_holds(ring.handle_matrix()[0], ring.handle_cycles())


def _split_horizon_holds(mat, z):
    # the orbit closes within n + 2 steps or never, and an orbit that does not
    # close visits none of its limit points
    n = len(z)
    long_walk = complexity._walk(mat, z, 10 * n)
    assert complexity._walk(mat, z, n + 2).closed == long_walk.closed
    if not long_walk.closed:
        visited = set(long_walk.states)
        assert not any(p in visited for p in limit_points_real(mat, z).points)


@example(([[3, 1], [0, 3]], [0, 1]))
@example(([[0, 1, 0], [0, 0, 1], [0, 0, 0]], [0, 0, 1]))
@example(([[-1, 1], [0, 1]], [1, 1]))
@settings(max_examples=200, deadline=None)
@given(split_integer_matrices().flatmap(
    lambda mat: st.tuples(st.just(mat), st.lists(st.integers(-3, 3), min_size=len(mat),
                                                 max_size=len(mat)))))
def test_split_orbits_close_within_n_plus_2_steps_or_never(case):
    mat, z = case
    assume(any(z))
    _split_horizon_holds((mat, 1), z)


@pytest.mark.parametrize("spec", BUILT_IN_RINGS)
def test_split_ring_orbits_close_within_n_plus_2_steps_or_never(spec):
    ring = cli.build_ring(spec)
    mat = ring.handle_matrix()
    if sum(m for _, m in rational_roots(char_poly(mat[0]))) < ring.dim:
        return  # not split
    for i in range(ring.dim):
        _split_horizon_holds(mat, ring.element_vector(ring.basis_element(i)))


#: the cycle length c = tau / gcd(tau, top) of the theta Grassmannians
CYCLE_LENGTHS = {(2, 5): 5, (2, 6): 3, (2, 7): 7, (2, 8): 2, (3, 7): 7,
                 (3, 8): 8, (4, 8): 1, (3, 9): 1, (4, 9): 9, (3, 10): 10}


@pytest.mark.parametrize("k, n", CYCLE_LENGTHS)
def test_theta_rings_are_certified_not_split(k, n):
    # c >= 3: a split handle matrix would be nilpotent and close every orbit
    # within dim steps; c <= 2: the cycle polynomial has too few rational roots
    ring = grassmannian(k, n)
    cycles = ring.handle_cycles()
    assert len(cycles[0]) == CYCLE_LENGTHS[k, n]
    mat = ring.handle_matrix()
    if CYCLE_LENGTHS[k, n] >= 3:
        unit = ring.element_vector(ring.unit())
        assert not complexity._walk(mat, unit, ring.dim).closed
    else:
        roots = rational_roots(cyclic_char_poly(mat[0], cycles))
        assert sum(m for _, m in roots) < ring.dim


def test_s_infinity_skips_the_characteristic_polynomial_when_certified(monkeypatch):
    def refuse(*args):
        raise AssertionError("a characteristic polynomial ran at cycle length >= 3")

    for name in ("_char_roots", "char_poly", "cyclic_char_poly"):
        monkeypatch.setattr(complexity, name, refuse)
    for k, n in CYCLE_LENGTHS:
        if n <= 8 and CYCLE_LENGTHS[k, n] >= 3:
            ring = grassmannian(k, n)
            assert s_infinity(ring, ring.unit()).method == "theta-float"


#: s_infinity's method from the unit on each built-in ring
SINFTY_METHODS = {
    **{f"pn:{n}": "finite-orbit" for n in range(1, 7)},
    "quadric:2": "finite-orbit",
    **{f"quadric:{r}": "rational-split" for r in range(3, 7)},
    **{f"gr:{k},{n}": "theta-float" for n in range(4, 9) for k in range(2, n - 1)},
    "gr:2,4": "rational-split", "gr:3,6": "rational-split",
    **{spec: "finite-orbit" for spec in ("fci:3;r=3", "fci:2,2;r=3", "fci:3;r=7",
                                         "fci:4;r=4", "fci:2,2;r=4", "fci:3;r=5")},
    **{spec: "rational-split" for spec in ("fci:4;r=3", "fci:2,3;r=3", "fci:5;r=4")},
}


@pytest.mark.parametrize("spec", BUILT_IN_RINGS)
def test_s_infinity_method_from_the_unit(spec):
    ring = cli.build_ring(spec)
    assert s_infinity(ring, ring.unit()).method == SINFTY_METHODS[spec]
