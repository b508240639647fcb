import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (FractionEchelon, faddeev_leverrier, fraction_eigenstructure,
                     fraction_inverse, fraction_limit_points, fraction_rational_roots,
                     fraction_solve, identity, poly_deriv, poly_divmod, poly_gcd,
                     zeros)

from qhandle._oracles import det_int, sym_float_eigs
from qhandle.complexity import ProjState, limit_points_real
from qhandle.linalg import (Echelon, char_poly, int_scale, is_positive_definite,
                            krylov_rank, mat_inverse, mat_mul, mat_vec,
                            rational_roots, squarefree_part)


def test_char_poly_known():
    assert char_poly([[2, 1], [1, 2]]) == [1, -4, 3]
    assert char_poly([[0, 1], [0, 0]]) == [1, 0, 0]
    assert char_poly([[5]]) == [1, -5]


@st.composite
def rational_matrices(draw):
    """Square matrices of size 1..8, either integer or with denominators 1..6."""
    n = draw(st.integers(1, 8))
    dens = draw(st.sampled_from([[1], [1, 2, 3, 6]]))
    return [[Fraction(draw(st.integers(-5, 5)), draw(st.sampled_from(dens)))
             for _ in range(n)] for _ in range(n)]


# scaled by 1000003, a prime past trial division, whose square then divides
# the constant term of the integer polynomial whole: its roots are 2 and 3
# times 1000003, so only the unscaled polynomial gives them
@example([[Fraction(2), Fraction(1, 1000003)], [Fraction(0), Fraction(3)]])
@settings(max_examples=100, deadline=None)
@given(rational_matrices())
def test_char_poly_and_eigenstructure_match_the_fraction_oracle(m):
    assert char_poly(m) == faddeev_leverrier(m)
    n = len(m)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    if fraction_eigenstructure(m)[1]:
        for z in units:
            rep = limit_points_real(int_scale(m), z)
            points, finite, dominant, depth = fraction_limit_points(m, z)
            assert [p.vec for p in rep.points] == [p.vec for p in points]
            assert (rep.finite_orbit, rep.dominant, rep.depth) == (finite, dominant, depth)
    else:
        for z in units:
            with pytest.raises(ValueError):
                limit_points_real(int_scale(m), z)


def test_cayley_hamilton_random():
    rng = random.Random(7)
    for dim in range(1, 9):
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(dim)]
             for _ in range(dim)]
        acc = zeros(dim, dim)
        for coef in char_poly(m):
            acc = mat_mul(acc, m)
            for i in range(dim):
                acc[i][i] += coef
        assert all(not x for row in acc for x in row)


def test_squarefree_part():
    # (x - 1)^2 (x + 2) -> (x - 1)(x + 2)
    assert squarefree_part([1, 0, -3, 2]) == [1, 1, -2]
    # x^2 - 2 is square-free already
    assert squarefree_part([1, 0, -2]) == [1, 0, -2]
    # -2 (x - 1)^3: the content and the sign go too
    assert squarefree_part([-2, 6, -6, 2]) == [1, -1]


def test_rational_roots_frozen():
    cases = [
        ([1, 0, 0, -27], [(Fraction(3), 1)]),
        ([1, -4, 3], [(Fraction(1), 1), (Fraction(3), 1)]),
        ([2, -3, 0, 0], [(Fraction(0), 2), (Fraction(3, 2), 1)]),
        ([1, -6, 12, -8], [(Fraction(2), 3)]),
        ([4, 0, -1], [(Fraction(-1, 2), 1), (Fraction(1, 2), 1)]),
        ([1, 0, 1], []),
        # -5 comes back as a symmetric residue only of a lift past 10
        ([1, 5], [(Fraction(-5), 1)]),
        # the root bound of y^2 - 2 y - 15 is B = 2 * 4; a lift past B, not
        # 2 B, stops at mod 9, where the root 5 reads as -4
        ([1, -2, -15], [(Fraction(-3), 1), (Fraction(5), 1)]),
    ]
    for coeffs, expected in cases:
        got = rational_roots(coeffs)
        assert sorted(got) == sorted(expected), coeffs


def test_rational_roots_near_the_root_bound():
    for m in (1, 31, 64, 200):
        values = [-2 ** m, 1 - 2 ** m, 2 ** m - 1, 2 ** m]
        for r in values:
            assert rational_roots([1, -r]) == [(r, 1)], r
        for r, s in combinations(values, 2):
            assert rational_roots([1, -(r + s), r * s]) == [(r, 1), (s, 1)], (r, s)


def test_rational_roots_past_trial_division():
    # the constant term 6 * 1000003^2 has the repeated prime factor 1000003,
    # past any small trial division
    ints, _ = int_scale([[2, Fraction(1, 1000003)], [0, 3]])
    assert rational_roots(char_poly(ints)) == [(2000006, 1), (3000009, 1)]


def _times(poly, factor):
    out = [Fraction(0)] * (len(poly) + len(factor) - 1)
    for i, a in enumerate(poly):
        for j, b in enumerate(factor):
            out[i + j] += a * b
    return out


@st.composite
def factored_polynomials(draw):
    """(polynomial, {rational root: multiplicity}): a rational scalar times
    powers of x, of linear factors q x - p (some repeated) and of quadratics
    with no rational root, multiplied out."""
    poly = [Fraction(draw(st.integers(1, 30)) * draw(st.sampled_from([1, -1])),
                     draw(st.integers(1, 12)))]
    roots = {}
    zeros = draw(st.integers(0, 3))
    if zeros:
        roots[Fraction(0)] = zeros
        poly += [Fraction(0)] * zeros
    for _ in range(draw(st.integers(0, 4))):
        p, q = draw(st.integers(-40, 40).filter(bool)), draw(st.integers(1, 9))
        mult = draw(st.integers(1, 3))
        roots[Fraction(p, q)] = roots.get(Fraction(p, q), 0) + mult
        for _ in range(mult):
            poly = _times(poly, [q, -p])
    for _ in range(draw(st.integers(0, 2))):
        # x^2 + b x + c with b^2 - 4c < 0, or x^2 - c with c not a square
        b, c = draw(st.sampled_from([(1, 1), (0, 1), (-3, 5), (2, 7), (0, -2), (0, -3),
                                     (4, 1), (1, -1)]))
        for _ in range(draw(st.integers(1, 2))):
            poly = _times(poly, [1, b, c])
    return poly, roots


@settings(max_examples=300, deadline=None)
@given(factored_polynomials())
def test_rational_roots_match_the_fraction_form(case):
    poly, roots = case
    # a positive multiple of a polynomial has its roots
    (ints,), _ = int_scale([poly])
    got = rational_roots(ints)
    assert got == fraction_rational_roots(poly)
    assert got == sorted(roots.items())


@settings(max_examples=100, deadline=None)
@given(factored_polynomials())
def test_squarefree_part_matches_the_fraction_euclid(case):
    (ints,), _ = int_scale([case[0]])
    sf, _ = poly_divmod(ints, poly_gcd(ints, poly_deriv(ints)))
    (want,), _ = int_scale([sf])
    content = math.gcd(*want) * (1 if want[0] > 0 else -1)
    assert squarefree_part(ints) == [c // content for c in want]


#: Two primes near 10^15 whose product a 2^20-step Pollard rho cannot split
P1, P2 = 10 ** 15 + 37, 1000001000000017


def test_rational_roots_of_a_product_of_two_large_primes():
    assert rational_roots([1, -(P1 + P2), P1 * P2]) == [(P1, 1), (P2, 1)]
    assert rational_roots([P1 * P2, -(P1 + P2), 1]) == [
        (Fraction(1, P2), 1), (Fraction(1, P1), 1)]


def test_limit_points_real_with_two_large_prime_eigenvalues():
    rep = limit_points_real(([[P1, 1], [0, P2]], 1), [1, 1])
    assert (rep.finite_orbit, rep.dominant, rep.depth) == (False, P2, 1)
    assert rep.points == [ProjState([1, P2 - P1])]


def test_rational_roots_random_products():
    rng = random.Random(11)
    for _ in range(30):
        roots = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 4))]
        poly = [Fraction(1)]
        for r in roots:
            poly = poly + [Fraction(0)]
            for i in range(len(poly) - 1, 0, -1):
                poly[i] -= r * poly[i - 1]
        (ints,), _ = int_scale([poly])
        got = rational_roots(ints)
        assert sum(m for _, m in got) == len(roots)
        for r in set(roots):
            assert (r, roots.count(r)) in got


def test_nullspace_and_rank():
    a = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    ech = Echelon.of(int_scale(a)[0])
    assert ech.rank == 2
    assert [c for c, _ in ech.rows] == [0, 1]  # column 2 is the one free column
    v, d = ech.kernel_vector(2, 3)
    assert v[2] == d != 0 and all(x == 0 for x in mat_vec(a, v))


def test_is_positive_definite():
    # the pair (D, d) of int_scale: the k x k minor of D / d is D's over d^k
    ok, minors = is_positive_definite(int_scale([[2, 1], [1, 2]]))
    assert ok and minors == [Fraction(2), Fraction(3)]
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert is_positive_definite(int_scale([[half, third], [third, 1]])) == \
        (True, [half, Fraction(7, 18)])
    ok, minors = is_positive_definite(int_scale([[1, 2], [2, 1]]))
    assert not ok
    with pytest.raises(ValueError):
        is_positive_definite(int_scale([[1, 2], [3, 4]]))


def test_is_positive_definite_zero_pivot_fallback():
    # a zero leading minor moves a pivot off the diagonal; the minors then
    # come from the determinants of the leading blocks
    assert is_positive_definite(int_scale([[0, 1], [1, 0]])) == (False, [0, -1])
    assert is_positive_definite(int_scale([[1, 1, 0], [1, 1, 1], [0, 1, 1]])) == \
        (False, [1, 0, -1])
    half = Fraction(1, 2)
    assert is_positive_definite(int_scale([[0, half], [half, 0]])) == (False, [0, -half ** 2])


def test_krylov_rank():
    m = [[2, 0], [0, 3]]
    assert krylov_rank(m, [1, 1]) == 2
    assert krylov_rank(m, [1, 0]) == 1
    with pytest.raises(ValueError):
        krylov_rank(m, [0, 0])
    # no cap: the nilpotent shift N e_k = e_(k-1) walks e_n down to e_1 and
    # then to 0, and the identity repeats its start vector
    for n in (1, 2, 5):
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        shift = [[int(j == i + 1) for j in range(n)] for i in range(n)]
        assert krylov_rank(shift, eye[-1]) == n
        assert krylov_rank(shift, eye[0]) == 1
        assert krylov_rank(eye, eye[-1]) == 1


def test_echelon_rank():
    ech = Echelon()
    assert ech.add([1, 2, 3])
    assert ech.add([0, 1, 1])
    assert not ech.add([1, 3, 4])
    assert ech.rank == 2


def test_echelon_rejects_entries_that_are_not_ints():
    # floor division would take a Fraction row without an error and give a
    # wrong rank
    with pytest.raises(TypeError):
        Echelon().add([1, Fraction(2)])


small_ints = st.integers(min_value=-4, max_value=4)
small_rationals = st.builds(Fraction, small_ints, st.sampled_from([1, 2, 3]))
fives = st.lists(small_rationals, min_size=5, max_size=5)


@st.composite
def kernel_matrices(draw, square=False):
    """Matrices of size up to 5 x 5, either integer or with denominators 1..6."""
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    dens = draw(st.sampled_from([[1], [1, 2, 3, 6]]))
    return [[Fraction(draw(small_ints), draw(st.sampled_from(dens)))
             for _ in range(cols)] for _ in range(rows)]


# pivot 2, then a row that is zero in its column: its rescale is deferred;
# then a negative pivot, deferred the same way
@example([[2, 0, 0], [0, 3, 0], [0, 1, 1]])
@example([[-2, 0, 1], [0, 3, 1], [1, 1, 1]])
@example([[Fraction(1, 2), 1], [0, Fraction(-1, 3)]])
@settings(max_examples=200, deadline=None)
@given(kernel_matrices(square=True))
def test_kernel_det_and_inverse(a):
    ints, _ = int_scale(a)
    det = det_int(ints)
    assert Echelon.of(ints).det == det
    inv = mat_inverse(ints)
    want = fraction_inverse(ints)
    assert (inv is None) == (want is None) == (det == 0)
    if inv is not None:
        q, d = inv
        assert inv == int_scale(want)
        assert d > 0 and math.gcd(d, *(x for row in q for x in row)) == 1
        n = len(a)
        assert mat_mul(ints, q) == [[d * int(i == j) for j in range(n)] for i in range(n)]


def _kernel_fractions(ech, free, size):
    """ech.kernel_vector's primitive integer vector over its divisor: the
    kernel vector that is 1 at free."""
    ints, d = ech.kernel_vector(free, size)
    assert type(d) is int and d and all(type(x) is int for x in ints)
    assert math.gcd(d, *ints) == 1
    return [Fraction(x, d) for x in ints]


# the deferred rescale, on an inconsistent and on a reachable right-hand side
@example([[2, 0, 0, 1], [0, 3, 0, 1], [0, 1, 1, 0]], [1, 1, 1, 0, 0], [1, 2, 3, 0, 0], False)
@example([[-2, 0, 1], [0, 3, 1], [0, 1, 1]], [1, -1, 2, 0, 0], [0, 0, 0, 0, 0], True)
@settings(max_examples=200, deadline=None)
@given(kernel_matrices(), fives, fives, st.booleans())
def test_kernel_solve_and_nullspace(a, x0, other, reach):
    cols = len(a[0])
    ech = Echelon.of(int_scale(a)[0])
    ref = FractionEchelon.of(a)
    assert ech.rank == ref.rank
    pivots = [c for c, _ in ech.rows]
    assert pivots == [c for c, _ in ref.rows]
    basis = [_kernel_fractions(ech, fc, cols) for fc in range(cols) if fc not in pivots]
    assert basis == ref.nullspace(cols)
    assert ech.rank + len(basis) == cols
    for v in basis:
        assert not any(mat_vec(a, v))
    b = mat_vec(a, x0[:cols]) if reach else other[:len(a)]
    # a solution is the kernel vector of [a | -b] that is 1 in the last column
    aug = Echelon.of(int_scale([[*row, -bb] for row, bb in zip(a, b)])[0])
    x = None if any(c == cols for c, _ in aug.rows) else _kernel_fractions(aug, cols, cols)
    assert x == fraction_solve(a, b)
    if reach:
        assert x is not None
    if x is not None:
        assert mat_vec(a, x) == b


def test_sym_float_eigs():
    values = sym_float_eigs([[2.0, 1.0], [1.0, 2.0]])
    assert sorted(values) == pytest.approx([1.0, 3.0])
    values = sym_float_eigs([[4.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -2.0]])
    assert sorted(values) == pytest.approx([-2.0, 1.0, 4.0])
