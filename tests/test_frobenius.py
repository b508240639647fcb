from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (FractionEchelon, associativity_failure, element_span_dim,
                     fraction_generators, generator_failure, pairing_double_sum, replaced)
from qhandle.acceptance import EST_TABLE, FCI_INSTANCES
from qhandle.frobenius import _GENERATOR_PRIME, Element, FrobeniusRing
from qhandle.linalg import int_scale
from qhandle.rings import fano_ci, grassmannian, projective_space, quadric


def test_element_algebra():
    x = Element({(0, 0): Fraction(2), (1, 1): Fraction(-1)})
    y = Element({(0, 0): Fraction(1)})
    assert x.scale(2).coeffs[(1, 1)] == -2
    assert x.shift_q(3).coeffs == {(0, 3): Fraction(2), (1, 4): Fraction(-1)}
    assert x.support() == {0, 1}
    assert hash(Element({(0, 0): Fraction(1)})) == hash(y)


def test_element_builder_accepts_mixed_keys():
    ring = projective_space(2)
    by_label = ring.element({"H": 2, ("H^2", 1): 3})
    by_index = ring.element({1: 2, (2, 1): 3})
    assert by_label == by_index
    assert by_label.coeffs == {(1, 0): Fraction(2), (2, 1): Fraction(3)}
    with pytest.raises(ValueError):
        ring.element({"no-such-label": 1})
    with pytest.raises(ValueError):
        ring.element({7: 1})


def test_unit_and_basis():
    ring = projective_space(3)
    assert ring.unit() == ring.basis_element(0)
    assert ring.label_index("H^2") == 2
    assert ring.dim == 4


def test_product_grading_and_wraparound():
    ring = projective_space(2)
    h = ring.basis_element(1)
    assert ring.product(h, h) == ring.basis_element(2)
    # H * H^2 = q in P^2
    assert ring.product(h, ring.basis_element(2)) == ring.element({("1", 1): 1})


def test_power():
    ring = projective_space(3)
    h = ring.basis_element(1)
    assert ring.power(h, 0) == ring.unit()
    assert ring.power(h, 4) == ring.element({("1", 1): 1})
    with pytest.raises(ValueError):
        ring.power(h, -1)


@pytest.mark.parametrize("make", [lambda: projective_space(2), lambda: quadric(4),
                                  lambda: grassmannian(2, 5), lambda: fano_ci([5], 4)])
def test_power_is_the_k_fold_product(make):
    # the coefficient keys (label, q exponent) must agree too, so compare the dicts
    ring = make()
    for x in (ring.handle_element(), ring.element({ring.unit_index: 1, 1: 2})):
        acc = ring.unit()
        for k in range(13):
            assert ring.power(x, k).coeffs == acc.coeffs, k
            acc = ring.product(acc, x)


def test_handle_element_projective():
    for n in (1, 2, 3, 4):
        ring = projective_space(n)
        assert ring.handle_element() == ring.element({ring.labels[n]: n + 1})


def test_mult_matrix_columns():
    ring = projective_space(2)
    delta = ring.handle_element()
    mat, den = ring.mult_matrix(delta)
    for j in range(ring.dim):
        col = ring.element_vector(ring.product(delta, ring.basis_element(j)))
        assert [Fraction(mat[i][j], den) for i in range(ring.dim)] == col


def test_theta_order_and_pt_inverse():
    for n in (2, 3, 5):
        ring = projective_space(n)
        assert ring.theta_order() == (n + 1, n, 1)
        assert ring.pt_inverse() == ring.element({("H", -1): 1})
    ring = quadric(4)
    assert ring.theta_order() == (2, 2, 1)
    assert ring.pt_inverse() == ring.element({("s4", -2): 1})


def test_theta_order_requires_point_class():
    ring = fano_ci((4,), 3)
    with pytest.raises(ValueError):
        ring.theta_order()


def test_theta_order_searches_powers_up_to_64():
    # [pt]^(n+1) = q^n 1 on P^n, so theta = 64 is found and theta = 65 is not
    assert projective_space(63).theta_order() == (64, 63, 1)
    with pytest.raises(ValueError, match=r"^point class of P\^64 has no scalar power within 64$"):
        projective_space(64).theta_order()


def test_a_matrix_projective_is_scalar():
    for n in (2, 4):
        ring = projective_space(n)
        expected = [[n + 1 if i == j else 0 for j in range(ring.dim)] for i in range(ring.dim)]
        assert ring.a_matrix() == (expected, 1)


def test_vj_split_partitions_basis():
    ring = grassmannian(2, 6)
    seen = []
    for j in range(ring.tau):
        part = ring.vj_split(j)
        assert all(ring.degrees[i] % ring.tau == j for i in part)
        seen.extend(part)
    assert sorted(seen) == list(range(ring.dim))
    assert len(ring.vj_split(0)) == 3


def test_dim_bound_and_span():
    ring = grassmannian(2, 6)
    assert ring.dim_bound() == 9
    rank, powers = ring.f_span_dim()
    assert rank == 9
    assert powers == list(range(9))


@pytest.mark.parametrize("make", (
    [lambda n=n: projective_space(n) for n in range(1, 7)]
    + [lambda r=r: quadric(r) for r in range(3, 9)]
    + [lambda m=m, r=r: fano_ci(m, r) for m, r in FCI_INSTANCES + [((2,), 3)]]
    + [lambda k=k, n=n: grassmannian(k, n) for k, n, _, _ in EST_TABLE]
), ids=([f"pn:{n}" for n in range(1, 7)] + [f"quadric:{r}" for r in range(3, 9)]
        + [f"fci:{','.join(map(str, m))};r={r}" for m, r in FCI_INSTANCES + [((2,), 3)]]
        + [f"gr:{k},{n}" for k, n, _, _ in EST_TABLE]))
def test_span_matches_the_element_product_loop(make):
    ring = make()
    assert ring.f_span_dim() == element_span_dim(ring)


def test_span_rejects_a_power_outside_the_allowed_degrees():
    # Q^4 has tau = 4 = top degree, so D_X = 4 and only degrees 0 and 4 are
    # allowed; a handle override H would leave them at the first power.  It is
    # not homogeneous of degree top, and handle_element refuses it before any
    # power is taken, as it refuses s4 carrying a q that the grading does not
    ring = replaced(quadric(4), _cache={})
    assert ring.d_x() == 4
    for override in ({"H": 1}, {("s4", 1): 1}):
        ring.delta_override = ring.element(override)
        for span in (element_span_dim, FrobeniusRing.f_span_dim):
            with pytest.raises(ValueError, match="not homogeneous of degree 4"):
                span(ring)
    ring.delta_override = ring.element({"s4": 1, ("1", 1): 1})  # homogeneous
    assert ring.f_span_dim() == element_span_dim(ring)


def test_handle_of_fci_without_override_raises_q_dependent():
    # the constant pairing of P^2, stored as its nonzero rows
    assert projective_space(2).pairing == [{2: 1}, {1: 1}, {0: 1}]
    ring = replaced(fano_ci((4,), 3), delta_override=None, _cache={})
    with pytest.raises(ValueError, match="pairing has q-dependent entries"):
        ring.handle_element()


def test_validate_rejects_broken_pairing():
    bad = projective_space(2)
    bad.pairing[0][2] = Fraction(2)  # breaks symmetry with pairing[2][0]
    with pytest.raises(ValueError, match="pairing not symmetric"):
        bad.validate()


def test_validate_rejects_an_ungraded_pairing_entry():
    # <1, H> = 1 is symmetric and keeps the pairing invertible, but
    # deg 1 + deg H = 1 is not top + s tau = 2 + 3 s
    bad = projective_space(2)
    bad.pairing[0][1] = bad.pairing[1][0] = Fraction(1)
    with pytest.raises(ValueError, match=r"pairing grading fails at \(0, 1\)"):
        bad.validate()


@pytest.mark.parametrize("value", [0, 1.0])
def test_validate_rejects_a_zero_or_float_pairing_entry(value):
    bad = projective_space(2)
    bad.pairing[1][1] = value  # on the diagonal, so still symmetric
    with pytest.raises(ValueError, match=r"pairing grading fails at \(1, 1\)"):
        bad.validate()


def test_validate_rejects_broken_unit():
    bad = projective_space(2)
    bad.structure[(0, 1)] = {1: 2}
    with pytest.raises(ValueError, match="unit law fails"):
        bad.validate()


def test_singular_pairing_is_rejected():
    bad = projective_space(2)
    del bad.pairing[1][1]  # zeroes the middle row of the anti-diagonal pairing
    with pytest.raises(ValueError, match="pairing matrix is singular"):
        bad.handle_element()
    with pytest.raises(ValueError, match="pairing matrix is singular"):
        bad.validate()


@pytest.mark.parametrize("make, key, row", [
    (lambda: projective_space(2), (1, 1), {1: 1}),  # gap 1, tau 3
    (lambda: projective_space(2), (1, 1), {2: Fraction(1)}),  # not an int
    (lambda: fano_ci((4,), 3), (1, 1), {3: 1}),  # gap -1, tau 1
])
def test_validate_rejects_bad_grading(make, key, row):
    bad = make()
    bad.structure[key] = row
    with pytest.raises(ValueError, match="grading fails"):
        bad.validate()


def test_validate_rejects_missing_structure_constant():
    bad = projective_space(2)
    del bad.structure[(1, 2)]
    with pytest.raises(ValueError, match=r"missing structure constant \(1, 2\)"):
        bad.validate()


@pytest.mark.parametrize("make", [
    lambda: projective_space(2),
    lambda: fano_ci((5,), 4),  # constants up to 5^20
])
def test_validate_rejects_non_associative(make):
    bad = make()
    bad.structure[(1, 1)] = {2: 2}  # graded, but H * H = 2 H^2 breaks associativity
    with pytest.raises(ValueError, match=r"associativity fails at pair \(1, 1\)"):
        bad.validate()


def test_validate_catches_a_gap_that_int64_would_wrap():
    # e1 e1 = a e2, e1 e2 = b q, e2 e2 = c q e1 is associative iff a c = b;
    # here a c - b = 2^64, which vanishes in int64 arithmetic
    bad = projective_space(2)
    a = c = 2 ** 32 + 1
    bad.structure.update({(1, 1): {2: a}, (1, 2): {0: 2 ** 33 + 1}, (2, 2): {1: c}})
    with pytest.raises(ValueError, match=r"associativity fails at pair \(1, 1\)"):
        bad.validate()


def test_validate_catches_a_gap_that_int32_would_wrap():
    # as above with a c - b = 2^32, which vanishes in int32 arithmetic
    bad = projective_space(2)
    a = c = 2 ** 16 + 1
    bad.structure.update({(1, 1): {2: a}, (1, 2): {0: 2 ** 17 + 1}, (2, 2): {1: c}})
    with pytest.raises(ValueError, match=r"associativity fails at pair \(1, 1\)"):
        bad.validate()


def test_validate_rejects_frobenius_failure():
    bad = projective_space(2)
    bad.pairing[1][1] = 2  # still symmetric and invertible
    with pytest.raises(ValueError, match="Frobenius condition fails"):
        bad.validate()


@pytest.mark.parametrize("make", [
    lambda: projective_space(3),
    lambda: quadric(4),
    lambda: quadric(5),
    lambda: grassmannian(2, 5),
    lambda: grassmannian(3, 6),
    lambda: fano_ci((5,), 4),  # constants up to 5^20
], ids=["pn:3", "quadric:4", "quadric:5", "gr:2,5", "gr:3,6", "fci:5;r=4"])
def test_generator_check_agrees_with_the_all_pairs_oracle(make):
    # a private copy: grassmannian rings are shared through functools.cache
    shared = make()
    ring = replaced(shared, structure=dict(shared.structure), _cache={})
    assert associativity_failure(ring.structure, ring.dim) is None
    ring._validate_associativity()
    off_generators = 0
    for key, row in list(ring.structure.items()):
        if ring.unit_index in key or not row:
            continue
        w = min(row)  # c -> c + 1 on one term; the grading is kept
        mutant = {**row, w: row[w] + 1}
        ring.structure[key] = {v: c for v, c in mutant.items() if c}
        if associativity_failure(ring.structure, ring.dim) is None:
            ring._validate_associativity()
        else:
            with pytest.raises(ValueError, match="associativity fails at pair"):
                ring._validate_associativity()
            off_generators += not set(key) & set(ring._generators())
        ring.structure[key] = row
    assert off_generators


def test_associativity_is_checked_for_every_generator():
    # a annihilates every non-unit class, so L_a L_x = L_ax holds for all x;
    # the second generator b exposes (b b) c = c against b (b c) = 0
    ring = FrobeniusRing(
        name="two generators", labels=["1", "a", "b", "c"], degrees=[0, 1, 1, 2],
        tau=1, pairing=[{} for _ in range(4)],
        structure={(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: 1},
                   (1, 1): {}, (1, 2): {}, (1, 3): {}, (2, 2): {3: 1}, (2, 3): {},
                   (3, 3): {3: 1}},
        unit_index=0,
    )
    assert ring._generators() == [1, 2]
    assert associativity_failure(ring.structure, ring.dim) is not None
    with pytest.raises(ValueError, match=r"associativity fails at pair \(2, 2\)"):
        ring._validate_associativity()


def test_associativity_is_checked_in_both_orders_of_a_pair():
    # (e2 e4) e3 = e3 e3 = q e3 but e2 (e4 e3) = 0; every check of
    # (e_g e_b) e_j = e_g (e_b e_j) with b <= j holds, so only the order
    # b > j exposes it
    ring = FrobeniusRing(
        name="late pair", labels=["1", "a", "b", "c", "d"], degrees=[0, 1, 2, 3, 4],
        tau=3, pairing=[{} for _ in range(5)],
        structure={**{(0, j): {j: 1} for j in range(5)},
                   **{(i, j): {} for i in range(1, 5) for j in range(i, 5)},
                   (2, 2): {4: 1}, (2, 4): {3: 1}, (3, 3): {3: 1}},
        unit_index=0,
    )
    assert ring._generators() == [1, 2]
    assert associativity_failure(ring.structure, ring.dim) is not None
    with pytest.raises(ValueError, match=r"associativity fails at pair \(2, 4\)"):
        ring._validate_associativity()


def _algebra(degrees, tau, partner, products):
    # basis e_0 = 1, ..., e_(n-1); pairing <e_i, e_partner[i]> = 1, and every
    # product of non-unit classes not in products is 0
    n = len(degrees)
    structure = {(i, j): {} for i in range(1, n) for j in range(i, n)}
    structure.update({(0, j): {j: 1} for j in range(n)})
    structure.update(products)
    return FrobeniusRing(
        name="hand-built", labels=[f"e{i}" for i in range(n)], degrees=degrees, tau=tau,
        pairing=[{j: 1} for j in partner], structure=structure, unit_index=0,
    )


T = 2 ** 40

# Rings whose associativity check must fail at pair (1, 1): e_1 (e_b e_1) !=
# (e_1 e_1) e_b for some b, with every other identity of the generator e_1
# holding.  Each is a (degrees, tau, pairing partners, products) tuple.
PACKING_CASES = {
    # x (a x) = -T^2 w but (x x) a = 0: one discrepancy, of size T L
    # (T = 2^40 the largest constant and L = 2^40 the largest row sum)
    "digit bound": ([0] * 5, 1, range(5), {(1, 2): {3: -T}, (1, 3): {4: T}}),
    # x (b x) - (x x) b is 2 T^2 w at b = a and -w at the next b: with
    # T = L = 2^40 the digits need 83 bits, and at 81 the two would cancel
    "carry": ([0] * 8, 1, range(8), {(1, 1): {4: T}, (2, 4): {7: -T}, (1, 2): {5: T},
                                     (1, 5): {7: T}, (1, 3): {6: -1}, (1, 6): {7: 1}}),
    # tau = 2: x (a x) = w but x (b x) = -w, with deg a = 1 and deg b = 3 in
    # the same class mod 2 and each the second basis element of its degree;
    # (x x) a = (x x) b = 0
    "degree class": ([0, 1, 1, 2, 3, 3, 4], 2, [6, 4, 5, 3, 1, 2, 0],
                     {(1, 2): {3: 1}, (1, 3): {4: 1}, (1, 5): {6: -1}, (1, 6): {4: 1}}),
}


@pytest.mark.parametrize("case", sorted(PACKING_CASES))
def test_packed_associativity_check_keeps_every_digit(case):
    ring = _algebra(*PACKING_CASES[case])
    gens = ring._generators()
    assert gens[0] == 1 and generator_failure(ring.structure, ring.dim, gens) == (1, 1)
    with pytest.raises(ValueError, match=r"associativity fails at pair \(1, 1\)$"):
        ring.validate()


MUTATION_RINGS = {
    "pn:3": lambda: projective_space(3),
    "quadric:4": lambda: quadric(4),
    "gr:2,5": lambda: grassmannian(2, 5),
    "gr:3,6": lambda: grassmannian(3, 6),
    "fci:5;r=4": lambda: fano_ci((5,), 4),  # constants up to 5^20
}


@st.composite
def graded_mutations(draw):
    name = draw(st.sampled_from(sorted(MUTATION_RINGS)))
    ring = MUTATION_RINGS[name]()
    ring = replaced(ring, structure=dict(ring.structure), _cache={})
    n, deg = ring.dim, ring.degrees
    keys = sorted(key for key in ring.structure if ring.unit_index not in key)
    for _ in range(draw(st.integers(1, 3))):
        i, j = draw(st.sampled_from(keys))
        w = draw(st.sampled_from([w for w in range(n) if deg[i] + deg[j] >= deg[w]
                                  and (deg[i] + deg[j] - deg[w]) % ring.tau == 0]))
        delta = draw(st.integers(-3, 3) | st.sampled_from([-T, T, 1 - T]))
        row = dict(ring.structure[(i, j)])
        row[w] = row.get(w, 0) + delta
        ring.structure[(i, j)] = {v: c for v, c in row.items() if c}
    return ring


@settings(max_examples=150, deadline=None)
@given(graded_mutations())
def test_associativity_agrees_with_the_oracles_on_graded_mutations(ring):
    gens = fraction_generators(ring)
    assert ring._generators() == gens
    want = generator_failure(ring.structure, ring.dim, gens)
    assert (want is None) == (associativity_failure(ring.structure, ring.dim) is None)
    if want is None:
        ring._validate_associativity()
    else:
        with pytest.raises(ValueError, match=r"associativity fails at pair \({}, {}\)$".format(*want)):
            ring._validate_associativity()


@pytest.mark.parametrize("k, n, gens", [
    (2, 4, [1, 2]), (2, 5, [1]), (2, 6, [1, 2]), (2, 7, [1]), (2, 8, [1, 2]),
    (3, 6, [1, 2, 4]), (3, 7, [1]), (3, 8, [1, 2]), (3, 9, [1, 4]), (4, 8, [1, 2, 7]),
])
def test_generators_of_the_table_rings(k, n, gens):
    assert grassmannian(k, n)._generators() == gens


GENERATOR_RINGS = [(f"gr:{k},{n}", grassmannian, (k, n)) for k, n, dim, _ in EST_TABLE
                   if dim <= 56] + [("pn:4", projective_space, (4,)),
                                    ("quadric:5", quadric, (5,)),
                                    ("fci:5;r=4", fano_ci, ((5,), 4))]


@pytest.mark.parametrize("build, args", [spec[1:] for spec in GENERATOR_RINGS],
                         ids=[spec[0] for spec in GENERATOR_RINGS])
def test_generators_match_the_greedy_search_over_q(build, args):
    # the span mod p must be closed under true products: a closure that
    # drops or bends a word changes which basis elements become generators
    ring = build(*args)
    assert ring._generators() == fraction_generators(ring)


def test_validate_rejects_frobenius_failure_in_a_q_dependent_entry():
    bad = fano_ci((3,), 4)  # tau = 3: <H^3, H^4> = 81 q
    assert bad.meta["tau"] >= 2 and bad.pairing_q_power(3, 4) == 1
    for a, b in ((3, 4), (4, 3)):
        bad.pairing[a][b] = 2 * bad.pairing[a][b]
    with pytest.raises(ValueError, match=r"Frobenius condition fails at pair \(3, 4\)"):
        bad.validate()


def _unlucky_prime_ring():
    # Q[x]/(x^3 - p^2 q) in the basis 1, x, y = x^2 / p, for the prime p of
    # the generator search: x x = p y spans y over Q but is 0 mod p
    p = _GENERATOR_PRIME
    return FrobeniusRing(
        name="unlucky prime", labels=["1", "x", "y"], degrees=[0, 1, 2], tau=3,
        pairing=[{2: 1}, {1: p}, {0: 1}],
        structure={(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                   (1, 1): {2: p}, (1, 2): {0: p}, (2, 2): {1: 1}},
        unit_index=0,
    )


def test_generator_search_survives_an_unlucky_prime():
    # y must become a generator of its own
    ring = _unlucky_prime_ring()
    assert ring._generators() == [1, 2]
    ring.validate()
    assert associativity_failure(ring.structure, ring.dim) is None
    ring.structure[(2, 2)] = {1: 2}  # y y = 2 q x: (x x) y = 2 p q x but x (x y) = p q x
    assert associativity_failure(ring.structure, ring.dim) is not None
    with pytest.raises(ValueError, match="associativity fails at pair"):
        ring.validate()


def _scaled_pairing(ring, c):
    # c <., .> is again a Frobenius pairing of the ring, with handle Delta / c
    pairing = [{j: c * v for j, v in row.items()} for row in ring.pairing]
    return replaced(ring, pairing=pairing, _cache={})


HANDLE_RINGS = ([(f"pn:{n}", projective_space, (n,)) for n in range(1, 7)]
                + [(f"quadric:{r}", quadric, (r,)) for r in range(2, 9)]
                + [(f"gr:{k},{n}", grassmannian, (k, n)) for k, n, _, _ in EST_TABLE]
                + [("unlucky prime", _unlucky_prime_ring, ()),
                   ("quadric:4 pairing / 2",
                    lambda: _scaled_pairing(quadric(4), Fraction(1, 2)), ())])


@pytest.mark.parametrize("build, args", [spec[1:] for spec in HANDLE_RINGS],
                         ids=[spec[0] for spec in HANDLE_RINGS])
def test_handle_matches_the_pairing_double_sum(build, args):
    ring = build(*args)
    ring.validate()
    assert ring.handle_element() == pairing_double_sum(ring)


MULT_RINGS = (HANDLE_RINGS
              + [(f"fci:{','.join(map(str, m))};r={r}", fano_ci, (m, r))
                 for m, r in FCI_INSTANCES]
              + [("quadric:4 pairing * 4", lambda: _scaled_pairing(quadric(4), 4), ())])


@pytest.mark.parametrize("build, args", [spec[1:] for spec in MULT_RINGS],
                         ids=[spec[0] for spec in MULT_RINGS])
def test_mult_matrix_is_the_int_scale_of_the_product_columns(build, args):
    ring = build(*args)
    delta, u = ring.handle_element(), ring.unit_index
    # halves whose q = 1 sum is the unit: the pair must come out as (I, 1)
    halves = ring.element({(u, 0): Fraction(1, 2), (u, 1): Fraction(1, 2)})
    for x in (delta, delta.scale(Fraction(2, 3)), halves):
        cols = [ring.element_vector(ring.product(x, ring.basis_element(j)))
                for j in range(ring.dim)]
        assert ring.mult_matrix(x) == int_scale([list(row) for row in zip(*cols)])


@pytest.mark.parametrize("build, args", [spec[1:] for spec in MULT_RINGS],
                         ids=[spec[0] for spec in MULT_RINGS])
def test_pairing_determinant_is_q_to_the_e_times_its_value_at_q_1(build, args):
    # validate tests invertibility at q = 1 only: every term of det G(q)
    # carries the same q^E, E = (2 sum deg - n top) / tau
    ring = build(*args)
    n, top = ring.dim, ring.top_degree()
    e, rem = divmod(2 * sum(ring.degrees) - n * top, ring.tau)
    assert rem == 0

    def det_at(q):
        rows = [[Fraction(q) ** ring.pairing_q_power(i, j) * row[j] if j in row else 0
                 for j in range(n)] for i, row in enumerate(ring.pairing)]
        return FractionEchelon.of(rows).det

    det1 = det_at(1)
    assert det1
    for q in (2, 3):
        assert det_at(q) == Fraction(q) ** e * det1
