import ast
from fractions import Fraction
from functools import cache
from math import comb, gcd
from pathlib import Path

import pytest

from oracles import (fraction_mat_mul, handle_value_failure, lr_structure,
                     replaced, schur_value_failure)

from qhandle import acceptance, rings
from qhandle._oracles import poly_from_roots
from qhandle.acceptance import EST_TABLE
from qhandle.complexity import ProjState, trajectory
from qhandle.frobenius import Element
from qhandle.linalg import char_poly, int_scale, is_positive_definite
from qhandle.rings import (ZERO, delta_closed_form, delta_gr2_form,
                           dim_f_closed_form, euler_characteristic, fano_ci,
                           grassmannian, gr2_a0_matrix,
                           gr2_b_values, gr2_theta_indices,
                           handle_closed_forms, phi_map, projective_space,
                           quadric, reduce_sigma_hat)


# -- projective spaces -------------------------------------------------------


def test_projective_space_basics():
    ring = projective_space(3)
    assert ring.labels == ["1", "H", "H^2", "H^3"]
    assert ring.tau == 4
    h = ring.basis_element(1)
    assert ring.power(h, 3) == ring.basis_element(3)
    assert ring.power(h, 5) == ring.element({("H", 1): 1})
    assert ring.handle_element() == ring.element({"H^3": 4})


def test_projective_space_rejects_bad_n():
    with pytest.raises(ValueError):
        projective_space(0)


# -- quadrics -----------------------------------------------------------------


def test_quadric_dimensions_and_labels():
    assert quadric(3).labels == ["1", "H", "s2", "s3"]
    assert quadric(4).labels == ["1", "H", "s2+", "s2-", "s3", "s4"]
    for r in range(3, 8):
        assert quadric(r).dim == r + 2 - r % 2


def test_quadric_middle_pairing_follows_parity():
    # Q^(2m) pairs its middle classes diagonally exactly when m is even
    for r, kind in ((4, "diagonal"), (6, "offdiagonal"), (8, "diagonal")):
        assert quadric(r).meta["middle_pairing"] == kind


def test_quadric_4_is_gr_2_4():
    q4, gr = quadric(4), grassmannian(2, 4)
    names = {"1": "1", "H": "s[1]", "s2+": "s[2]", "s2-": "s[1,1]",
             "s3": "s[2,1]", "s4": "s[2,2]"}
    to_gr = {q4.label_index(a): gr.label_index(b) for a, b in names.items()}
    for a in range(q4.dim):
        for b in range(q4.dim):
            got = q4.product(q4.basis_element(a), q4.basis_element(b))
            mapped = Element({(to_gr[w], d): c for (w, d), c in got.coeffs.items()})
            assert mapped == gr.product(gr.basis_element(to_gr[a]),
                                        gr.basis_element(to_gr[b]))
        assert {to_gr[b]: e for b, e in q4.pairing[a].items()} == gr.pairing[to_gr[a]]


def test_quadric_product_table_odd():
    ring = quadric(5)
    el = ring.element
    sr = el({"s5": 1})
    for a in range(1, 5):
        lab = "H" if a == 1 else f"s{a}"
        assert ring.product(sr, el({lab: 1})) == el({(lab, 1): 1})
    assert ring.product(sr, sr) == el({("1", 2): 1})
    assert ring.product(el({"s2": 1}), el({"s3": 1})) == el({"s5": 1, ("1", 1): 1})


def test_quadric_product_table_even():
    ring = quadric(4)
    el = ring.element
    sr = el({"s4": 1})
    plus, minus = el({"s2+": 1}), el({"s2-": 1})
    assert ring.product(plus, plus) == sr
    assert ring.product(minus, minus) == sr
    assert ring.product(plus, minus) == el({("1", 1): 1})
    assert ring.product(sr, plus) == el({("s2-", 1): 1})
    assert ring.product(sr, minus) == el({("s2+", 1): 1})
    # sigma_{m-1} * H hits both middle classes
    assert ring.product(el({"H": 1}), el({"H": 1})) == el({"s2+": 1, "s2-": 1})


def test_quadric_pairing():
    ring = quadric(4)
    g = ring.pairing
    idx = ring.label_index
    one = 1
    assert g[idx("1")] == {idx("s4"): one}
    assert g[idx("H")] == {idx("s3"): one}
    assert g[idx("s2+")] == {idx("s2+"): one}  # and <s2+, s2-> = 0
    assert g[idx("s2-")] == {idx("s2-"): one}
    assert ring.meta["middle_pairing"] == "diagonal"


def test_quadric_handle_and_spectrum():
    for r in (3, 4, 6):
        d = 1 if r % 2 else 2
        ring = quadric(r)
        assert ring.handle_element() == ring.element(
            {f"s{r}": r + d, ("1", 1): r - d})
        mat, den = ring.mult_matrix(ring.handle_element())
        got = char_poly([[Fraction(x, den) for x in row] for row in mat])
        assert got == poly_from_roots([(2 * r, r), (-2 * d, d)])


def test_quadric_a_matrix_positive_definite():
    for r in (3, 5):
        d = 1 if r % 2 else 2
        ring = quadric(r)
        a, den = ring.a_matrix()
        ok, minors = is_positive_definite((a, den))
        assert ok and all(v > 0 for v in minors)
        assert char_poly(a) == poly_from_roots([(2 * r * den, r), (2 * d * den, d)])


# -- grassmannians ------------------------------------------------------------


def test_reduce_sigma_hat_frozen():
    assert reduce_sigma_hat(2, 5, (5, 3)) == (1, 1, (2, 1))
    assert reduce_sigma_hat(2, 6, (8, 0)) == (-1, 1, (2,))
    assert reduce_sigma_hat(2, 4, (4,)) == (-1, 1, ())
    assert reduce_sigma_hat(2, 4, (3, 1)) == (1, 1, ())
    assert reduce_sigma_hat(2, 4, (3, 3)) == (1, 1, (2,))
    assert reduce_sigma_hat(2, 4, (4, 2)) == (1, 1, (1, 1))
    assert reduce_sigma_hat(3, 6, (5, 5, 2)) == (1, 2, ())


def test_reduce_sigma_hat_in_box_is_identity():
    for lam in [(2, 1), (3, 3), (), (1,)]:
        assert reduce_sigma_hat(2, 5, lam) == (1, 0, lam)


def test_reduce_sigma_hat_zero_cases():
    assert reduce_sigma_hat(2, 4, (4, 1)) == ZERO
    assert reduce_sigma_hat(2, 4, (3, 0)) == ZERO
    # wrapping [pt] twice in gr:2,4 gives exactly q^2
    assert reduce_sigma_hat(2, 4, (4, 4)) == (1, 2, ())
    # wrapping a straightened index keeps positivity of ring constants
    assert reduce_sigma_hat(2, 4, (4, 3)) == (1, 1, (2, 1))
    # a genuine partition with more than k rows names the zero class
    assert reduce_sigma_hat(2, 4, (3, 2, 1)) == ZERO
    # a long tuple that is not even a partition is a usage error
    with pytest.raises(ValueError):
        reduce_sigma_hat(2, 4, (1, 2, 1))
    # but trailing zeros are trimmed before the check
    assert reduce_sigma_hat(2, 4, (2, 1, 0)) == (1, 0, (2, 1))


def test_phi_map_round_trip_small():
    for n in (4, 5, 6):
        k = 2
        kn = k * (n - k)
        from qhandle.partitions import partitions_in_box
        from itertools import combinations
        for r in range(1, kn // n + 1):
            base = (-1) ** (r * (2 * k - r + 1) // 2)
            for nu in partitions_in_box(k, n - k):
                if sum(nu) != kn - r * n:
                    continue
                for idx in combinations(range(1, k + 1), r):
                    sign = base * (-1) ** sum(idx)
                    lifted = phi_map(k, n, nu, idx)
                    assert reduce_sigma_hat(k, n, lifted) == (sign, r, nu)


def test_phi_map_rejects_bad_input():
    with pytest.raises(ValueError):
        phi_map(2, 5, (1, 1, 1), (1,))
    with pytest.raises(ValueError):
        phi_map(2, 5, (1,), (2, 1))


def test_grassmannian_basis_and_domain():
    ring = grassmannian(2, 4)
    assert ring.dim == 6
    assert ring.labels[0] == "1"
    assert ring.labels[1] == "s[1]"
    assert "s[2,2]" in ring.labels
    assert ring.tau == 4
    with pytest.raises(ValueError):
        grassmannian(1, 5)
    with pytest.raises(ValueError):
        grassmannian(4, 5)


def test_grassmannian_products_small():
    ring = grassmannian(2, 4)
    el = ring.element
    s1 = el({"s[1]": 1})
    assert ring.product(s1, s1) == el({"s[2]": 1, "s[1,1]": 1})
    assert ring.product(el({"s[2]": 1}), el({"s[2]": 1})) == el({"s[2,2]": 1})
    # quantum wraparound: [pt] * s1 = q s1
    assert ring.product(el({"s[2,2]": 1}), s1) == el({("s[1]", 1): 1})
    assert ring.product(el({"s[2,2]": 1}), el({"s[2,2]": 1})) == el({("1", 2): 1})


@pytest.mark.parametrize("k, n", [row[:2] for row in EST_TABLE])
def test_grassmannian_matches_the_lr_build(k, n):
    assert grassmannian(k, n).structure == lr_structure(k, n)


# the ten table rings and one step past them
@pytest.mark.parametrize("k, n", [row[:2] for row in EST_TABLE] + [(3, 10), (4, 9)])
def test_grassmannian_matches_the_schur_values(k, n):
    ring = grassmannian(k, n)
    assert schur_value_failure(ring, k, n) is None
    assert handle_value_failure(ring, k, n) is None


def test_schur_values_catch_a_changed_constant():
    ring = grassmannian(3, 7)
    row = ring.structure[(1, 1)]  # s[1] s[1] = s[2] + s[1,1]
    w = min(row)
    mutant = replaced(ring, structure={**ring.structure, (1, 1): {**row, w: row[w] + 1}})
    assert schur_value_failure(mutant, 3, 7) == (1, 1)


def test_schur_values_catch_a_changed_handle():
    ring = grassmannian(3, 7)
    handle = ring.handle_element()
    coeffs = dict(handle.coeffs)
    coeffs[min(coeffs)] += 1
    mutant = replaced(ring, delta_override=ring.element(coeffs), _cache={})
    assert handle_value_failure(mutant, 3, 7) is not None


def _conjugate(lam):
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0] if lam else 0))


@pytest.mark.parametrize("k, n", [(2, 6), (2, 7), (3, 7), (2, 8), (3, 8)])
def test_grassmannian_duality(k, n):
    # Gr(k, n) = Gr(n - k, n) carries sigma_lam to sigma_lam' and q to q
    ring, dual = grassmannian(k, n), grassmannian(n - k, n)
    dual_index = {label: i for i, label in enumerate(dual.labels)}
    perm = [dual_index[rings._gr_label(_conjugate(lam))]
            for lam in rings._gr_basis(k, n)[0]]
    for (i, j), row in ring.structure.items():
        assert dual._row(perm[i], perm[j]) == {perm[w]: c for w, c in row.items()}
    handle = {(perm[w], e): c for (w, e), c in ring.handle_element().coeffs.items()}
    assert dual.handle_element().coeffs == handle
    assert dual.f_span_dim() == ring.f_span_dim()


def test_grassmannian_handle_frozen():
    g25 = grassmannian(2, 5)
    assert g25.handle_element() == g25.element({"s[3,3]": 10, ("s[1]", 1): 5})
    g26 = grassmannian(2, 6)
    assert g26.handle_element() == g26.element(
        {"s[4,4]": 15, ("s[2]", 1): 9, ("s[1,1]", 1): 3})
    g36 = grassmannian(3, 6)
    assert g36.handle_element() == g36.element(
        {"s[3,3,3]": 20, ("s[2,1]", 1): 16, ("s[3]", 1): 2, ("s[1,1,1]", 1): 2})


def test_delta_formulas_agree():
    for k, n in [(2, 4), (2, 5), (2, 6), (3, 6)]:
        ring = grassmannian(k, n)
        assert delta_closed_form(k, n) == ring.handle_element()
    for n in (4, 5, 6, 7):
        assert delta_gr2_form(n) == grassmannian(2, n).handle_element()


def test_grassmannian_theta():
    for k, n in [(2, 5), (2, 6), (3, 6)]:
        dd = gcd(k, n)
        assert grassmannian(k, n).theta_order() == (n // dd, k * (n - k) // dd, 1)


def test_gr2_block_matrix_frozen():
    assert gr2_b_values(6) == [15, 9, 3]
    assert gr2_theta_indices(6) == [0, 12, 11]
    assert gr2_a0_matrix(6) == [[15, 9, 3], [9, 27, 9], [3, 9, 15]]
    ok, minors = is_positive_definite(int_scale(gr2_a0_matrix(6)))
    assert ok and minors == [Fraction(15), Fraction(324), Fraction(3888)]


def test_gr2_f_dim():
    gr2 = [grassmannian(2, n) for n in range(4, 9)]
    assert [dim_f_closed_form(ring) for ring in gr2] == [2, 10, 9, 21, 8]
    for ring in gr2[:3]:
        assert ring.f_span_dim()[0] == dim_f_closed_form(ring)


#: every Gr(k, n) with 2 <= k <= n / 2 and dimension C(n, k) <= 130: 20 rings
SMALL_GRASSMANNIANS = [(k, n) for n in range(4, 17) for k in range(2, n // 2 + 1)
                       if comb(n, k) <= 130]


@pytest.mark.parametrize("k, n", SMALL_GRASSMANNIANS)
def test_positivity_and_the_span_bound_on_every_small_grassmannian(k, n):
    # the paper's positivity of A = Delta / [pt] on these minuscule varieties,
    # and dim F <= (tau / D_X) dim V_0, sharp on every Gr(2, n)
    ring = grassmannian(k, n)
    ints, den = ring.a_matrix()
    assert ints == [list(row) for row in zip(*ints)]
    assert all(x >= 0 for row in ints for x in row)
    assert is_positive_definite((ints, den))[0]
    dim_f, bound = ring.f_span_dim()[0], ring.dim_bound()
    assert dim_f == bound if k == 2 else dim_f <= bound


# -- fano complete intersections ---------------------------------------------


def test_euler_characteristic_values():
    assert euler_characteristic((2,), 3) == 4
    assert euler_characteristic((3,), 3) == -6
    assert euler_characteristic((2, 2), 3) == 0
    assert euler_characteristic((2, 3), 3) == -36
    assert euler_characteristic((4,), 3) == -56
    assert euler_characteristic((5,), 4) == 825


def test_fano_ci_rejects_non_fano():
    with pytest.raises(ValueError):
        fano_ci((3, 3), 3)  # |m| = 6 > r + L = 5
    with pytest.raises(ValueError):
        fano_ci((1,), 3)
    with pytest.raises(ValueError):
        fano_ci((2,), 2)


def test_fano_ci_constants_frozen():
    c = fano_ci((4,), 3).meta
    assert (c["zeta"], c["alpha"], c["beta"], c["omega"], c["xi"]) == (
        3480, 3986944, 2004480, 7744, 83520)
    c = fano_ci((2, 3), 3).meta
    assert (c["zeta"], c["alpha"], c["beta"], c["omega"]) == (
        640, 198432, 92160, 984)
    c = fano_ci((5,), 4).meta
    assert (c["alpha"], c["beta"], c["omega"]) == (
        19107493368125, -851592960000, 6386907625)


def test_fano_ci_quadric_dictionary():
    # m = (2), r = 3 is the three dimensional quadric in its H-power basis:
    # sigma_3 = H^3/2 - q, so (r+1)sigma_3 + (r-1)q = 2 H^3 - 2 q
    ring = fano_ci((2,), 3)
    assert ring.meta["tau"] == 3 and ring.meta["kappa"] == 0
    assert ring.handle_element() == ring.element({"H^3": 2, ("1", 1): -2})
    q3 = quadric(3)
    assert q3.handle_element() == q3.element({"s3": 4, ("1", 1): 2})
    assert ring.f_span_dim()[0] == 2 == q3.f_span_dim()[0]


def test_fano_ci_hat_basis_for_tau_one():
    assert fano_ci((4,), 3).labels == ["1", "Hhat", "Hhat^2", "Hhat^3"]
    assert fano_ci((3,), 3).labels == ["1", "H", "H^2", "H^3"]


def test_fano_ci_shift_identity():
    # Delta * H^(*i) = (tau/prod m) H^(*(r+i)) for i >= 1
    for m, r in [((3,), 3), ((2, 2), 3)]:
        ring = fano_ci(m, r)
        mprod = 1
        for mi in m:
            mprod *= mi
        h = ring.basis_element(1)
        for i in (1, 2):
            lhs = ring.product(ring.handle_element(), ring.power(h, i))
            rhs = ring.power(h, r + i).scale(Fraction(ring.meta["tau"], mprod))
            assert lhs == rhs


def _descending_handle_matrix(ring):
    """The handle matrix of a fano_ci ring in the basis H^r, ..., 1, as Fractions."""
    ints, den = ring.handle_matrix()
    r = ring.dim - 1
    return [[Fraction(ints[r - i][r - j], den) for j in range(r + 1)] for i in range(r + 1)]


@cache
def _criterion_6_details():
    return tuple(acceptance.criterion_6().details)


def _criterion_6_lines(name):
    return [line for line in _criterion_6_details() if f" {name}: " in line]


def test_fci_unit_orbit_closes_onto_the_predicted_states():
    # tau = 2, kappa = 1, gcd(r, tau) = 1: the orbit is 1, Delta, H^2, H^3
    ring = fano_ci((3,), 3)
    traj = trajectory(ring, ring.unit())
    predicted = [ring.unit(), ring.handle_element(),
                 ring.basis_element(2), ring.basis_element(3)]
    assert traj.closed and len(traj.states) == 4
    assert set(traj.states) == {ProjState.from_element(ring, e) for e in predicted}
    assert ring.f_span_dim()[0] == dim_f_closed_form(ring) == 4
    assert _criterion_6_lines(ring.name) == [
        f"ok: {ring.name}: unit orbit closes onto exactly the predicted states",
        f"ok: {ring.name}: span dimension matches the closed form 4"]


def test_fci_tau_one_handle_matrix_is_triangular():
    ring = fano_ci((4,), 3)
    meta, a = ring.meta, _descending_handle_matrix(ring)
    assert not trajectory(ring, ring.unit()).closed
    assert all(a[i][j] == 0 for i in range(4) for j in range(i))
    assert a[0][0] == meta["alpha"] and all(a[j][j] == meta["beta"] for j in range(1, 4))
    assert a[0][1] == meta["omega"] and all(a[j][j + 1] == meta["xi"] for j in range(1, 3))
    assert meta["omega"] != 0
    assert ring.f_span_dim()[0] == dim_f_closed_form(ring) == 4
    assert a[0][0] == 3986944 and a[0][1] == 7744 and a[1][1] == 2004480
    lines = _criterion_6_lines(ring.name)
    assert len(lines) == 5 and all(line.startswith("ok: ") for line in lines)
    assert (f"ok: {ring.name}: descending-basis handle matrix is upper triangular "
            "with the predicted diagonal and superdiagonal") in lines


@pytest.mark.parametrize("m, r", [((4,), 3), ((2, 3), 3), ((5,), 4)])
def test_fci_jordan_depth_is_r(m, r):
    # the beta-block B (rows and columns 1..r of A) has (B - beta I)^(r-1)
    # != 0 = (B - beta I)^r, so a check at the power r in place of r - 1
    # fails criterion 6; on the whole of A - beta I every power is nonzero,
    # since its (0, 0) entry is (alpha - beta)^k
    ring = fano_ci(m, r)
    alpha, beta = ring.meta["alpha"], ring.meta["beta"]
    assert alpha != beta
    shifted = [[x - beta * (i == j) for j, x in enumerate(row[1:])]
               for i, row in enumerate(_descending_handle_matrix(ring)[1:])]
    power = shifted
    for _ in range(r - 2):
        power = fraction_mat_mul(power, shifted)
    assert any(x for row in power for x in row)
    assert not any(x for row in fraction_mat_mul(power, shifted) for x in row)
    assert f"ok: {ring.name}: (A - beta I)^(r-1) is nonzero" in _criterion_6_lines(ring.name)


def test_fci_without_kappa_has_no_span_prediction():
    ring = fano_ci((2,), 3)
    assert ring.meta["tau"] == 3 and ring.meta["kappa"] == 0
    assert dim_f_closed_form(ring) is None
    assert ring.f_span_dim()[0] == 2


@pytest.mark.parametrize("make, arg", [(projective_space, n) for n in range(1, 9)]
                         + [(quadric, r) for r in range(2, 13)])
def test_handle_closed_form_matches_the_computed_handle(make, arg):
    ring = make(arg)
    assert handle_closed_forms(ring) == {"closed_form": ring.handle_element()}


def test_closed_forms_need_a_ring_kind():
    ring = projective_space(2)
    ring.meta.clear()
    assert handle_closed_forms(ring) == {}
    assert dim_f_closed_form(ring) is None


def test_all_rings_validate():
    rings = [projective_space(2), quadric(3), quadric(4), quadric(8),
             grassmannian(2, 5), fano_ci((3,), 3), fano_ci((4,), 3),
             fano_ci((5,), 4)]
    for ring in rings:
        ring.validate()


def test_rings_imports_only_frobenius_and_partitions_at_module_level():
    # rings builds rings and states closed forms; the checks that read them
    # live in acceptance, so rings needs no other part of the package
    tree = ast.parse(Path(rings.__file__).read_text())
    top = [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
    nested = [node for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in top]
    assert nested == []
    package = []
    for node in top:
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "qhandle" for a in node.names)
        elif node.level or (node.module or "").split(".")[0] == "qhandle":
            assert node.level == 1, "absolute or parent-relative qhandle import"
            package += [node.module] if node.module else [a.name for a in node.names]
    assert sorted(package) == ["frobenius", "partitions"]
