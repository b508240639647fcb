import random
from itertools import product
from math import comb, gcd

from oracles import partitions_up_to
from qhandle._oracles import schur_product_expansion, schur_value
from qhandle.partitions import (_add_strips, _gaussian_series, complement, est_bound,
                                in_box, is_partition, lr_coefficient_len2,
                                lr_expand, normalize, partitions_in_box,
                                partitions_of, restricted_count)


def test_is_partition():
    assert is_partition(())
    assert is_partition((3, 3, 1))
    assert not is_partition((1, 2))
    assert not is_partition((2, -1))


def test_normalize_strips_zeros():
    assert normalize((3, 1, 0, 0)) == (3, 1)
    assert normalize((0, 0)) == ()
    assert normalize(()) == ()


def test_in_box():
    assert in_box((2, 2), 2, 2)
    assert not in_box((3,), 2, 2)
    assert not in_box((1, 1, 1), 2, 2)


def test_partitions_in_box_count_and_order():
    for k in range(1, 5):
        for m in range(1, 6):
            box = partitions_in_box(k, m)
            assert len(box) == comb(k + m, k)
            assert len(set(box)) == len(box)
            keys = [(sum(lam), lam) for lam in box]
            assert keys == sorted(keys)
            assert all(in_box(lam, k, m) for lam in box)


def test_complement_involution():
    for k, n in [(2, 4), (2, 6), (3, 6), (3, 8)]:
        for lam in partitions_in_box(k, n - k):
            mu = complement(lam, k, n)
            assert in_box(mu, k, n - k)
            assert sum(lam) + sum(mu) == k * (n - k)
            assert complement(mu, k, n) == lam


def test_partitions_of_matches_count():
    for w in range(11):
        for m in range(6):
            for l in range(6):
                assert restricted_count(w, m, l) == len(partitions_of(w, m, l))


def test_restricted_count_box_symmetry():
    for m in range(1, 7):
        for l in range(1, 7):
            for i in range(m * l + 1):
                assert restricted_count(i, m, l) == restricted_count(m * l - i, m, l)


def test_restricted_count_box_total():
    for m in range(1, 8):
        for l in range(1, 8):
            total = sum(restricted_count(i, m, l) for i in range(m * l + 1))
            assert total == comb(m + l, l)


def test_est_bound_values():
    # formula values; the published table's gr:3,9 row disagrees and is
    # handled in test_acceptance
    cases = [
        ((2, 4), 2), ((2, 5), 10), ((2, 6), 9), ((2, 7), 21), ((2, 8), 8),
        ((3, 6), 8), ((3, 7), 35), ((3, 8), 56), ((3, 9), 10), ((4, 8), 10),
    ]
    for (k, n), expected in cases:
        assert est_bound(k, n) == expected


def lr_coefficient(lam, mu, nu):
    """C^nu_{lam,mu}, read off lr_expand at a cap of len(nu) rows: the cap
    drops only longer shapes, and lr_expand gives {} when lam has more rows
    than nu, where C^nu_{lam,mu} = 0."""
    nu = normalize(nu)
    return lr_expand(lam, mu, len(nu)).get(nu, 0)


def test_lr_coefficient_known_values():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (4, 2)) == 1
    assert lr_coefficient((2, 1), (2, 1), (2, 2, 1, 1)) == 1
    assert lr_coefficient((2, 2), (2, 1), (4, 3)) == 1
    assert lr_coefficient((2, 2), (2, 1), (3, 2, 2)) == 1
    assert lr_coefficient((), (3, 1), (3, 1)) == 1


def test_lr_coefficient_matches_the_monomial_oracle():
    # every nu of weight |lam| + |mu| <= 6, those shorter than lam included,
    # also with a trailing zero row
    shapes = [()] + partitions_up_to(6)
    for lam in shapes:
        for mu in shapes:
            w = sum(lam) + sum(mu)
            if w > 6:
                continue
            want = schur_product_expansion(lam, mu, len(lam) + len(mu))
            for nu in partitions_of(w, w, w):
                c = want.get(nu, 0)
                assert lr_coefficient(lam, mu, nu) == c, (lam, mu, nu)
                assert lr_coefficient(lam, mu, nu + (0,)) == c, (lam, mu, nu)


def test_lr_expand_unit_and_weight():
    for lam in [(2,), (2, 1), (3, 3, 1)]:
        assert lr_expand(lam, (), 99) == {lam: 1}
        assert lr_expand((), lam, 99) == {lam: 1}
    exp = lr_expand((3, 1), (2, 2), 99)
    assert all(sum(nu) == 8 for nu in exp)
    assert all(c > 0 for c in exp.values())


def test_lr_expand_row_bound():
    full = lr_expand((2, 1), (2, 1), 99)
    capped = lr_expand((2, 1), (2, 1), 2)
    assert capped == {nu: c for nu, c in full.items() if len(nu) <= 2}


def test_lr_expand_symmetry():
    shapes = partitions_up_to(6)
    for i, lam in enumerate(shapes):
        for mu in shapes[i:]:
            assert lr_expand(lam, mu, 99) == lr_expand(mu, lam, 99)


def test_lr_expand_symmetry_under_a_row_cap():
    # the LR oracle lr_structure puts the lighter factor second and relies on this
    shapes = partitions_up_to(6)
    for r in range(1, 5):
        for i, lam in enumerate(shapes):
            for mu in shapes[i:]:
                assert lr_expand(lam, mu, r) == lr_expand(mu, lam, r), (lam, mu, r)


def test_lr_expand_against_bialternant_oracle():
    # exact polynomial identity at prime points kills any wrong coefficient,
    # since Schur values at positive points are positive
    shapes = partitions_up_to(6)
    for i, lam in enumerate(shapes):
        for mu in shapes[i:]:
            nvars = len(lam) + len(mu)
            exp = lr_expand(lam, mu, 99)
            lhs = schur_value(lam, nvars) * schur_value(mu, nvars)
            rhs = sum(c * schur_value(nu, nvars) for nu, c in exp.items())
            assert lhs == rhs, (lam, mu)


def test_lr_expand_against_monomial_oracle():
    shapes = partitions_up_to(6)
    checked = 0
    for i, lam in enumerate(shapes):
        for mu in shapes[i:]:
            if sum(lam) + sum(mu) > 8:
                continue
            nvars = len(lam) + len(mu)
            got = {nu: c for nu, c in lr_expand(lam, mu, 99).items() if c}
            assert got == schur_product_expansion(lam, mu, nvars), (lam, mu)
            checked += 1
    assert checked > 100


def test_add_strips_matches_brute_force():
    # every nu containing prev, |prev| + size boxes, at most max_rows rows and
    # nu_(i+1) <= prev_i, in lexicographic order of the rows as the strip
    # recursion builds them; callers never pass a prev taller than the cap
    for prev in partitions_in_box(4, 5):
        for max_rows in range(len(prev) or 1, 5):
            padded = prev + (0,) * (max_rows - len(prev))
            for size in range(6):
                ranges = [range(padded[i], (padded[i - 1] if i else padded[0] + size) + 1)
                          for i in range(max_rows)]
                want = [normalize(nu) for nu in product(*ranges)
                        if sum(nu) == sum(prev) + size and is_partition(nu)]
                got = _add_strips(prev, size, max_rows)
                assert isinstance(got, tuple)
                assert list(got) == want, (prev, size, max_rows)


def test_schur_product_expansion_at_the_edge_of_the_packing_base():
    # one variable carries the whole degree 8, which is base - 1
    assert schur_product_expansion((4,), (4,), 2) == {
        (8,): 1, (7, 1): 1, (6, 2): 1, (5, 3): 1, (4, 4): 1}


def test_two_row_closed_form_matches_general():
    small = [lam for lam in partitions_up_to(5, max_len=2)]
    for lam in small:
        for nu in small:
            for w in (sum(lam) + sum(nu), sum(lam) + sum(nu) + 1):
                for mu in partitions_of(w, w, 2):
                    assert (lr_coefficient_len2(lam, nu, mu)
                            == lr_coefficient(lam, nu, mu)), (lam, nu, mu)


def test_est_bound_small_values_by_hand():
    # gr:2,4: tau 4, blocks of weight 0 and 4 inside a 2x2 box
    assert est_bound(2, 4) == 1 * (1 + 1)
    # gr:2,5: gcd(5, 4) = 1 so the prefactor is 5; weights 0 and 5
    assert est_bound(2, 5) == 5 * (1 + restricted_count(5, 3, 2))


def test_est_bound_reads_one_series():
    for n in range(4, 31):
        for k in range(2, n - 1):
            terms = sum(restricted_count(i * n, n - k, k)
                        for i in range(k * (n - k) // n + 1))
            assert est_bound(k, n) == (n // gcd(n, k * k)) * terms, (k, n)


def test_est_bound_matches_the_gaussian_series_up_to_n_200():
    # random rings, and some with a large gcd(n, k), against the whole series
    rng = random.Random(2004)
    cases = [(n := rng.randint(90, 200), rng.randint(2, n - 2)) for _ in range(4)]
    for n, k in cases + [(144, 12), (150, 30), (200, 100), (200, 64)]:
        size = k * (n - k)
        series = _gaussian_series(max(k, n - k), min(k, n - k), size)
        terms = sum(series[i * n] for i in range(size // n + 1))
        assert est_bound(k, n) == (n // gcd(n, k * k)) * terms, (k, n)
