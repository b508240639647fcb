"""End-to-end checks of the library's published guarantees.

Each criterion_N function exercises one family of guarantees and returns a
_Checker with per-item detail lines; run_all aggregates them into a stable
dictionary that the command line interface renders as text or JSON.

The table of span bounds contains one documented discrepancy (the gr:3,9
row); it is reported as a known failure rather than silently patched, and
the formula value is pinned so any drift still fails loudly.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

from . import partitions, rings
from ._oracles import poly_from_roots, schur_product_expansion, schur_value, sym_float_eigs
from .complexity import (ProjState, chordal, exact_complexity,
                         limit_points_real, s_infinity, trajectory)
from .linalg import (char_poly, is_positive_definite, krylov_rank, mat_inverse,
                     mat_mul, mat_vec, squarefree_part)

STANDARD_GRASSMANNIANS = [(2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                          (3, 6), (3, 7), (3, 8)]

# rows (k, n, dim H, published bound); the gr:3,9 bound as published
# disagrees with the defining formula, which gives 10
EST_TABLE = [
    (2, 4, 6, 2), (2, 5, 10, 10), (2, 6, 15, 9), (2, 7, 21, 21),
    (2, 8, 28, 8), (3, 6, 20, 8), (3, 7, 35, 35), (3, 8, 56, 56),
    (3, 9, 84, 9), (4, 8, 70, 10),
]

FCI_INSTANCES = [((3,), 3), ((2, 2), 3), ((4,), 3), ((2, 3), 3), ((5,), 4)]
FCI_EULER = {((3,), 3): -6, ((2, 2), 3): 0, ((4,), 3): -56,
             ((2, 3), 3): -36, ((5,), 4): 825}


class _Checker:
    def __init__(self, name):
        self.name = name
        self.ok = True
        self.details = []
        self.known = []

    def check(self, cond, msg):
        self.details.append(("ok: " if cond else "FAIL: ") + msg)
        if not cond:
            self.ok = False
        return bool(cond)

    def known_discrepancy(self, msg):
        self.details.append("KNOWN-FAIL: " + msg)
        self.known.append(msg)


def criterion_1():
    c = _Checker("projective spaces pn:1..pn:6")
    for n in range(1, 7):
        ring = rings.projective_space(n)
        c.check(ring.handle_element() == rings.handle_closed_forms(ring)["closed_form"],
                f"pn:{n}: handle equals {n + 1} * H^{n}")
        traj = trajectory(ring, ring.unit())
        c.check(traj.closed and traj.cycle_start == 0 and
                traj.cycle_length == n + 1 and len(traj.states) == n + 1,
                f"pn:{n}: unit orbit is a pure cycle of length {n + 1}")
        comp_ok = exact_complexity(ring, ring.unit(), ring.unit()) == 0 and all(
            exact_complexity(ring, ring.unit(), ring.basis_element(i)) == n + 1 - i
            for i in range(1, n + 1))
        c.check(comp_ok, f"pn:{n}: complexity of H^i from the unit is {n + 1} - i")
        sinf_ok = all((rep := s_infinity(ring, ring.basis_element(i))).exact
                      and rep.points == [] for i in range(n + 1))
        c.check(sinf_ok, f"pn:{n}: s-infinity of every basis state is exactly empty")
        dim_f = rings.dim_f_closed_form(ring)
        c.check(ring.f_span_dim() == dim_f,
                f"pn:{n}: span of handle powers has dimension {dim_f}")
    return c


def criterion_2():
    c = _Checker("quadrics quadric:3..quadric:8")
    for r in range(3, 9):
        ring = rings.quadric(r)
        d = ring.meta["delta"]
        c.check(ring.handle_element() == rings.handle_closed_forms(ring)["closed_form"],
                f"quadric:{r}: handle equals {r + d} s{r} + {r - d} q 1")
        # the handle matrix is D / den, so D has the spectrum times den
        mat, den = ring.handle_matrix()
        got = char_poly(mat)
        c.check(got == poly_from_roots([(2 * r * den, r), (-2 * d * den, d)]),
                f"quadric:{r}: handle spectrum is 2r with multiplicity {r} "
                f"and -2({d}) with multiplicity {d}")
        floats = sym_float_eigs([[x / den for x in row] for row in mat])
        want = sorted([2.0 * r] * r + [-2.0 * d] * d)
        c.check(all(abs(a - b) < 1e-6 for a, b in zip(sorted(floats), want)),
                f"quadric:{r}: float eigenvalues cluster at the exact spectrum")
        dim_f = rings.dim_f_closed_form(ring)
        c.check(ring.f_span_dim() == dim_f,
                f"quadric:{r}: span of handle powers has dimension {dim_f}")
        rep = s_infinity(ring, ring.unit())
        target = ProjState.from_element(ring, ring.element({"1": 1, f"s{r}": 1}))
        c.check(rep.exact and rep.points == [target],
                f"quadric:{r}: s-infinity of the unit is exactly the state 1 + s{r}")
    return c


def criterion_3():
    c = _Checker("grassmannian handle formula, point periodicity, positivity")
    for k, n in STANDARD_GRASSMANNIANS:
        ring = rings.grassmannian(k, n)
        c.check(rings.delta_closed_form(k, n) == ring.handle_element(),
                f"gr:{k},{n}: closed-form handle matches the pairing double sum")
        dd = gcd(k, n)
        c.check(ring.theta_order() == (n // dd, k * (n - k) // dd, 1),
                f"gr:{k},{n}: point class period ({n // dd}, {k * (n - k) // dd}) with unit scalar")
        # the matrix is a / den with den > 0, so a has its signs and symmetry
        a, den = ring.a_matrix()
        sym = all(a[i][j] == a[j][i] for i in range(ring.dim) for j in range(i))
        nonneg = all(x >= 0 for row in a for x in row)
        pd, minors = is_positive_definite((a, den))
        c.check(sym and nonneg and pd and all(v > 0 for v in minors),
                f"gr:{k},{n}: handle/point matrix is symmetric, nonnegative, "
                "positive definite with positive leading minors")
    for n in range(4, 9):
        c.check(rings.delta_gr2_form(n) == rings.grassmannian(2, n).handle_element(),
                f"gr:2,{n}: two-row closed form matches the handle")
    for k, n, dim_h, published in EST_TABLE:
        got = partitions.est_bound(k, n)
        if (k, n) == (3, 9):
            if got == 10 and comb(n, k) == dim_h:
                c.known_discrepancy(
                    "table row gr:3,9 publishes bound 9 but the defining "
                    "formula gives 10; the formula value is kept")
            else:
                c.check(False,
                        f"gr:3,9 known discrepancy changed shape: formula now gives {got}")
        else:
            c.check(got == published and comb(n, k) == dim_h,
                    f"table row gr:{k},{n}: dim {dim_h}, bound {published}")
    return c


def criterion_4():
    c = _Checker("two-row block matrix, simple spectrum, span dimension")
    for n in range(4, 9):
        ring = rings.grassmannian(2, n)
        # the block of the pair (a, den) is den times the block matrix, so
        # each of its eigenvalues is den times one of the block matrix's
        a, den = ring.a_matrix()
        idx = rings.gr2_theta_indices(n)
        sub = [[a[i][j] for j in idx] for i in idx]
        c.check(sub == [[den * x for x in row] for row in rings.gr2_a0_matrix(n)],
                f"gr:2,{n}: restricted handle/point block matches its closed form")
        ch = char_poly(sub)
        c.check(len(squarefree_part(ch)) == len(ch),
                f"gr:2,{n}: block matrix has simple spectrum")
        e0 = [1] + [0] * (len(sub) - 1)
        c.check(krylov_rank(sub, e0) == len(sub),
                f"gr:2,{n}: block matrix is cyclic from the first coordinate")
        dim_f = rings.dim_f_closed_form(ring)
        c.check(ring.f_span_dim() == dim_f,
                f"gr:2,{n}: span of handle powers has dimension {dim_f}")
    return c


def criterion_5():
    c = _Checker("span dimension against the degree-block bound")
    for n in range(4, 9):
        ring = rings.grassmannian(2, n)
        rank = ring.f_span_dim()
        c.check(rank == ring.dim_bound(),
                f"gr:2,{n}: span dimension {rank} meets the bound exactly")
    for k, n in [(3, 6), (3, 8)]:
        ring = rings.grassmannian(k, n)
        rank = ring.f_span_dim()
        c.check(rank <= ring.dim_bound(),
                f"gr:{k},{n}: span dimension {rank} within bound {ring.dim_bound()}, "
                "powers confined to the divisible degree blocks")
    return c


def criterion_6():
    c = _Checker("fano complete intersections: orbits, span, triangular form")
    for m, r in FCI_INSTANCES:
        c.check(rings.euler_characteristic(m, r) == FCI_EULER[(m, r)],
                f"fci:{','.join(map(str, m))};r={r}: euler characteristic "
                f"{FCI_EULER[(m, r)]}")
        ring = rings.fano_ci(m, r)
        meta, name = ring.meta, ring.name
        dim_f, predicted = ring.f_span_dim(), rings.dim_f_closed_form(ring)
        traj = trajectory(ring, ring.unit())
        if meta["tau"] >= 2:
            # the unit orbit is the classes of 1, Delta and H^(jd) for
            # kappa/d < j <= r/d, d = gcd(r, tau); every such instance has kappa >= 1
            d = gcd(r, meta["tau"])
            h = ring.basis_element(1)
            states = [ring.unit(), ring.handle_element()] + [
                ring.power(h, j * d) for j in range(meta["kappa"] // d + 1, r // d + 1)]
            c.check(traj.closed and set(traj.states)
                    == {ProjState.from_element(ring, e) for e in states},
                    f"{name}: unit orbit closes onto exactly the predicted states")
            c.check(dim_f == predicted,
                    f"{name}: span dimension matches the closed form {predicted}")
            continue
        c.check(not traj.closed, f"{name}: unit orbit does not close")
        # a / den is the handle matrix in the descending basis Hhat^r, ..., 1;
        # the predicted entries are scaled by den to match a
        ints, den = ring.handle_matrix()
        a = [[ints[r - i][r - j] for j in range(r + 1)] for i in range(r + 1)]
        alpha, beta, xi, omega = (den * meta[key] for key in ("alpha", "beta", "xi", "omega"))
        triangular = all(a[i][j] == 0 for i in range(r + 1) for j in range(i))
        diagonal = a[0][0] == alpha and all(a[j][j] == beta for j in range(1, r + 1))
        superdiagonal = a[0][1] == omega and all(a[j][j + 1] == xi for j in range(1, r))
        c.check(triangular and diagonal and superdiagonal,
                f"{name}: descending-basis handle matrix is upper triangular "
                "with the predicted diagonal and superdiagonal")
        # the beta-block B (rows and columns 1..r) is one Jordan block:
        # (B - beta I)^(r-1) != 0 = (B - beta I)^r, taken on integers as
        # q B - p I for beta = p / q (q = 1 when the diagonal matches)
        p, q = beta.as_integer_ratio()
        shifted = [[q * a[i][j] - (p if i == j else 0) for j in range(1, r + 1)]
                   for i in range(1, r + 1)]
        power = shifted
        for _ in range(r - 2):
            power = mat_mul(power, shifted)
        c.check(any(x for row in power for x in row)
                and not any(x for row in mat_mul(power, shifted) for x in row),
                f"{name}: (A - beta I)^(r-1) is nonzero")
        c.check(omega != 0 and dim_f == predicted == r + 1,
                f"{name}: omega is nonzero and the span has dimension r + 1")
        a[0][1:] = [0] * r
        e_unit = [0] * r + [1]
        c.check(krylov_rank(a, e_unit) == r,
                f"{name}: synthetic variant with the top row decoupled "
                f"drops the span to r = {r}")
    return c


#: criterion 7's diagonal entries, up to sign; twice each is an integer
_LIMIT_MENU = (Fraction(5), Fraction(4), Fraction(3), Fraction(2),
              Fraction(1), Fraction(1, 2))
#: criterion 7's witness is the state of M^_WITNESS_STEPS z
_WITNESS_STEPS = 200


def _limit_trial(rng, dim):
    """Draw one trial of criterion 7: (diag, p, m, z, far).

    M = P J P^-1 for J = diag(diag) and a random invertible integer P, z a
    nonzero integer vector, and far the class of M^_WITNESS_STEPS z.  All of
    it is built on integers: with (Q, d) = mat_inverse(P), 2J is integral
    and M = P (2J) Q / (2d), given as the pair m = (P (2J) Q, 2d) that
    limit_points_real takes.  P (2J)^s Q z is (2^s d) M^s z, a positive
    multiple, so it is the same projective class.
    """
    diag = [rng.choice(_LIMIT_MENU) * rng.choice([1, -1]) for _ in range(dim)]
    while True:
        p = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        inv = mat_inverse(p)
        if inv is not None:
            break
    q, d = inv
    two_j = [int(2 * x) for x in diag]
    pj = [[x * t for x, t in zip(row, two_j)] for row in p]
    m = (mat_mul(pj, q), 2 * d)
    z = [rng.randint(-4, 4) for _ in range(dim)]
    if not any(z):
        z[0] = 1
    qz = mat_vec(q, z)
    far = ProjState(mat_vec(p, [t ** _WITNESS_STEPS * x for t, x in zip(two_j, qz)]))
    return diag, p, m, z, far


def criterion_7():
    c = _Checker("limit points of random diagonalizable iterations")
    rng = random.Random(90125)
    dim, trials = 6, 100
    bad_counts = bad_witness = 0
    for _ in range(trials):
        _, _, m, z, far = _limit_trial(rng, dim)
        points = limit_points_real(m, z, char_poly(m[0]))
        if not 1 <= len(points) <= 2:
            bad_counts += 1
            continue
        if min(chordal(far, pt) for pt in points) > 1e-6:
            bad_witness += 1
    c.check(bad_counts == 0,
            f"{trials} random 6x6 conjugated diagonal matrices all have "
            "1 or 2 limit points")
    c.check(bad_witness == 0,
            "the step-200 state is within 1e-6 of a reported limit point "
            "in every trial")
    return c


def criterion_8():
    c = _Checker("combinatorial and algebraic property suites")
    shapes = [lam for w in range(1, 7) for lam in partitions.partitions_of(w, w, w)]

    sym_ok = point_ok = mono_ok = True
    mono_pairs = point_pairs = 0
    for i, lam in enumerate(shapes):
        for mu in shapes[i:]:
            exp = partitions.lr_expand(lam, mu, 99)
            sym_ok = sym_ok and exp == partitions.lr_expand(mu, lam, 99)
            nvars = len(lam) + len(mu)
            lhs = schur_value(lam, nvars) * schur_value(mu, nvars)
            rhs = sum(coef * schur_value(nu, nvars) for nu, coef in exp.items())
            point_ok = point_ok and lhs == rhs
            point_pairs += 1
            if sum(lam) + sum(mu) <= 8:
                want = schur_product_expansion(lam, mu, nvars)
                mono_ok = mono_ok and {k: v for k, v in exp.items() if v} == want
                mono_pairs += 1
    c.check(sym_ok, f"product expansion is symmetric on all {point_pairs} shape pairs")
    c.check(point_ok, f"bialternant point evaluation agrees on all {point_pairs} pairs")
    c.check(mono_ok, f"monomial convolution agrees on all {mono_pairs} small pairs")

    two_ok = True
    small = [lam for lam in shapes if len(lam) <= 2 and sum(lam) <= 5]
    for lam in small:
        for nu in small:
            exp = partitions.lr_expand(lam, nu, 2)
            for w in (sum(lam) + sum(nu), sum(lam) + sum(nu) + 1):
                for mu in partitions.partitions_of(w, w, 2):
                    two_ok = two_ok and (partitions.lr_coefficient_len2(lam, nu, mu)
                                         == exp.get(mu, 0))
    c.check(two_ok, "two-row closed form matches the general coefficient")

    count_ok = all(partitions.restricted_count(i, m, l)
                   == len(partitions.partitions_of(i, m, l))
                   for i in range(11) for m in range(6) for l in range(6))
    box_ok = all(sum(partitions.restricted_count(i, m, l)
                     for i in range(m * l + 1)) == comb(m + l, l)
                 for m in range(1, 7) for l in range(1, 7))
    c.check(count_ok and box_ok,
            "restricted partition counts match enumeration and the box identity")

    # each constructor ends in ring.validate() (a cached Grassmannian did when built)
    builds = ([(rings.projective_space, n) for n in range(1, 7)]
              + [(rings.quadric, r) for r in range(3, 9)]
              + [(rings.grassmannian, k, n) for k, n in STANDARD_GRASSMANNIANS]
              + [(rings.fano_ci, m, r) for m, r in FCI_INSTANCES]
              + [(rings.fano_ci, (2,), 3)])
    val_ok = True
    for build, *args in builds:
        try:
            build(*args)
        except ValueError:
            val_ok = False
    c.check(val_ok, f"unit, grading, associativity and pairing checks pass on "
            f"all {len(builds)} standard rings")

    round_ok = True
    trips = 0
    for k in (2, 3):
        for n in range(k + 2, 9):
            kn = k * (n - k)
            basis = partitions.partitions_in_box(k, n - k)
            for r in range(1, kn // n + 1):
                base = (-1) ** (r * (2 * k - r + 1) // 2)
                for nu in basis:
                    if sum(nu) != kn - r * n:
                        continue
                    for idx in combinations(range(1, k + 1), r):
                        sign = base * (-1) ** sum(idx)
                        got = rings.reduce_sigma_hat(k, n, rings.phi_map(k, n, nu, idx))
                        round_ok = round_ok and got == (sign, r, nu)
                        trips += 1
    c.check(round_ok and trips > 0,
            f"reduction inverts the index lift with the predicted sign "
            f"on all {trips} cases (k <= 3, n <= 8)")

    rng = random.Random(2001)
    ch_ok = True
    for dim in range(1, 13):
        m = [[rng.randint(-5, 5) for _ in range(dim)] for _ in range(dim)]
        acc = [[0] * dim for _ in range(dim)]
        for coef in char_poly(m):  # monic with integer coefficients
            acc = mat_mul(acc, m)
            for i in range(dim):
                acc[i][i] += coef
        ch_ok = ch_ok and not any(x for row in acc for x in row)
    c.check(ch_ok, "random matrices up to 12x12 satisfy their characteristic polynomial")
    return c


CRITERIA = [(1, criterion_1), (2, criterion_2), (3, criterion_3),
            (4, criterion_4), (5, criterion_5), (6, criterion_6),
            (7, criterion_7), (8, criterion_8)]


def run_all(only=None):
    """Run the numbered criteria (all by default) and aggregate the records."""
    records = []
    for cid, fn in CRITERIA:
        if only is not None and cid not in only:
            continue
        ch = fn()
        records.append({"id": cid, "name": ch.name, "ok": ch.ok,
                        "details": ch.details, "known_failures": ch.known})
    if not records:
        raise ValueError("no matching criteria")
    return {"ok": all(r["ok"] for r in records),
            "known_failure_count": sum(len(r["known_failures"]) for r in records),
            "criteria": records}


def summary_lines(result):
    """One pass/fail line per criterion."""
    lines = []
    for rec in result["criteria"]:
        status = "PASS" if rec["ok"] else "FAIL"
        note = ""
        if rec["known_failures"]:
            plural = "ies" if len(rec["known_failures"]) > 1 else "y"
            note = f" [{len(rec['known_failures'])} known discrepanc{plural}]"
        lines.append(f"criterion {rec['id']}: {status}{note}  {rec['name']}")
    return lines
