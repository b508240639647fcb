"""Constructors for small quantum cohomology rings with exact coefficients,
and the closed forms stated for them.

Covers projective spaces, smooth quadric hypersurfaces, Grassmannians, and
Fano complete intersections in projective space.  Each constructor returns a
validated FrobeniusRing whose ``meta["kind"]`` selects its closed forms in
handle_closed_forms and dim_f_closed_form; the complete-intersection
constructor also keeps its derived constants in ``meta``.  The module only
builds rings and states formulas: checking the one against the other is the
work of qhandle.acceptance.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, factorial, gcd, prod

from .frobenius import Element, FrobeniusRing
from .partitions import (_add_strips, complement, is_partition, lr_expand, normalize,
                         partitions_in_box)

#: Sentinel returned by reduce_sigma_hat for a vanishing class.
ZERO = (0, 0, None)


def projective_space(n):
    """Quantum cohomology of P^n with basis 1, H, ..., H^n and H^(n+1) = q."""
    if n < 1:
        raise ValueError("n must be at least 1")
    labels = ["1" if i == 0 else "H" if i == 1 else f"H^{i}" for i in range(n + 1)]
    degrees = list(range(n + 1))
    pairing = [{n - i: 1} for i in range(n + 1)]
    structure = {(i, j): {(i + j) % (n + 1): 1}
                 for i in range(n + 1) for j in range(i, n + 1)}
    ring = FrobeniusRing(
        name=f"P^{n}", labels=labels, degrees=degrees, tau=n + 1,
        pairing=pairing, structure=structure, unit_index=0, point_index=n,
    )
    ring.meta.update({"kind": "projective", "n": n})
    ring.validate()
    return ring


def quadric(r):
    """Quantum cohomology of a smooth quadric Q^r, r >= 2.

    Products are computed at q = 1 in the presentation by the hyperplane
    class H and, for even r = 2m, the difference D = s_m+ - s_m- of the two
    middle classes: H^(r+i) = 4 q H^i for i >= 1, H D = 0 and
    D D = (-1)^m (H^r - 4 q); the q-powers follow from the grading. The
    middle classes pair diagonally for even m and off-diagonally for odd m,
    so Q^4 is Gr(2, 4) with s2+, s2- the classes s[2], s[1,1].
    """
    if r < 2:
        raise ValueError("r must be at least 2")
    m = r // 2
    even = r % 2 == 0
    if even:
        labels = ["1" if a == 0 else "H" if a == 1 else f"s{a}" for a in range(m)]
        degrees = list(range(m))
        plus, minus = len(labels), len(labels) + 1
        labels += [f"s{m}+", f"s{m}-"]
        degrees += [m, m]
        upper = {}
        for a in range(m + 1, r + 1):
            upper[a] = len(labels)
            labels.append(f"s{a}")
            degrees.append(a)

        def h_index(a):
            return a if a < m else upper[a]
    else:
        labels = ["1" if a == 0 else "H" if a == 1 else f"s{a}" for a in range(r + 1)]
        degrees = list(range(r + 1))
        plus = minus = None

        def h_index(a):
            return a

    dim = len(labels)
    dd_sign = -1 if m % 2 else 1

    def c_scalar(a):
        # sigma_a = c_a H^a away from the top and middle classes
        return Fraction(1) if 2 * a <= r - 1 else Fraction(1, 2)

    def rep(i):
        # presentation coordinates {term: coeff} at q = 1: term e for H^e,
        # "D" for the middle difference class
        if even and i == plus:
            return {m: Fraction(1, 2), "D": Fraction(1, 2)}
        if even and i == minus:
            return {m: Fraction(1, 2), "D": Fraction(-1, 2)}
        a = degrees[i]
        if a == r:
            return {r: Fraction(1, 2), 0: Fraction(-1)}
        return {a: c_scalar(a)}

    def mul(x, y):
        out = {}

        def put(term, c):
            out[term] = out.get(term, Fraction(0)) + c

        for t1, c1 in x.items():
            for t2, c2 in y.items():
                c = c1 * c2
                if t1 == "D" and t2 == "D":
                    put(r, dd_sign * c)
                    put(0, -4 * dd_sign * c)
                elif t1 == "D" or t2 == "D":
                    if (t2 if t1 == "D" else t1) == 0:
                        put("D", c)
                elif t1 + t2 > r:
                    put(t1 + t2 - r, 4 * c)
                else:
                    put(t1 + t2, c)
        return out

    def to_row(x):
        row = {}

        def put(i, c):
            row[i] = row.get(i, Fraction(0)) + c

        for term, c in x.items():
            if term == "D":
                put(plus, c)
                put(minus, -c)
            elif term == r:
                put(h_index(r), 2 * c)
                put(0, 2 * c)
            elif even and term == m:
                put(plus, c)
                put(minus, c)
            else:
                put(h_index(term), c / c_scalar(term))
        # a non-integral constant stays a Fraction, which validate rejects
        return {w: c.numerator if c.denominator == 1 else c for w, c in row.items() if c}

    reps = [rep(i) for i in range(dim)]
    structure = {(i, j): to_row(mul(reps[i], reps[j]))
                 for i in range(dim) for j in range(i, dim)}

    diagonal = even and m % 2 == 0
    pairing = [{} for _ in range(dim)]
    for a in range(r + 1):
        if not (even and a == m):
            pairing[h_index(a)][h_index(r - a)] = 1
    if even:
        middle = ((plus, plus), (minus, minus)) if diagonal else ((plus, minus), (minus, plus))
        for a, b in middle:
            pairing[a][b] = 1

    ring = FrobeniusRing(
        name=f"Q^{r}", labels=labels, degrees=degrees, tau=r,
        pairing=pairing, structure=structure, unit_index=0,
        point_index=h_index(r),
    )
    ring.meta.update({
        "kind": "quadric", "r": r, "delta": 1 if r % 2 else 2,
        "middle_pairing": "diagonal" if diagonal else "offdiagonal",
    })
    ring.validate()
    return ring


def reduce_sigma_hat(k, n, I):
    """Reduce a generalized class indexed by an integer tuple to +-q^s sigma_lam.

    Returns (sign, q_power, partition) with partition in the k x (n-k) box,
    or ZERO = (0, 0, None) when the class vanishes.  Each entry is shifted
    down by n into the window [i-k, i-k+n), contributing q per shift and a
    global sign (-1)^(shifts*(k+1)); entries below the window floor and
    colliding entries give zero; sorting the shifted entries contributes the
    exchange parity.
    """
    if k < 1 or n <= k:
        raise ValueError("need 1 <= k < n")
    vals = [int(x) for x in I]
    while vals and vals[-1] == 0:
        vals.pop()
    if len(vals) > k:
        if is_partition(tuple(vals)):
            return ZERO
        raise ValueError("tuples longer than k must be partitions")
    vals += [0] * (k - len(vals))
    shifts = 0
    for i in range(1, k + 1):
        lo = i - k
        v = vals[i - 1]
        while v >= lo + n:
            v -= n
            shifts += 1
        if v < lo:
            return ZERO
        vals[i - 1] = v
    c = [vals[i] - (i + 1) for i in range(k)]
    if len(set(c)) < k:
        return ZERO
    sign = -1 if (shifts * (k + 1)) % 2 else 1
    for a in range(k):
        for b in range(k - 1 - a):
            if c[b] < c[b + 1]:
                c[b], c[b + 1] = c[b + 1], c[b]
                sign = -sign
    lam = normalize(tuple(c[j] + (j + 1) for j in range(k)))
    return (sign, shifts, lam)


@cache
def _gr_basis(k, n):
    basis = partitions_in_box(k, n - k)
    return basis, {lam: i for i, lam in enumerate(basis)}


def _gr_label(lam):
    return "1" if not lam else "s[" + ",".join(str(p) for p in lam) + "]"


def _schubert_matrices(k, n):
    """Matrices L_lam of multiplication by sigma_lam at q = 1, one per basis
    partition: mats[i] is L_basis[i] as a list of sparse columns {w: c},
    where column j is the row e_i * e_j of the structure constants.

    The Seidel shift S = L_(n-k) comes first.  At q = 1 it is a permutation
    matrix: column j is the one class perm[j] with coefficient +1 (Seidel
    1997; Postnikov, "Affine approach to quantum Schubert calculus", Duke
    2005), and the build raises AssertionError if it is not.  Every L_lam
    commutes with S, so column perm[j] of L_lam is S times column j, that is
    column j with each row w moved to perm[w].  So each matrix below computes
    one column per cycle of perm, its first, and fills the rest of the cycle
    from it (orbit_fill).

    Column j of L_(p) is the reduced sum of the strips of p boxes on
    basis[j].  Column j of L_(lam_1) L_lam' is the sum of c * (column v of
    L_(lam_1)) over the terms c e_v of column j of L_lam'.  Column j of L_i
    is column i of L_j, since the ring is commutative, so a column whose
    matrix L_j is already built is the same dict as that column, not a sum
    or a shift.  A column keeps its terms in the order the sum or the shift
    met them.  Each partition outside the box is reduced (reduce_sigma_hat)
    once per build.
    """
    basis, index = _gr_basis(k, n)
    dim = len(basis)
    mats = [None] * dim
    mats[0] = [{j: 1} for j in range(dim)]

    memo = {}

    def reduced(nu):
        if nu in index:
            return 1, index[nu]
        if nu not in memo:
            sign, _, mu = reduce_sigma_hat(k, n, nu)
            memo[nu] = (sign, index[mu]) if mu is not None else None
        return memo[nu]

    def pieri(p, j):
        col = {}
        for nu in _add_strips(basis[j], p, k):
            term = reduced(nu)
            if term is not None:
                col[term[1]] = col.get(term[1], 0) + term[0]
        return {w: c for w, c in col.items() if c}

    shift = [pieri(n - k, j) for j in range(dim)]
    perm = [w for col in shift for w in col]
    if any(list(col.values()) != [1] for col in shift) or len(set(perm)) < dim:
        raise AssertionError(f"sigma_{n - k} is not a permutation of the basis of Gr({k},{n})")
    mats[index[(n - k,)]] = shift
    cycles, seen = [], set()
    for j in range(dim):
        if j not in seen:
            cycle = [j]
            while perm[cycle[-1]] != j:
                cycle.append(perm[cycle[-1]])
            seen.update(cycle)
            cycles.append(cycle)

    def orbit_fill(i, first):
        cols = [None] * dim
        for cycle in cycles:
            col = None
            for j in cycle:
                if mats[j] is not None:
                    col = mats[j][i]
                elif col is None:
                    col = first(j)
                else:
                    col = {perm[w]: c for w, c in col.items()}
                cols[j] = col
        return cols

    for p in range(1, n - k):
        mats[index[(p,)]] = orbit_fill(index[(p,)], lambda j: pieri(p, j))
    for lam in sorted((lam for lam in basis if len(lam) > 1),
                      key=lambda lam: (sum(lam), -lam[0])):
        i, a, b = index[lam], mats[index[lam[:1]]], mats[index[lam[1:]]]
        terms = [reduced(nu) for nu in _add_strips(lam[1:], lam[0], k) if nu != lam]
        terms = [(sign, mats[w]) for sign, w in filter(None, terms)]

        def product(j):
            col = {}
            for v, c in b[j].items():
                for w, d in a[v].items():
                    col[w] = col.get(w, 0) + c * d
            for sign, m in terms:
                for w, d in m[j].items():
                    col[w] = col.get(w, 0) - sign * d
            return {w: c for w, c in col.items() if c}

        mats[i] = orbit_fill(i, product)
    return mats


@cache
def grassmannian(k, n):
    """Quantum cohomology of Gr(k, n) in the Schubert basis.

    The products come from quantum Pieri (Bertram, Adv. Math. 1997) and the
    ring homomorphism Lambda_k -> QH*(Gr(k, n)) of Bertram, Ciocan-Fontanine
    and Fulton (1999), which sends s_lam to its rim-hook reduction
    (reduce_sigma_hat) and h_p to sigma_p.  One integer matrix L_lam of
    multiplication by sigma_lam at q = 1 is built per basis partition:

    - L_() = I;
    - L_(p), p = 1..n-k: column j is the reduced sum of the partitions with
      at most k rows reached from basis[j] by a horizontal strip of p boxes
      (Pieri's rule h_p s_mu = sum of s_nu, pushed through the map);
    - any other lam = (lam_1, lam'), taken in order of (|lam|, -lam_1):
      h_lam_1 s_lam' is s_lam plus s_eta over the other strips eta of lam_1
      boxes on lam', so L_lam = L_(lam_1) L_lam' - sum of +-L_red(eta).

    The recursion is well-founded.  A strip eta on lam' has eta_i <= lam'_(i-1)
    = lam_i for i >= 2, so |eta| = |lam| forces eta_1 > lam_1 unless eta =
    lam.  Such an eta inside the box comes earlier in the order; one outside
    it reduces to a lower weight or vanishes.  Column j of L_i, for i <= j,
    is the row e_i * e_j of the structure constants, the same dict.  Each
    matrix is a list of sparse integer columns, so the build holds only the
    nonzeros (_schubert_matrices).

    Most columns are fixed by a symmetry.  At q = 1 multiplication by
    sigma_(n-k) sends each Schubert class to one Schubert class with
    coefficient +1 (Seidel 1997; Postnikov, "Affine approach to quantum
    Schubert calculus", Duke 2005): to (n-k, lam_1, ..., lam_(k-1)) when
    lam_k = 0 and to (lam_1 - 1, ..., lam_k - 1) otherwise.  The ring is
    commutative and associative, so every L_lam commutes with this
    permutation S, and L_lam e_perm(j) = S L_lam e_j.  So one column per
    cycle of the permutation is computed, and the others are that column
    with its rows permuted.  validate() still checks the whole ring.
    """
    if not 2 <= k <= n - 2:
        raise ValueError("need 2 <= k <= n - 2")
    basis, index = _gr_basis(k, n)
    dim = len(basis)
    labels = [_gr_label(lam) for lam in basis]
    degrees = [sum(lam) for lam in basis]
    pairing = [{index[complement(lam, k, n)]: 1} for lam in basis]
    structure = {(i, j): cols[j]
                 for i, cols in enumerate(_schubert_matrices(k, n)) for j in range(i, dim)}
    ring = FrobeniusRing(
        name=f"Gr({k},{n})", labels=labels, degrees=degrees, tau=n,
        pairing=pairing, structure=structure, unit_index=0,
        point_index=index[(n - k,) * k],
    )
    ring.meta.update({"kind": "grassmannian", "k": k, "n": n})
    ring.validate()
    return ring


def phi_map(k, n, nu, I):
    """Lift (nu, I) to the length-k partition indexing its reduction preimage.

    nu is a partition with at most k rows, I a strictly increasing tuple of
    row positions in [1, k].  The j-th entry is nu_{i_j} - i_j + j + n for
    j <= r; later entries interleave shifted parts of nu.
    """
    nu = tuple(nu)
    if len(nu) > k:
        raise ValueError("nu has more than k rows")
    nu = nu + (0,) * (k - len(nu))
    I = tuple(int(x) for x in I)
    r = len(I)
    if r < 1 or any(I[t] >= I[t + 1] for t in range(r - 1)) or I[0] < 1 or I[-1] > k:
        raise ValueError("I must be strictly increasing inside [1, k]")
    idx = (0,) + I
    phi = []
    for j in range(1, k + 1):
        if j <= r:
            ij = I[j - 1]
            phi.append(nu[ij - 1] - ij + j + n)
        elif j - r > I[-1] - r:
            phi.append(nu[j - 1])
        else:
            t = j - r
            for l in range(1, r + 1):
                if idx[l - 1] - l + 2 <= t <= idx[l] - l:
                    phi.append(nu[j - r + l - 2] + r - l + 1)
                    break
            else:
                raise AssertionError("interleaving windows must cover j")
    assert all(phi[t] >= phi[t + 1] for t in range(k - 1)), "phi must be a partition"
    return normalize(tuple(phi))


def delta_closed_form(k, n):
    """Handle element of Gr(k, n) assembled from the closed combinatorial formula.

    chi(X) [pt] plus, for each q-power r and each nu of weight k(n-k) - rn,
    the signed sum over row sets I of the coefficients of phi_map(nu, I) in
    the products sigma_lam * sigma_{complement(lam)}.
    """
    basis, index = _gr_basis(k, n)
    kn = k * (n - k)
    expansions = [lr_expand(lam, complement(lam, k, n), k) for lam in basis]
    coeffs = {(index[(n - k,) * k], 0): Fraction(comb(n, k))}
    for r in range(1, kn // n + 1):
        base_sign = -1 if (r * (2 * k - r + 1) // 2) % 2 else 1
        for nu in basis:
            if sum(nu) != kn - r * n:
                continue
            total = 0
            for I in combinations(range(1, k + 1), r):
                phi = phi_map(k, n, nu, I)
                sign = base_sign * (-1 if sum(I) % 2 else 1)
                total += sign * sum(exp.get(phi, 0) for exp in expansions)
            if total:
                coeffs[(index[nu], r)] = Fraction(total)
    return Element(coeffs)


def delta_gr2_form(n):
    """Handle element of Gr(2, n) in its short two-row form."""
    if n < 4:
        raise ValueError("need n >= 4")
    _, index = _gr_basis(2, n)
    coeffs = {(index[(n - 2, n - 2)], 0): Fraction(n * (n - 1), 2)}
    for s in range(1, (n - 2) // 2 + 1):
        lam = normalize((n - 3 - s, s - 1))
        coeffs[(index[lam], 1)] = Fraction(n * (n - 2 * s - 1), 2)
    return Element(coeffs)


def gr2_b_values(n):
    """Column constants b_i = n(n+1)/2 - i n, i = 1..floor(n/2), for Gr(2, n)."""
    return [Fraction(n * (n + 1), 2) - i * n for i in range(1, n // 2 + 1)]


def gr2_a0_matrix(n):
    """Predicted block of the handle-over-point matrix of Gr(2, n) on the
    degree-0 residue classes: entries (2 min(i,j) - 1) b_max(i,j)."""
    b = gr2_b_values(n)
    m = n // 2
    return [[(2 * min(i, j) + 1) * b[max(i, j)] for j in range(m)] for i in range(m)]


def gr2_theta_indices(n):
    """Basis indices of 1, s[n-2,2], ..., s[n-m,m] in Gr(2, n) order."""
    _, index = _gr_basis(2, n)
    return [index[()]] + [index[(n - j, j)] for j in range(2, n // 2 + 1)]


def euler_characteristic(m, r):
    """Euler characteristic of a smooth complete intersection of multidegree
    m in P^(r + len(m)), computed from the Chern series of its tangent bundle."""
    m = tuple(int(x) for x in m)
    L = len(m)
    series = [Fraction(comb(r + L + 1, j)) for j in range(r + 1)]
    for mi in m:
        out = []
        prev = Fraction(0)
        for a in series:
            prev = a - mi * prev
            out.append(prev)
        series = out
    chi = prod(m) * series[r]
    assert chi.denominator == 1
    return int(chi)


def fano_ci(m, r):
    """Subring of the quantum cohomology of a Fano complete intersection of
    multidegree m = (m_1, ..., m_L) and dimension r >= 3 generated by the
    hyperplane class.

    For Fano index tau >= 2 the basis is 1, H, ..., H^r with
    H^(r+i) = (prod m_i^m_i) q H^(kappa+i); for tau = 1 the shifted class
    Hhat = H + (prod m_i!) q is used instead, with
    Hhat^(r+i) = (prod m_i^m_i)^i q^i Hhat^r.  The handle element is
    installed from its closed form since the basis spans only the
    ambient-induced part of the cohomology.  The ring's meta keeps m, r and
    the derived constants: tau, kappa, chi, the m-products mprod, mfact and
    mpow and, for tau = 1, zeta and the handle matrix's diagonal (alpha, then
    beta) and superdiagonal (omega, then xi) in the basis Hhat^r, ..., 1.
    """
    m = tuple(int(x) for x in m)
    if r < 3:
        raise ValueError("r must be at least 3")
    if not m or any(mi < 2 for mi in m):
        raise ValueError("all degrees must be at least 2")
    L = len(m)
    total = sum(m)
    if total > r + L:
        raise ValueError("not Fano: need sum(m) <= r + len(m)")
    tau = r + L + 1 - total
    kappa = r - tau
    chi = euler_characteristic(m, r)
    mprod = prod(m)
    mfact = prod(factorial(mi) for mi in m)
    mpow = prod(mi ** mi for mi in m)
    hat = tau == 1
    stem = "Hhat" if hat else "H"
    labels = ["1" if a == 0 else stem if a == 1 else f"{stem}^{a}" for a in range(r + 1)]
    degrees = list(range(r + 1))

    structure = {}
    for i in range(r + 1):
        for j in range(i, r + 1):
            e, c = i + j, 1
            while e > r:
                e -= tau
                c *= mpow
            structure[(i, j)] = {e: c}

    # <H^a, H^b> = mprod mpow^s q^s where a + b = r + s tau; q^s is read off the grading
    pairing = [{r - a + s * tau: mprod * mpow ** s for s in range(a // tau + 1)}
               for a in range(r + 1)]

    constants = {"mprod": mprod, "mfact": mfact, "mpow": mpow}
    if hat:
        zeta = Fraction((r + 1 - chi) * (mpow - mfact), mprod)
        coeffs = {(r, 0): Fraction(chi, mprod)}
        for j in range(1, r + 1):
            c = zeta - (Fraction(mpow * r, mprod) if j == 1 else 0)
            coeffs[(r - j, j)] = c * mfact ** (j - 1)
        delta = Element(coeffs)
        constants.update({
            "zeta": zeta,
            "alpha": Fraction(mpow ** r - (r + 1 - chi) * mfact ** r, mprod),
            "beta": zeta * mfact ** (r - 1),
            "xi": zeta * mfact ** (r - 2),
            "omega": Fraction(mpow ** (r - 1) - (r + 1 - chi) * mfact ** (r - 1), mprod),
        })
    else:
        delta = Element({
            (r, 0): Fraction(chi, mprod),
            (kappa, 1): Fraction((tau - chi) * mpow, mprod),
        })

    ring = FrobeniusRing(
        name="X(" + ",".join(str(x) for x in m) + f";r={r})",
        labels=labels, degrees=degrees, tau=tau,
        pairing=pairing, structure=structure, unit_index=0,
        point_index=None, delta_override=delta,
    )
    ring.meta.update({"kind": "fano_ci", "m": m, "r": r, "tau": tau,
                      "kappa": kappa, "chi": chi, **constants})
    ring.validate()
    return ring


def handle_closed_forms(ring):
    """Closed forms of the handle element of a built-in ring, by meta["kind"].

    Returns {name: Element}: (n+1) H^n on P^n; (r+delta) s_r + (r-delta) q on
    Q^r; the index-lift sum on Gr(k, n), plus the two-row form when k = 2;
    on a fano_ci ring the installed override, which agrees with
    handle_element() by construction.  A ring without a kind gets {}.
    """
    meta = ring.meta
    kind = meta.get("kind")
    if kind == "projective":
        n = meta["n"]
        return {"closed_form": ring.element({ring.labels[n]: n + 1})}
    if kind == "quadric":
        r, d = meta["r"], meta["delta"]
        return {"closed_form": ring.element({f"s{r}": r + d, ("1", 1): r - d})}
    if kind == "grassmannian":
        k, n = meta["k"], meta["n"]
        forms = {"index_lift_sum": delta_closed_form(k, n)}
        if k == 2:
            forms["two_row_form"] = delta_gr2_form(n)
        return forms
    if kind == "fano_ci":
        return {"closed_form": ring.delta_override}
    return {}


def dim_f_closed_form(ring):
    """Closed-form dim F of a built-in ring by meta["kind"], or None where
    there is none: Gr(k, n) with k > 2, fano_ci with tau >= 2 and kappa = 0,
    and a ring without a kind."""
    meta = ring.meta
    kind = meta.get("kind")
    if kind == "projective":
        return meta["n"] + 1
    if kind == "quadric":
        return 2
    if kind == "grassmannian":
        n = meta["n"]
        return (n // gcd(4, n)) * (n // 2) if meta["k"] == 2 else None
    if kind != "fano_ci":
        return None
    tau, kappa, chi, r = meta["tau"], meta["kappa"], meta["chi"], meta["r"]
    if tau >= 2:
        # kappa = 0 collapses the handle into Span{1, H^r}, so the
        # independence count behind this formula needs kappa >= 1
        if kappa < 1:
            return None
        return (1 if tau == chi else 2) + tau // gcd(r, tau)
    if chi == r + 1:
        return 3
    return r + 1 if meta["omega"] != 0 else r

