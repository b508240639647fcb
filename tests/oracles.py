"""Test-only helpers: partition enumeration, semistandard tableaux filled in
one at a time, an all-pairs associativity check and the pair the generator
check must report, the Littlewood-Richardson build of the Grassmannian
structure constants, modular checks of them and of the handle against Schur
values at the points of the ring, the span of handle powers stepped as
Fraction ring elements, the generator search over Q, the handle as the
pairing double sum, the Fraction reduced row echelon form, the Fraction
forms of the orbit walk, the rational roots and the eigenstructure, and
replaced, a copy of an object with some attributes changed.

The Fraction oracles are the exact algorithms as first written, on rational
arithmetic throughout: an incremental reduced row echelon form
(FractionEchelon) with its rank, determinant, nullspace, solve and inverse; a
first-entry-1 projective state, a Fraction matrix-vector orbit walk, the
Faddeev-LeVerrier characteristic polynomial, rational roots whose
square-free part and multiplicities come from Fraction polynomial division
(poly_divmod, poly_gcd, _synth_div), Jordan ranks and eigenbases from
FractionEchelon on Fraction powers, and limit points from Fraction Jordan
chains on the components of a generalized eigenbasis.  They take nothing
from qhandle.linalg; the float Jacobi sweep of the theta-path oracle comes
from qhandle._oracles.  The library runs the same mathematics on integers,
except that it isolates a component with a cofactor of the characteristic
polynomial instead of an eigenbasis.

The Schur and characteristic-polynomial oracles that the acceptance criteria
share with the tests live in qhandle._oracles.
"""

import copy
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, isqrt, lcm

from qhandle._oracles import _jacobi, det_int
from qhandle.complexity import _float_cluster
from qhandle.frobenius import Element
from qhandle.partitions import lr_expand, partitions_in_box
from qhandle.rings import reduce_sigma_hat


def replaced(obj, **changes):
    """A shallow copy of obj with the given attributes set."""
    out = copy.copy(obj)
    for name, value in changes.items():
        setattr(out, name, value)
    return out


def partitions_up_to(w, max_len=None):
    """All partitions of weight 1..w, optionally with bounded length."""
    out = []

    def rec(rem, largest, cur):
        if rem == 0:
            out.append(tuple(cur))
            return
        for p in range(min(rem, largest), 0, -1):
            if max_len is None or len(cur) < max_len:
                rec(rem - p, p, cur + [p])

    for total in range(1, w + 1):
        rec(total, total, [])
    return out


def tableau_weights(shape, nvars):
    """{weight tuple: count} over the semistandard tableaux of the given shape
    with entries in 1..nvars, each tableau filled in one at a time: the
    reference for qhandle._oracles.ssyt_weights, which sums by the branching
    rule."""
    shape = tuple(shape)
    if not shape:
        return {(0,) * nvars: 1}
    rows = len(shape)
    out = {}

    def fill(r, c, done, cur):
        if r == rows:
            weight = [0] * nvars
            for row in done:
                for x in row:
                    weight[x - 1] += 1
            key = tuple(weight)
            out[key] = out.get(key, 0) + 1
            return
        if c == shape[r]:
            fill(r + 1, 0, done + (tuple(cur),), [])
            return
        lo = cur[c - 1] if c else 1
        if r:
            lo = max(lo, done[r - 1][c] + 1)
        for x in range(lo, nvars + 1):
            fill(r, c + 1, done, cur + [x])

    fill(0, 0, (), [])
    return out


def _mul(structure, x, y):
    """x y at q = 1 for sparse int vectors {index: coefficient}; structure
    maps (i, j), i <= j, to the row {w: int} of e_i e_j at q = 1."""
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for w, c in structure[(a, b) if a <= b else (b, a)].items():
                out[w] = out.get(w, 0) + ca * cb * c
    return {w: c for w, c in out.items() if c}


def associativity_failure(structure, n):
    """First ordered pair (i, j) with (e_i e_j) e_k != e_i (e_j e_k) at q = 1
    for some k, or None.

    Every triple is multiplied out in Python ints (_mul), with no matrices
    and no choice of generators.
    """

    def mul(x, y):
        return _mul(structure, x, y)

    for i in range(n):
        for j in range(n):
            ij = mul({i: 1}, {j: 1})
            for k in range(n):
                if mul(ij, {k: 1}) != mul({i: 1}, mul({j: 1}, {k: 1})):
                    return i, j
    return None


def generator_failure(structure, n, gens):
    """The pair (g, j) that FrobeniusRing._validate_associativity reports, or
    None: the first g in gens, then the least j, with e_g (e_b e_j) !=
    (e_g e_j) e_b at q = 1 for some b.

    Each side is multiplied out in Python ints (_mul), one b at a time.
    """

    def mul(x, y):
        return _mul(structure, x, y)

    for g in gens:
        for j in range(n):
            gj = mul({g: 1}, {j: 1})
            for b in range(n):
                if mul({g: 1}, mul({b: 1}, {j: 1})) != mul(gj, {b: 1}):
                    return g, j
    return None


def lr_structure(k, n):
    """Structure constants of QH*(Gr(k, n)) at q = 1, one LR expansion per pair.

    Same keys and rows as grassmannian(k, n).structure: (i, j), i <= j, maps
    to {w: c} for the Schubert basis in partitions_in_box order.  Each
    classical product is expanded into partitions with at most k rows and
    every term is rim-hook reduced back into the box.  The basis is sorted
    by weight, so for j >= i the lighter factor basis[i] goes second:
    lr_expand adds one horizontal strip per part of its second argument.
    The expansion is symmetric, and the row cap only drops shapes with more
    than k rows, since every shape in a strip chain lies inside the final one.
    """
    basis = partitions_in_box(k, n - k)
    index = {lam: i for i, lam in enumerate(basis)}
    structure = {}
    for i in range(len(basis)):
        for j in range(i, len(basis)):
            row = {}
            for nu, c in lr_expand(basis[j], basis[i], k).items():
                sign, _, mu = reduce_sigma_hat(k, n, nu)
                if mu is not None:
                    row[index[mu]] = row.get(index[mu], 0) + sign * c
            structure[(i, j)] = {w: c for w, c in row.items() if c}
    return structure


@cache
def _schur_points(labels, k, n):
    """(p, parts, values) for the Schur-value checks of a Gr(k, n) ring with
    these labels: the prime p, the partition of each label, and values[J][w]
    = s_w(x_J) mod p for each point J (see schur_value_failure)."""
    p = 2 ** 20 + 1
    while p % (2 * n) != 1 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        p += 1
    z = next(z for z in (pow(a, (p - 1) // (2 * n), p) for a in range(2, p))
             if all(pow(z, d, p) != 1 for d in range(1, 2 * n)))
    roots = [pow(z, m, p) for m in range(2 * n) if m % 2 == (k - 1) % 2]
    parts = [() if label == "1" else tuple(int(x) for x in label[2:-1].split(","))
             for label in labels]
    values = []  # values[J][w] = s_w(x_J) mod p
    for xs in combinations(roots, k):
        inv = pow(det_int([[pow(x, k - i - 1, p) for x in xs] for i in range(k)]), -1, p)
        values.append([
            det_int([[pow(x, lam[i] + k - i - 1, p) for x in xs] for i in range(k)])
            * inv % p
            for lam in (part + (0,) * (k - len(part)) for part in parts)])
    assert det_int(values) % p, "the Schur values are singular mod p"
    return p, parts, values


def schur_value_failure(ring, k, n):
    """First pair (i, j), i <= j, at which the structure constants of a
    Gr(k, n) ring disagree with the Schur values at the points of the ring,
    or None.

    At q = 1, QH*(Gr(k, n)) is semisimple (Siebert-Tian 1997; Rietsch,
    Duke 2001): its points are the k-subsets J of the roots of
    x^n = (-1)^(k-1), and sigma_lam takes the value s_lam(x_J) at J.  So
    sum_w c^w_ij s_w(x_J) = s_i(x_J) s_j(x_J) for every pair and every J.

    The check is modular.  It runs in F_p for the least prime p = 1 mod 2n
    above 2^20, where the roots are odd or even powers of an element of
    order 2n, and takes each s_lam(x_J) as the bialternant
    det(x_j^(lam_i + k - i)) / det(x_j^(k - i)).  It asserts that the
    matrix V[lam, J] of these values is invertible mod p, so agreement
    fixes every c^w_ij mod p; an error by a multiple of p goes unseen.

    It shares no code with the build: each partition is read off the
    ring's labels, and nothing comes from qhandle.partitions or
    qhandle.rings.
    """
    p, _, values = _schur_points(tuple(ring.labels), k, n)
    for (i, j), row in sorted(ring.structure.items()):
        for vals in values:
            if (sum(c * vals[w] for w, c in row.items()) - vals[i] * vals[j]) % p:
                return i, j
    return None


def handle_value_failure(ring, k, n):
    """Index of the first point J, in the order of schur_value_failure's
    points, at which the q = 1 handle element of a Gr(k, n) ring takes the
    wrong value, or None.

    At q = 1 the pairing is <sigma_lam, sigma_mu> = delta(mu, lam^vee), with
    lam^vee the complement of lam in the k x (n - k) box, so the handle is
    sum_lam sigma_lam sigma_(lam^vee) and its value at J is
    sum_lam s_lam(x_J) s_(lam^vee)(x_J).  The check runs mod p on the
    Schur values of schur_value_failure; V is invertible mod p, so agreement
    at every J fixes each q = 1 coefficient of the handle mod p.
    """
    p, parts, values = _schur_points(tuple(ring.labels), k, n)
    index = {part: w for w, part in enumerate(parts)}
    dual = []
    for part in parts:
        padded = part + (0,) * (k - len(part))
        dual.append(index[tuple(x for x in (n - k - y for y in reversed(padded)) if x)])
    coeffs = [c.numerator * pow(c.denominator, -1, p)
              for c in ring.element_vector(ring.handle_element())]
    for at, vals in enumerate(values):
        got = sum(c * v for c, v in zip(coeffs, vals))
        want = sum(v * vals[dual[w]] for w, v in enumerate(vals))
        if (got - want) % p:
            return at
    return None


class FractionEchelon:
    """Incremental exact reduced row echelon form over the rationals.

    Every stored row has pivot 1 and is zero in the pivot columns of the
    other stored rows, so the stored rows are the (unique) RREF of the rows
    added so far, in insertion order. ``det`` is the determinant of the added
    rows when they form a square matrix: the product of the pivots times the
    sign of the pivot permutation, or 0 once an added row was dependent.
    """

    def __init__(self):
        self.rows = []  # (pivot column, vector scaled to pivot 1)
        self.det = Fraction(1)

    @classmethod
    def of(cls, rows):
        ech = cls()
        for row in rows:
            ech.add(row)
        return ech

    def add(self, v):
        """Insert v; returns True if it enlarged the span."""
        # Structure-constant rows are mostly zeros, so the row operations
        # skip zero entries rather than pay for Fraction arithmetic on them.
        v = list(v)
        for piv, row in self.rows:
            f = v[piv]
            if f:
                v = [x - f * y if y else x for x, y in zip(v, row)]
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            self.det = Fraction(0)
            return False
        if sum(q > piv for q, _ in self.rows) % 2:
            self.det = -self.det
        self.det *= v[piv]
        inv = 1 / Fraction(v[piv])
        v = [x * inv if x else x for x in v]
        for k, (q, row) in enumerate(self.rows):
            f = row[piv]
            if f:
                self.rows[k] = (q, [x - f * y if y else x for x, y in zip(row, v)])
        self.rows.append((piv, v))
        return True

    @property
    def rank(self):
        return len(self.rows)

    def nullspace(self, cols):
        """Basis of the vectors of length cols orthogonal to every added row,
        one per free column in ascending order, that entry set to 1."""
        pivots = {piv for piv, _ in self.rows}
        basis = []
        for fc in range(cols):
            if fc in pivots:
                continue
            v = [Fraction(0)] * cols
            v[fc] = Fraction(1)
            for piv, row in self.rows:
                v[piv] = -row[fc]
            basis.append(v)
        return basis


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def fraction_generators(ring):
    """FrobeniusRing._generators as a greedy search over Q.

    In degree order, e_a becomes a generator when it is not in the span of
    the words in the earlier generators applied to the unit; that span is
    then closed under every generator.  Each word is an Element stepped by
    ring.product, and its q = 1 vector goes into a FractionEchelon.
    """
    ech = FractionEchelon()
    words, gens = [], []

    def grow(x):
        if not ech.add(ring.element_vector(x)):
            return False
        words.append(x)
        return True

    grow(ring.unit())
    for a in sorted(range(ring.dim), key=lambda a: ring.degrees[a]):
        if ech.rank == ring.dim:
            break
        if not grow(ring.basis_element(a)):
            continue
        gens.append(a)
        todo = [(g, x) for g in gens for x in words]
        while todo:
            g, x = todo.pop()
            if grow(ring.product(ring.basis_element(g), x)):
                todo.extend((h, words[-1]) for h in gens)
    return gens


def fraction_solve(a, b):
    """One solution x of a x = b (free variables 0), or None if inconsistent."""
    cols = len(a[0]) if a else 0
    x = [Fraction(0)] * cols
    for piv, row in FractionEchelon.of([[*row, bb] for row, bb in zip(a, b)]).rows:
        if piv == cols:
            return None
        x[piv] = row[cols]
    return x


def fraction_inverse(a):
    """Inverse of a square matrix, or None if it is singular."""
    n = len(a)
    ech = FractionEchelon.of([[*row, *(Fraction(int(i == j)) for j in range(n))]
                              for i, row in enumerate(a)])
    if any(piv >= n for piv, _ in ech.rows):
        return None
    return [row[n:] for _, row in sorted(ech.rows)]  # pivots are distinct


def pairing_double_sum(ring):
    """The handle element by its definition, sum over i, j of g^{ij} e_i * e_j:
    g^{ij} is the fraction_inverse of the constant pairing and e_i * e_j a
    ring.product of Elements, so nothing is shared with the trace solve of
    FrobeniusRing.handle_element."""
    n, top = ring.dim, max(ring.degrees)
    assert all(ring.degrees[i] + ring.degrees[j] == top
               for i, row in enumerate(ring.pairing) for j in row), "q-dependent pairing"
    ginv = fraction_inverse([[Fraction(ring.pairing[i].get(j, 0)) for j in range(n)]
                             for i in range(n)])
    assert ginv is not None, "singular pairing"
    out = {}
    for i, row in enumerate(ginv):
        for j, g in enumerate(row):
            if g:
                prod = ring.product(ring.basis_element(i), ring.basis_element(j))
                for key, c in prod.coeffs.items():
                    out[key] = out.get(key, 0) + g * c
    return Element(out)


def element_span_dim(ring):
    """(rank, powers) of Span{Delta^k} at q = 1, as FrobeniusRing.f_span_dim
    returns them, with each power stepped as a Fraction Element by
    ring.product and the V_j (j = 0 mod D_X) check read off the Element's
    support: the span loop as first written."""
    delta = ring.handle_element()
    dx = ring.d_x()
    allowed = {i for i in range(ring.dim) if ring.degrees[i] % dx == 0}
    ech = FractionEchelon()
    powers = []
    cur = ring.unit()
    for k in range(ring.dim):
        if not cur.support() <= allowed:
            raise ValueError(f"handle power {k} leaves the V_j (j = 0 mod D_X) sum")
        if not ech.add(ring.element_vector(cur)):
            break
        powers.append(k)
        cur = ring.product(cur, delta)
    return ech.rank, powers


class FractionProjState:
    """A nonzero rational vector up to scale, first nonzero entry 1."""

    __slots__ = ("vec",)

    def __init__(self, coords):
        coords = tuple(Fraction(x) for x in coords)
        pivot = next((x for x in coords if x != 0), None)
        if pivot is None:
            raise ValueError("the zero vector has no projective class")
        self.vec = tuple(x / pivot for x in coords)

    def floats(self):
        return [float(x) for x in self.vec]

    def __eq__(self, other):
        return isinstance(other, FractionProjState) and self.vec == other.vec

    def __hash__(self):
        return hash(self.vec)


def fraction_mat_vec(a, v):
    return [sum((x * v[j] for j, x in enumerate(row) if x and v[j]), Fraction(0))
            for row in a]


def fraction_mat_mul(a, b):
    return [[sum((x * b[k][j] for k, x in enumerate(row) if x), Fraction(0))
             for j in range(len(b[0]))] for row in a]


def fraction_orbit(mat, vec, kmax):
    """(states, hit_zero, cycle_start, cycle_length) of the orbit of vec."""
    mat = [[Fraction(x) for x in row] for row in mat]
    vec = [Fraction(x) for x in vec]
    seen = {}
    states = []
    for k in range(kmax + 1):
        state = FractionProjState(vec)
        if state in seen:
            return states, False, seen[state], k - seen[state]
        seen[state] = k
        states.append(state)
        vec = fraction_mat_vec(mat, vec)
        if all(x == 0 for x in vec):
            return states, True, None, None
    return states, False, None, None


def faddeev_leverrier(m):
    """Monic characteristic polynomial, descending, by Faddeev-LeVerrier."""
    n = len(m)
    m = [[Fraction(x) for x in row] for row in m]
    coeffs = [Fraction(1)]
    mk = [row[:] for row in m]
    for k in range(1, n + 1):
        ck = -sum(mk[i][i] for i in range(n)) / k
        coeffs.append(ck)
        if k < n:
            for i in range(n):
                mk[i][i] += ck
            mk = fraction_mat_mul(m, mk)
    return coeffs


def poly_deriv(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])] or [Fraction(0)]


def poly_divmod(num, den):
    """(quotient, remainder) of Fraction polynomials, descending, by long
    division; a zero quotient or remainder is [0]."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and not den[0]:
        den = den[1:]
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = []
    while len(num) >= len(den):
        f = num[0] / den[0]
        q.append(f)
        num = [a - f * b for a, b in zip(num, den)] + num[len(den):]
        num = num[1:]
    while num and not num[0]:
        num = num[1:]
    return q or [Fraction(0)], num or [Fraction(0)]


def poly_gcd(a, b):
    """Monic gcd of Fraction polynomials by the Euclidean algorithm; [1]
    when both are zero."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while any(b):
        _, r = poly_divmod(a, b)
        a, b = b, r
    if not any(a):
        return [Fraction(1)]
    return [c / a[0] for c in a]


def _synth_div(coeffs, root):
    """Divide by (x - root); returns (quotient, remainder)."""
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + root * out[-1])
    return out[:-1], out[-1]


def _divisors(n):
    """The positive divisors of n != 0 in increasing order: the prime powers
    of |n| found by trial division, multiplied out."""
    n, divs, d = abs(n), [1], 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            divs = [x * d ** i for x in divs for i in range(e + 1)]
        d += 1 if d == 2 else 2
    if n > 1:
        divs += [x * n for x in divs]
    return sorted(divs)


def fraction_rational_roots(coeffs):
    """linalg.rational_roots on Fractions: (root, multiplicity) pairs.

    Clears denominators, strips zero roots, takes the square-free part, then
    tries p/q with p dividing the constant and q the leading coefficient.
    Multiplicities are read back off the original polynomial.
    """
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and not coeffs[0]:
        coeffs = coeffs[1:]
    if not coeffs:
        raise ValueError("zero polynomial")
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    zero_mult = 0
    while ints and ints[-1] == 0:
        ints.pop()
        zero_mult += 1
    roots = []
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if len(ints) > 1:
        sf, _ = poly_divmod(ints, poly_gcd(ints, poly_deriv(ints)))
        sden = lcm(*(Fraction(c).denominator for c in sf))
        sints = [int(Fraction(c) * sden) for c in sf]
        shrink = gcd(*(abs(c) for c in sints))
        sints = [c // shrink for c in sints]
        deg = len(sints) - 1
        at_one = sum(sints)
        at_minus_one = sum(c if (deg - i) % 2 == 0 else -c
                           for i, c in enumerate(sints))
        found = []
        for q in _divisors(sints[0]):
            qpow = [q ** i for i in range(deg + 1)]
            for p in _divisors(sints[-1]):
                if gcd(p, q) != 1:
                    continue
                for ps in (p, -p):
                    # a root p/q forces (p - q) | f(1) and (p + q) | f(-1)
                    if ps == q:
                        if at_one != 0:
                            continue
                    elif at_one != 0 and at_one % (ps - q) != 0:
                        continue
                    if ps == -q:
                        if at_minus_one != 0:
                            continue
                    elif at_minus_one != 0 and at_minus_one % (ps + q) != 0:
                        continue
                    val = sints[0]
                    for i in range(1, deg + 1):
                        val = val * ps + sints[i] * qpow[i]
                    if val == 0:
                        found.append(Fraction(ps, q))
        for cand in sorted(set(found)):
            mult = 0
            cur = [Fraction(c) for c in ints]
            while True:
                quo, rem = _synth_div(cur, cand)
                if rem:
                    break
                mult += 1
                cur = quo
            if mult:
                roots.append((cand, mult))
    roots.sort(key=lambda t: t[0])
    return roots


def fraction_eigenstructure(m):
    """([(value, multiplicity, blocks, basis)], split) from Fraction powers."""
    n = len(m)
    m = [[Fraction(x) for x in row] for row in m]
    roots = fraction_rational_roots(faddeev_leverrier(m))
    entries = []
    for lam, mult in roots:
        shifted = [[x - lam if i == j else x for j, x in enumerate(row)]
                   for i, row in enumerate(m)]
        ranks = [n]
        power = shifted
        for j in range(mult):
            if j:
                power = fraction_mat_mul(power, shifted)
            ech = FractionEchelon.of(power)
            ranks.append(ech.rank)
        ranks.append(ranks[-1])
        blocks = []
        for j in range(1, mult + 1):
            blocks += [j] * ((ranks[j - 1] - ranks[j]) - (ranks[j] - ranks[j + 1]))
        entries.append((lam, mult, sorted(blocks, reverse=True), ech.nullspace(n)))
    return entries, sum(mult for _, mult in roots) == n


def fraction_limit_points(mat, z):
    """(points, finite_orbit, dominant, depth) of M^k z for a split matrix."""
    n = len(z)
    mat = [[Fraction(x) for x in row] for row in mat]
    z = [Fraction(x) for x in z]
    entries, split = fraction_eigenstructure(mat)
    assert split, "matrix is not split over the rationals"
    owners = [value for value, _, _, basis in entries for _ in basis]
    columns = [b for _, _, _, basis in entries for b in basis]
    coefs = fraction_solve([[col[i] for col in columns] for i in range(n)], z)
    comps = {}
    for value, column, c in zip(owners, columns, coefs):
        acc = comps.setdefault(value, [Fraction(0)] * n)
        for i in range(n):
            acc[i] += c * column[i]
    comps = {v: w for v, w in comps.items() if any(w)}
    magnitudes = [abs(v) for v in comps if v]
    if not magnitudes:
        return [], True, None, 0
    lam = max(magnitudes)
    chains = {}
    for v in (lam, -lam):
        vec = comps.get(v)
        chain = chains[v] = []
        while vec is not None and any(vec):
            chain.append(vec)
            vec = [a - v * b for a, b in zip(fraction_mat_vec(mat, vec), vec)]
    r = max(len(chain) for chain in chains.values())
    parts = [[v ** (1 - r) * x for x in chain[r - 1]]
             for v, chain in chains.items() if len(chain) == r]
    if len(parts) == 1:
        return [FractionProjState(parts[0])], False, lam, r
    points = []
    for cand in ([a + b for a, b in zip(*parts)], [a - b for a, b in zip(*parts)]):
        if any(cand) and FractionProjState(cand) not in points:
            points.append(FractionProjState(cand))
    return points, False, lam, r


def jacobi_theta_points(ring, z):
    """The theta path's limit points of the orbit of the vector z, before the
    visited filter, as first written: z projected onto the eigenvectors of
    the float M^theta (Jacobi) whose |eigenvalue| is the largest within 1e-9,
    theta float steps of M from that projection, each state over its largest
    |entry|, clustered at chordal distance 1e-7."""
    ints, den = ring.handle_matrix()
    theta, _, _ = ring.theta_order()
    power, pden = ring.mult_matrix(ring.power(ring.handle_element(), theta))
    values, vectors = _jacobi([[x / pden for x in row] for row in power], 1e-12)
    top = max(abs(v) for v in values)
    dominant = [vec for val, vec in zip(values, vectors)
                if abs(abs(val) - top) <= 1e-9 * max(1.0, top)]
    fz = [float(x) for x in z]
    proj = [0.0] * len(fz)
    for vec in dominant:
        weight = sum(a * b for a, b in zip(vec, fz))
        for i, a in enumerate(vec):
            proj[i] += weight * a
    fmat = [[x / den for x in row] for row in ints]
    states = []
    cur = proj
    for _ in range(theta):
        norm = max(abs(x) for x in cur)
        states.append(tuple(x / norm for x in cur))
        cur = [sum(r * v for r, v in zip(row, cur)) for row in fmat]
    return _float_cluster(states, 1e-7)
