"""Exact dense linear algebra over the integers and the rationals.

A rational matrix is the pair (D, d): a list of integer rows D and an int
d > 0 with gcd(d, D) = 1, standing for D / d.  One exact elimination kernel,
Echelon: incremental fraction-free (Bareiss) elimination over the integers.
Ranks, kernel vectors, inverses, determinants, Krylov ranks and leading
principal minors all run it on integer rows; an inverse is the kernel
vectors of [a | -I], returned as a pair.  Sylvester positive-definiteness
certificates read the leading minors off its pivots.

Polynomials are coefficient lists in descending degree, worked over Z.
char_poly is Berkowitz's division-free characteristic polynomial, run on
integer matrices: a rational matrix scaled by d to integers has the
eigenvalues d times its own, so its rational eigenvalues become integers
and multiplicities are kept.  squarefree_part(f) is f / gcd(f, f') over Z,
the gcd taken by the primitive pseudo-remainder sequence, and
rational_roots reads the roots of f off it.  A cheaper certificate that
the characteristic polynomial does not split over Q reads the minimal
polynomial of a Krylov sequence modulo a few small primes (Berlekamp-Massey).
Also a deterministic floating-point Jacobi eigensolver for symmetric
matrices.

Rational roots are found by p-adic lifting, with no factoring (Loos,
"Computing rational zeros of integral polynomials by p-adic expansion",
1983).  The square-free part, made monic over Z, is a polynomial g whose
rational roots are integers y with |y| <= B = 2 max_i 2^ceil(bitlen(g_i) / i),
over the nonzero g_i, i >= 1: Fujiwara's 2 max |g_i|^(1/i), rounded up.  Take
the least odd prime p with gcd(g, g') = 1 mod p; there is one, as only the
finitely many primes that divide the discriminant fail.  Then each root of
g mod p is simple, g'(y) is a unit mod p, and Newton's step y - g(y) / g'(y)
lifts it from mod m to mod m^2 uniquely (Hensel).  An integer root y is
congruent to one of these roots mod p, so it equals the symmetric residue of
that root's lift mod m once m > 2 B; the residues where g vanishes exactly
are all the roots.
"""

import math
from fractions import Fraction


def mat_mul(a, b):
    """Product of two matrices; integer matrices give an integer product."""
    n, m, p = len(a), len(b), len(b[0])
    assert len(a[0]) == m, "shape mismatch"
    out = [[0] * p for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for k in range(m):
            aik = ai[k]
            if not aik:
                continue
            bk = b[k]
            for j in range(p):
                if bk[j]:
                    oi[j] += aik * bk[j]
    return out


def mat_vec(a, v):
    """a v; an integer matrix and vector give an integer vector."""
    support = [(j, x) for j, x in enumerate(v) if x]
    return [sum(row[j] * x for j, x in support) for row in a]


_ZERO = Fraction(0)


class Echelon:
    """Incremental fraction-free row echelon form over the integers: the exact
    elimination kernel (Bareiss 1968).

    Stored row i, with pivot column c_i and pivot p_i = row[c_i], is kept at
    Bareiss stage i: it is zero in c_0 .. c_(i-1), and each entry is the
    (i+1) x (i+1) minor of the added rows 0 .. i on the columns c_0 .. c_(i-1)
    and its own column, so p_i is the minor on c_0 .. c_i.  Adding v applies
    v <- (p_i v - v[c_i] row_i) / p_(i-1) for each stored row in turn.  When
    v[c_i] is 0 that step only rescales v by p_i / p_(i-1), so it is skipped
    and the next real step divides by the last pivot that acted instead of
    p_(i-1); the quotient is again a stage row, so each division is exact.
    A stage row is a nonzero multiple of v reduced against the earlier rows,
    so the pivot columns are those of the reduced row echelon form of the
    added rows in insertion order.  ``det`` is the determinant of the added
    rows when they form a square matrix: the last pivot times the sign of the
    pivot permutation, or 0 once an added row was dependent.
    """

    def __init__(self):
        self.rows = []  # (pivot column, row at its Bareiss stage)
        self.det = 1
        self._sign = 1

    @classmethod
    def of(cls, rows):
        ech = cls()
        for row in rows:
            ech.add(row)
        return ech

    def add(self, v):
        """Insert a row of Python ints; returns True if it enlarged the span."""
        v = list(v)
        if any(type(x) is not int for x in v):
            raise TypeError("Echelon rows must hold Python ints")
        last = prev = 1  # the last pivot that acted; p_(i-1)
        for c, row in self.rows:
            f = v[c]
            prev = row[c]
            if f:
                v = [(prev * x - f * y) // last for x, y in zip(v, row)]
                last = prev
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            self.det = 0
            return False
        if prev != last:
            v = [x * prev // last for x in v]
        if sum(c > piv for c, _ in self.rows) % 2:
            self._sign = -self._sign
        if self.det:
            self.det = self._sign * v[piv]
        self.rows.append((piv, v))
        return True

    @property
    def rank(self):
        return len(self.rows)

    def kernel_vector(self, free, size):
        """The first size entries, as Fractions, of the vector x that every
        added row annihilates with x[free] = 1 and x zero at every other
        non-pivot column; free must not be a pivot column.

        Back substitution over the integers in reverse insertion order: row
        i meets x only at c_i and at columns already fixed, so it fixes
        x[c_i] after x is scaled by p_i / g, g the gcd of p_i and the rest of
        the row's sum, which keeps x integral.
        """
        x = {free: 1}
        for c, row in reversed(self.rows):
            s = 0  # a plain loop: x is often short, and sum() pays per call
            for j, v in x.items():
                s += row[j] * v
            if s:
                p = row[c]
                g = math.gcd(s, p)
                if p != g:
                    x = {j: v * (p // g) for j, v in x.items()}
                x[c] = -s // g
        d = x[free]
        out = [_ZERO] * size
        for j, v in x.items():
            if j < size:
                out[j] = Fraction(v, d)
        return out


def mat_inverse(a):
    """Inverse of a square integer matrix as the pair (Q, d), a^-1 = Q / d,
    or None if a is singular: column j is the kernel vector of [a | -I] that
    is 1 in column n + j."""
    n = len(a)
    ech = Echelon.of([*row, *(-1 if i == j else 0 for j in range(n))]
                     for i, row in enumerate(a))
    if any(c >= n for c, _ in ech.rows):
        return None
    return int_scale(list(zip(*(ech.kernel_vector(n + j, n) for j in range(n)))))


def int_scale(m):
    """Scale a matrix of ints and Fractions by the positive lcm of its
    denominators; returns the pair (integer matrix, multiplier)."""
    den = math.lcm(*(x.denominator for row in m for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in m], den


def char_poly(a):
    """Coefficients of det(x I - a) in descending degree, e.g. [[2,1],[1,2]]
    -> [1, -4, 3] meaning x^2 - 4x + 3; integer for an integer matrix.

    Berkowitz's division-free algorithm: the polynomial of the leading
    (k+1) x (k+1) block is a lower-triangular Toeplitz matrix, with first column
    1, -a_kk, -R S, -R A S, ..., -R A^(k-1) S, times that of the leading k x k
    block A, where R and S are the row and column that border A.
    """
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix must be square")
    sparse = [[(j, x) for j, x in enumerate(row) if x] for row in a]
    poly = [1]
    for k in range(len(a)):
        block = [[(j, x) for j, x in sparse[i] if j < k] for i in range(k)]
        border = [(j, x) for j, x in sparse[k] if j < k]
        col = [a[i][k] for i in range(k)]
        toeplitz = [1, -a[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(x * col[j] for j, x in border))
            col = [sum(x * col[j] for j, x in row) for row in block]
        poly = [sum(toeplitz[i - j] * poly[j] for j in range(min(i, k) + 1))
                for i in range(k + 2)]
    return poly


#: The primes of _non_split_prime, tried in order.  One prime alone can miss:
#: 101 certifies neither gr:2,5 nor gr:3,10, and 103 neither gr:2,6 nor gr:4,8.
_CERT_PRIMES = (101, 103, 107)


def _berlekamp_massey(seq, p):
    """Minimal polynomial over F_p of a linearly recurrent sequence, monic in
    descending degree: the least m = x^L + m_1 x^(L-1) + ... + m_L with
    s_(k+L) + m_1 s_(k+L-1) + ... + m_L s_k = 0 for every k.

    Berlekamp-Massey (Massey 1969) on the connection polynomial
    c(x) = x^L m(1/x).  The answer is exact when seq holds at least 2 L terms.
    """
    c, b = [1], [1]  # ascending; b is c before the last change of L
    order, shift, last = 0, 1, 1
    for i, s in enumerate(seq):
        d = s
        for j in range(1, min(order, len(c) - 1) + 1):
            d += c[j] * seq[i - j]
        d %= p
        if not d:
            shift += 1
            continue
        coef = d * pow(last, -1, p) % p
        prev = list(c)
        c += [0] * (len(b) + shift - len(c))
        for j, x in enumerate(b):
            c[j + shift] = (c[j + shift] - coef * x) % p
        if 2 * order <= i:
            order, b, last, shift = i + 1 - order, prev, d, 1
        else:
            shift += 1
    return (c + [0] * order)[:order + 1]


def _roots_mod_p(m, p):
    """Number of roots in F_p of the polynomial m, counted with multiplicity:
    each residue divides m out by synthetic division while the remainder is
    0 mod p."""
    count = 0
    for r in range(p):
        while len(m) > 1:
            q, rem = _synth_div(m, r)
            if rem % p:
                break
            m = [c % p for c in q]
            count += 1
    return count


def _non_split_prime(a):
    """A prime that proves det(x I - a) does not split over Q, or None.

    a is a square integer matrix, so f = det(x I - a) is monic over Z and a
    split f is a product of factors x - r with r in Z; then f mod p, and each
    of its divisors, splits over F_p.  One divisor is m, the minimal
    polynomial of the sequence w a^k v mod p for fixed vectors w and v and
    k < 2n.  So a prime p at which m has fewer roots in F_p, counted with
    multiplicity, than its degree proves that f does not split; None proves
    nothing.  One walk modulo the product of _CERT_PRIMES serves them all.
    """
    n = len(a)
    mod = math.prod(_CERT_PRIMES)
    rows = [[(j, x % mod) for j, x in enumerate(row) if x % mod] for row in a]
    w = [pow(2, i, mod) for i in range(n)]
    v = [pow(3, i, mod) for i in range(n)]
    seq = []
    for _ in range(2 * n):
        seq.append(sum(x * y for x, y in zip(w, v)))
        v = [sum(x * v[j] for j, x in row) % mod for row in rows]
    for p in _CERT_PRIMES:
        m = _berlekamp_massey([s % p for s in seq], p)
        if _roots_mod_p(m, p) < len(m) - 1:
            return p
    return None


def poly_deriv(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])] or [0]


def _synth_div(coeffs, root):
    """Divide by (x - root); returns (quotient, remainder)."""
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + root * out[-1])
    return out[:-1], out[-1]


def _primitive_part(f):
    """An integer polynomial divided by its content, leading coefficient
    positive."""
    g = math.gcd(*f)
    return [c // g for c in f] if f[0] > 0 else [-c // g for c in f]


def _pseudo_rem(a, b):
    """lc(b)^k a mod b over Z for some k >= 0, without leading zeros ([] for
    zero): each step replaces a by lc(b) a - lc(a) x^i b."""
    a = list(a)
    while len(a) >= len(b):
        c = a[0]
        a = [b[0] * x - c * y for x, y in zip(a[1:], b[1:])] + [b[0] * x for x in a[len(b):]]
        while a and not a[0]:
            del a[0]
    return a


def _exact_quotient(num, den):
    """num / den for integer polynomials where den divides num over Z."""
    num, quo = list(num), []
    for i in range(len(num) - len(den) + 1):
        c = num[i] // den[0]
        quo.append(c)
        for k in range(1, len(den)):
            num[i + k] -= c * den[k]
    return quo


def squarefree_part(f):
    """f / gcd(f, f') for an integer polynomial f with f[0] != 0, primitive
    with positive leading coefficient.  The gcd is the last nonzero term of the
    primitive pseudo-remainder sequence of f and f', a primitive polynomial
    that divides f over Q and so, by Gauss's lemma, over Z."""
    g, r = _primitive_part(f), poly_deriv(f)
    while any(r):
        r = _primitive_part(r)
        g, r = r, _pseudo_rem(g, r)
    return _primitive_part(_exact_quotient(f, g))


def _deflate(f, p, q):
    """f / (q x - p) over Z, or None when q x - p does not divide f."""
    out, carry = [], 0
    for c in f[:-1]:
        c, rem = divmod(c + carry, q)
        if rem:
            return None
        out.append(c)
        carry = p * c
    return out if f[-1] + carry == 0 else None


def _coprime_mod(a, b, p):
    """Whether the integer polynomials a and b are coprime over F_p: their
    Euclidean remainder sequence mod p ends in a nonzero constant."""
    def trim(f):
        f = [x % p for x in f]
        while f and not f[0]:
            del f[0]
        return f

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[0], -1, p)
        while len(a) >= len(b):
            c = a[0] * inv
            a = trim([x - c * y for x, y in zip(a[1:], b[1:])] + a[len(b):])
        a, b = b, a
    return len(a) == 1


def rational_roots(coeffs):
    """All rational roots of an integer polynomial, as (root, multiplicity)
    pairs.

    Strips zero roots and takes the square-free part s = squarefree_part(f).
    With l the leading coefficient of s, the monic g(y) = l^(deg - 1) s(y / l)
    has integer coefficients and the roots y = l x, each an integer.  They
    are found by p-adic lifting (Loos 1983), with no factoring; see the
    module docstring.  A root p/q in lowest terms has multiplicity the number
    of times the primitive q x - p divides f over Z.
    """
    ints = list(coeffs)
    while ints and not ints[0]:
        del ints[0]
    if not ints:
        raise ValueError("zero polynomial")
    zero_mult = 0
    while ints[-1] == 0:
        ints.pop()
        zero_mult += 1
    roots = []
    if zero_mult:
        roots.append((Fraction(0), zero_mult))
    if len(ints) > 1:
        sints = squarefree_part(ints)
        lead = sints[0]
        g = [1] + [c * lead ** (i - 1) for i, c in enumerate(sints) if i]
        dg = poly_deriv(g)
        p = 3
        while not _coprime_mod(g, dg, p):
            p += 2
            while any(p % k == 0 for k in range(3, math.isqrt(p) + 1, 2)):
                p += 2
        # 2 B, with B the rounded Fujiwara bound of the module docstring
        bound = 4 * max(1 << -(-c.bit_length() // i) for i, c in enumerate(g) if i and c)
        found = []
        for y in range(p):
            if _synth_div(g, y)[1] % p:
                continue
            mod = p
            while mod <= bound:
                mod *= mod
                y = (y - _synth_div(g, y)[1] * pow(_synth_div(dg, y)[1], -1, mod)) % mod
            if y > mod // 2:
                y -= mod
            if not _synth_div(g, y)[1]:
                found.append(Fraction(y, lead))
        for cand in sorted(found):
            mult, cur = 0, ints
            while (cur := _deflate(cur, cand.numerator, cand.denominator)) is not None:
                mult += 1
            roots.append((cand, mult))
    roots.sort(key=lambda t: t[0])
    return roots


def is_positive_definite(mat):
    """Sylvester test of the symmetric matrix D / d given as the pair
    mat = (D, d): (verdict, leading principal minors), exact.

    The Echelon pivots of D are its leading principal minors when row k
    pivots in column k for every k.  A zero leading minor moves a pivot
    elsewhere; the minors then come from the determinants of the leading
    blocks.  The k x k minor of D / d is that of D over d^k.
    """
    ints, den = mat
    n = len(ints)
    if any(len(row) != n for row in ints):
        raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(i):
            if ints[i][j] != ints[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    ech = Echelon.of(ints)
    if [c for c, _ in ech.rows] == list(range(n)):
        minors = [Fraction(row[k], den ** (k + 1)) for k, (_, row) in enumerate(ech.rows)]
    else:
        minors = [Fraction(Echelon.of([row[: k + 1] for row in ints[: k + 1]]).det,
                           den ** (k + 1)) for k in range(n)]
    ok = all(d > 0 for d in minors)
    return ok, minors


def krylov_rank(m, v):
    """Rank of the Krylov space {v, M v, M^2 v, ...} of an integer matrix
    and a nonzero integer vector by exact elimination: once a power depends
    on those before it, so do all later ones."""
    if not any(v):
        raise ValueError("Krylov start vector must be nonzero")
    ech = Echelon()
    while ech.add(v):
        v = mat_vec(m, v)
    return ech.rank


def _jacobi(m, tol):
    """Cyclic Jacobi diagonalization; returns (values, row eigenvectors)."""
    n = len(m)
    a = [[float(x) for x in row] for row in m]
    for i in range(n):
        for j in range(i):
            if m[i][j] != m[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i}, {j})")
    v = [[float(i == j) for j in range(n)] for i in range(n)]
    fro = math.sqrt(sum(x * x for row in a for x in row))
    limit = tol * max(1.0, fro)

    def off():
        return math.sqrt(sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j))

    sweeps = 0
    while off() > limit:
        sweeps += 1
        if sweeps > 100:
            raise RuntimeError("Jacobi sweeps did not converge within 100 sweeps")
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p][q]) <= limit / (n * n):
                    continue
                theta = 0.5 * math.atan2(2 * a[p][q], a[q][q] - a[p][p])
                c, s = math.cos(theta), math.sin(theta)
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = c * akp - s * akq
                    a[k][q] = s * akp + c * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = c * apk - s * aqk
                    a[q][k] = s * apk + c * aqk
                for k in range(n):
                    vkp, vkq = v[k][p], v[k][q]
                    v[k][p] = c * vkp - s * vkq
                    v[k][q] = s * vkp + c * vkq
    pairs = sorted(((a[i][i], i) for i in range(n)), key=lambda t: (-t[0], t[1]))
    values = [val for val, _ in pairs]
    vectors = [[v[k][i] for k in range(n)] for _, i in pairs]
    return values, vectors


def sym_float_eigs(m):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi, sorted descending;
    the sweeps stop once the off-diagonal norm is below 1e-12 max(1, ||m||_F)."""
    values, _ = _jacobi(m, 1e-12)
    return values
