"""Exact dense linear algebra over the integers and the rationals.

A rational matrix is the pair (D, d): a list of integer rows D and an int
d > 0 with gcd(d, D) = 1, standing for D / d.  One exact elimination kernel,
Echelon: incremental fraction-free (Bareiss) elimination over the integers.
Ranks, integer kernel vectors with their divisors, inverses, determinants,
Krylov ranks and leading principal minors all run it on integer rows; an
inverse is the kernel vectors of [a | -I], returned as a pair.  Sylvester
positive-definiteness certificates read the leading minors off its pivots.
primitive_powers steps the powers of D / d on a vector exactly, as primitive
integer vectors; the orbit walk and the span of handle powers both read it.

Polynomials are coefficient lists in descending degree, worked over Z.
char_poly is Berkowitz's division-free characteristic polynomial, run on
integer matrices: a rational matrix scaled by d to integers has the
eigenvalues d times its own, so its rational eigenvalues become integers
and multiplicities are kept.  squarefree_part(f) is f / gcd(f, f') over Z,
the gcd taken by the primitive pseudo-remainder sequence, and integer_roots
reads the roots of a monic f off it.  cyclic_char_poly takes the same
polynomial of a block-cyclic matrix, such as a homogeneous
multiplication on a ring graded mod tau, from one Berkowitz run per cycle
of blocks on a matrix of the size of its smallest block.  Everything here
is exact; the float eigensolver behind criterion 2's cross-check lives with
the independent oracles in qhandle._oracles.

The rational roots of a monic integer polynomial, such as det(x I - D), are
integers (the rational root theorem), found by p-adic lifting with no
factoring (Loos, "Computing rational zeros of integral polynomials by p-adic
expansion", 1983).  The square-free part g of a monic f is monic too, as
gcd(f, f') divides f over Z, and its roots are integers y with |y| <= B =
2 max_i 2^ceil(bitlen(g_i) / i), over the nonzero g_i, i >= 1: Fujiwara's
2 max |g_i|^(1/i), rounded up.  Take the least odd prime p such that g'(y)
is a unit mod p at every root y of g mod p; there is one, as every prime
that does not divide the discriminant of g qualifies.  Newton's step
y - g(y) / g'(y) then lifts each of those roots from mod m to mod m^2
uniquely (Hensel): it needs g'(y) to be a unit only at the roots it lifts.
An integer root y reduces to one of these roots mod p, so it equals the
symmetric residue of that root's lift mod m once m > 2 B; the residues
where g vanishes exactly are all the roots.
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
        """The pair (first size entries of y, y[free]) for the primitive
        integer vector y that every added row annihilates, zero at every
        non-pivot column but free; free must not be a pivot column.  So
        y / y[free] is the kernel vector v that is 1 at free.

        Back substitution over the integers in reverse insertion order: row
        i meets y only at c_i and at columns already fixed, so it fixes
        y[c_i] after y is scaled by p_i / g, g the gcd of p_i and the rest of
        the row's sum.  That is the least factor that makes y[c_i] integral,
        so y[free] ends as +- the least common denominator of v, and y is
        primitive.
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
        out = [0] * size
        for j, v in x.items():
            if j < size:
                out[j] = v
        return out, x[free]


def _primitive(ints):
    """The primitive integer vector of the class of an integer vector: divided
    by the gcd, first nonzero entry positive; None for the zero vector."""
    g = math.gcd(*ints)
    if not g:
        return None
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints) if g != 1 else tuple(ints)


def _step(cols, vec):
    """The integer vector sum over j in supp(vec) of vec_j col_j, for a
    square matrix given as sparse columns, cols[j] = [(i, entry), ...]."""
    out = [0] * len(vec)
    for j, x in enumerate(vec):
        if x:
            for i, c in cols[j]:
                out[i] += c * x
    return out


def primitive_powers(mat, vec):
    """Yield the primitive integer vectors of vec, M vec, M^2 vec, ... for a
    matrix M given as the pair mat = (D, d) of integer rows and a positive
    denominator, M = D / d, and a nonzero rational vector, ending before the
    first zero power.

    Each step multiplies the last vector by D = d M, so each vector spans the
    line of the power it stands for.  D is kept as its sparse columns, so a
    step costs one multiply-add per nonzero of the columns in the vector's
    support (_step).  A step is made only when the next vector is asked for.
    """
    cols = [[(i, c) for i, c in enumerate(col) if c] for col in zip(*mat[0])]
    (vec,), _ = int_scale([vec])
    vec = _primitive(vec)
    while vec is not None:
        yield vec
        vec = _primitive(_step(cols, vec))


def mat_inverse(a):
    """Inverse of a square integer matrix as the pair (Q, d), a^-1 = Q / d,
    or None if a is singular: column j is the kernel vector of [a | -I] that
    is 1 in column n + j.  That column is y_j / d_j with y_j primitive
    (kernel_vector), so |d_j| is its least common denominator, and the
    lcm d of those is the matrix's: the pair is the one int_scale gives."""
    n = len(a)
    ech = Echelon.of([*row, *(-1 if i == j else 0 for j in range(n))]
                     for i, row in enumerate(a))
    if any(c >= n for c, _ in ech.rows):
        return None
    cols = [ech.kernel_vector(n + j, n) for j in range(n)]
    den = math.lcm(*(d for _, d in cols))
    return [[col[i] * (den // d) for col, d in cols] for i in range(n)], den


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


def cyclic_char_poly(a, cycles):
    """det(x I - a) for a square integer matrix a that is block-cyclic: its
    indices split into cycles of blocks j_0 -> ... -> j_(c-1) -> j_0, given as
    lists of index lists, and a is zero outside the entries B_t = a[j_(t+1)][j_t]
    from each block into the next.

    Each cycle spans an invariant subspace, so the polynomial is the product
    over the cycles.  With the cycle started at a smallest block, of size
    m_0, the polynomial on a cycle of blocks of sizes m_t is
    x^(sum m_t - c m_0) det(x^c I - P), P = B_(c-1) ... B_0 of size m_0:
    a^c is block-diagonal with the cyclic products of the B_t, which all
    have the nonzero eigenvalues of P with its multiplicities.  Berkowitz
    (char_poly) runs on P alone.
    """
    poly = [1]
    for cycle in cycles:
        c = len(cycle)
        start = min(range(c), key=lambda t: len(cycle[t]))
        cycle = cycle[start:] + cycle[:start]
        m0 = len(cycle[0])
        inner = [1]  # det(y I - P), the 0 x 0 determinant when m_0 = 0
        if m0:
            p = [[1 if i == j else 0 for j in cycle[0]] for i in cycle[0]]
            for t in range(c):
                p = mat_mul([[a[i][j] for j in cycle[t]] for i in cycle[(t + 1) % c]], p)
            inner = char_poly(p)
        out = [0] * (len(poly) + c * m0)
        for i, x in enumerate(poly):
            for k, y in enumerate(inner):
                out[i + c * k] += x * y
        poly = out + [0] * (sum(map(len, cycle)) - c * m0)
    return poly


def poly_deriv(coeffs):
    n = len(coeffs) - 1
    return [c * (n - i) for i, c in enumerate(coeffs[:-1])] or [0]


def _synth_div(coeffs, root):
    """Divide by (x - root); returns (quotient, remainder)."""
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + root * out[-1])
    return out[:-1], out[-1]


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
    """f / gcd(f, f') for an integer polynomial f with f[0] != 0, as a list,
    primitive with positive leading coefficient (_primitive).  The gcd is the
    last nonzero term of the primitive pseudo-remainder sequence of f and f',
    a primitive polynomial that divides f over Q and so, by Gauss's lemma,
    over Z."""
    g, r = _primitive(f), poly_deriv(f)
    while any(r):
        r = _primitive(r)
        g, r = r, _pseudo_rem(g, r)
    return list(_primitive(_exact_quotient(f, g)))


def integer_roots(coeffs):
    """All rational roots of a monic integer polynomial f, as sorted
    (root, multiplicity) pairs; by the rational root theorem each is an int.

    Strips zero roots and lifts the roots of the square-free part g, which
    is monic too, p-adically (Loos 1983), with no factoring: from the roots
    mod p, p the least odd prime where g' is nonzero mod p at each of them,
    found in one scan of the residues per prime tried; see the module
    docstring.  A root y has multiplicity the number of times x - y divides
    f.  Raises ValueError on a polynomial that is not monic.
    """
    if not coeffs or coeffs[0] != 1:
        raise ValueError("polynomial must be monic")
    ints = list(coeffs)
    zero_mult = 0
    while ints[-1] == 0:
        ints.pop()
        zero_mult += 1
    roots = [(0, zero_mult)] if zero_mult else []
    if len(ints) > 1:
        g = squarefree_part(ints)
        dg = poly_deriv(g)
        p = 3
        while True:  # the least odd prime where g' is a unit at each root of g
            residues = [y for y in range(p) if not _synth_div(g, y)[1] % p]
            if all(_synth_div(dg, y)[1] % p for y in residues):
                break
            p += 2
            while any(p % k == 0 for k in range(3, math.isqrt(p) + 1, 2)):
                p += 2
        # 2 B, with B the rounded Fujiwara bound of the module docstring
        bound = 4 * max(1 << -(-c.bit_length() // i) for i, c in enumerate(g) if i and c)
        for y in residues:
            mod = p
            while mod <= bound:
                mod *= mod
                y = (y - _synth_div(g, y)[1] * pow(_synth_div(dg, y)[1], -1, mod)) % mod
            if y > mod // 2:
                y -= mod
            if not _synth_div(g, y)[1]:
                mult, (cur, rem) = 0, _synth_div(ints, y)
                while not rem:
                    mult += 1
                    cur, rem = _synth_div(cur, y)
                roots.append((y, mult))
    return sorted(roots)


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
