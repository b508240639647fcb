"""Independent oracles shared by the acceptance criteria and the test suite.

Nothing here touches the package's own code: Schur polynomials are built by
the branching rule on semistandard tableaux, products by monomial-dictionary
convolution on weights packed into ints, Schur values by the bialternant
ratio at integer points, characteristic polynomials from their roots, and
float eigenvalues of symmetric matrices by cyclic Jacobi sweeps.  So
agreement with lr_expand or char_poly is a genuine cross-check.  The module
imports only the standard library, and a test keeps it that way.
"""

import math
from fractions import Fraction
from functools import cache
from itertools import product


@cache
def ssyt_weights(shape, nvars):
    """Multiset of content vectors of semistandard tableaux of the given
    shape with entries in 1..nvars, as {weight tuple: count}.

    By the branching rule (Macdonald I.(5.11)): the entries equal to nvars
    form a horizontal strip lam/mu, so s_lam(x_1..x_n) is the sum over the
    partitions mu with lam_(i+1) <= mu_i <= lam_i and at most n - 1 parts of
    s_mu(x_1..x_(n-1)) x_n^|lam/mu|.
    """
    shape = tuple(shape)
    if len(shape) > nvars:
        return {}
    if not shape:
        return {(0,) * nvars: 1}
    total = sum(shape)
    out = {}
    for mu in product(*(range(lo, hi + 1) for lo, hi in zip(shape[1:] + (0,), shape))):
        inner = tuple(x for x in mu if x)
        strip = total - sum(inner)
        for weight, count in ssyt_weights(inner, nvars - 1).items():
            key = weight + (strip,)
            out[key] = out.get(key, 0) + count
    return out


def schur_product_expansion(lam, mu, nvars):
    """Coefficients of the product s_lam * s_mu as a Schur combination,
    recovered by repeatedly stripping the lexicographically largest weight;
    a strip that leaves that weight (inconsistent weights) raises.

    Each weight is packed into one int in base |lam| + |mu| + 1, the first
    variable most significant.  No exponent of a factor or of the product
    reaches the base, so adding packed ints adds the weights and comparing
    them compares the weights lexicographically."""
    lam, mu = tuple(lam), tuple(mu)
    base = sum(lam) + sum(mu) + 1

    def packed(shape):
        out = {}
        for weight, count in ssyt_weights(shape, nvars).items():
            key = 0
            for e in weight:
                key = key * base + e
            out[key] = count
        return out

    prod = {}
    right = packed(mu)
    for ka, ca in packed(lam).items():
        for kb, cb in right.items():
            prod[ka + kb] = prod.get(ka + kb, 0) + ca * cb
    coeffs = {}
    while prod:
        top = max(prod)
        c = prod[top]
        weight, rest = [], top
        for _ in range(nvars):
            rest, e = divmod(rest, base)
            weight.append(e)
        weight.reverse()
        nu = tuple(x for x in weight if x)
        assert all(nu[i] >= nu[i + 1] for i in range(len(nu) - 1)), (lam, mu, weight)
        coeffs[nu] = c
        for e, cc in packed(nu).items():
            v = prod.get(e, 0) - c * cc
            if v:
                prod[e] = v
            else:
                prod.pop(e, None)
        assert top not in prod, (lam, mu, weight)
    return coeffs


POINTS = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def det_int(rows):
    """Determinant of an integer matrix by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1]


@cache
def _vandermonde(nvars):
    """The bialternant's denominator det(x_i^(nvars-1-j)) at the first nvars primes."""
    return det_int([[x ** (nvars - 1 - j) for j in range(nvars)] for x in POINTS[:nvars]])


@cache
def schur_value(lam, nvars):
    """s_lam evaluated at the first nvars primes, via the bialternant ratio."""
    xs = POINTS[:nvars]
    lam = tuple(lam) + (0,) * (nvars - len(lam))
    num = [[x ** (lam[j] + nvars - 1 - j) for j in range(nvars)] for x in xs]
    d = _vandermonde(nvars)
    n = det_int(num)
    assert n % d == 0
    return n // d


def poly_from_roots(pairs):
    """Monic polynomial with the given (root, multiplicity) pairs, descending."""
    poly = [Fraction(1)]
    for root, mult in pairs:
        root = Fraction(root)
        for _ in range(mult):
            poly = poly + [Fraction(0)]
            for i in range(len(poly) - 1, 0, -1):
                poly[i] -= root * poly[i - 1]
    return poly


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
