"""Independent combinatorial oracles used to pin library outputs.

Nothing here touches the package's own Littlewood-Richardson code: Schur
polynomials are built by direct semistandard tableau enumeration and products
by monomial-dictionary convolution, so agreement with lr_expand is a genuine
cross-check.
"""

from functools import cache


@cache
def ssyt_weights(shape, nvars):
    """Multiset of content vectors of semistandard tableaux of the given
    shape with entries in 1..nvars, as {weight tuple: count}."""
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


def poly_mul(a, b):
    """Convolution of two {exponent tuple: coefficient} dictionaries."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def schur_product_expansion(lam, mu, nvars):
    """Coefficients of the product s_lam * s_mu as a Schur combination,
    recovered by repeatedly stripping the lexicographically largest weight."""
    prod = poly_mul(ssyt_weights(tuple(lam), nvars), ssyt_weights(tuple(mu), nvars))
    coeffs = {}
    while prod:
        top = max(prod)
        c = prod[top]
        nu = tuple(x for x in top if x)
        assert all(nu[i] >= nu[i + 1] for i in range(len(nu) - 1)), (lam, mu, top)
        coeffs[nu] = c
        for e, cc in ssyt_weights(nu, nvars).items():
            v = prod.get(e, 0) - c * cc
            if v:
                prod[e] = v
            else:
                prod.pop(e, None)
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
def schur_value(lam, nvars):
    """s_lam evaluated at the first nvars primes, via the bialternant ratio."""
    xs = POINTS[:nvars]
    lam = tuple(lam) + (0,) * (nvars - len(lam))
    num = [[x ** (lam[j] + nvars - 1 - j) for j in range(nvars)] for x in xs]
    den = [[x ** (nvars - 1 - j) for j in range(nvars)] for x in xs]
    d = det_int(den)
    n = det_int(num)
    assert n % d == 0
    return n // d


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


def associativity_failure(structure, n):
    """First ordered pair (i, j) with (e_i e_j) e_k != e_i (e_j e_k) at q = 1
    for some k, or None.

    structure maps (i, j), i <= j, to the row {w: int} of e_i e_j at q = 1.
    Every triple is multiplied out in Python ints, with no matrices and no
    choice of generators.
    """

    def mul(x, y):
        out = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for w, c in structure[(a, b) if a <= b else (b, a)].items():
                    out[w] = out.get(w, 0) + ca * cb * c
        return {w: c for w, c in out.items() if c}

    for i in range(n):
        for j in range(n):
            ij = mul({i: 1}, {j: 1})
            for k in range(n):
                if mul(ij, {k: 1}) != mul({i: 1}, mul({j: 1}, {k: 1})):
                    return i, j
    return None
