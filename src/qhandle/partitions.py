"""Partition and Young-diagram combinatorics.

Box membership, complements, Littlewood-Richardson products by one rule
(lr_expand), restricted partition counts, and the Grassmannian bound estimate.
Partitions are plain tuples of weakly decreasing positive integers; the empty
partition is ().
"""

from functools import cache
from math import comb, gcd


def is_partition(lam) -> bool:
    """True if lam is a weakly decreasing sequence of non-negative integers."""
    lam = tuple(lam)
    if not all(isinstance(a, int) and a >= 0 for a in lam):
        return False
    return all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))


def normalize(lam) -> tuple:
    """Canonical form: tuple with trailing zeros stripped."""
    lam = tuple(lam)
    if not is_partition(lam):
        raise ValueError(f"not a partition: {lam}")
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return lam


def in_box(lam, k: int, m: int) -> bool:
    """True if lam fits inside a k x m box (at most k parts, each at most m)."""
    lam = normalize(lam)
    return len(lam) <= k and (not lam or lam[0] <= m)


def complement(lam, k: int, n: int) -> tuple:
    """Box complement (n-k-lam_k, ..., n-k-lam_1) inside the k x (n-k) box.

    This is the pairing-dual partition: a weight-reversing involution with
    |complement(lam)| = k*(n-k) - |lam|.
    """
    lam = normalize(lam)
    if not in_box(lam, k, n - k):
        raise ValueError(f"{lam} is not inside the {k} x {n - k} box")
    padded = list(lam) + [0] * (k - len(lam))
    return normalize(n - k - padded[i] for i in reversed(range(k)))


def partitions_in_box(k: int, m: int) -> list:
    """All partitions inside a k x m box, sorted by (weight, parts)."""
    return [lam for w in range(k * m + 1) for lam in sorted(partitions_of(w, m, k))]


def partitions_of(w: int, max_part: int, max_len: int) -> list:
    """All partitions of weight w with at most max_len parts, each at most max_part."""
    res = []

    def rec(remaining, cap, prefix):
        if remaining == 0:
            res.append(tuple(prefix))
            return
        if len(prefix) == max_len:
            return
        for a in range(min(cap, remaining), 0, -1):
            prefix.append(a)
            rec(remaining - a, a, prefix)
            prefix.pop()

    rec(w, max_part, [])
    return res


def _gaussian_series(m: int, l: int, top: int) -> list:
    """Coefficients of q^0..q^top of the Gaussian binomial [m+l choose l]_q.

    Taken from the product prod_{j=1..l} (1 - q^(m+j)) / (1 - q^j) as a power
    series truncated after q^top; the caller passes l = min(m, l) so the
    product has the fewer factors.
    """
    series = [1] + [0] * top
    for j in range(1, l + 1):
        for d in range(top, m + j - 1, -1):
            series[d] -= series[d - m - j]
        for d in range(j, top + 1):
            series[d] += series[d - j]
    return series


def restricted_count(i: int, m: int, l: int) -> int:
    """p(i | m, l): the number of partitions of i with at most l parts, each at most m.

    The count is the coefficient of q^i in the Gaussian binomial
    [m+l choose l]_q.  It is symmetric in m and l and under i -> ml - i, so
    the series runs over min(m, l) factors and stops at q^min(i, ml - i).
    """
    if i < 0:
        return 0
    if i == 0:
        return 1
    if m <= 0 or l <= 0 or i > m * l:
        return 0
    i = min(i, m * l - i)
    return _gaussian_series(max(m, l), min(m, l), i)[i]


def est_bound(k: int, n: int) -> int:
    """Dimension-bound estimate (n/gcd(n,k^2)) * sum_i p(i*n | n-k, k) for Gr(k,n).

    The sum runs over 0 <= i <= floor(k(n-k)/n).  It is read in closed form:
    [n choose k]_q = sum_S q^(sum S - k(k-1)/2) over the k-subsets S of
    {0, ..., n-1}, so the sum counts the S with sum S = s = k(k-1)/2 mod n.
    A roots-of-unity filter (the q = zeta evaluation behind cyclic sieving,
    Reiner-Stanton-White 2004) gives that count as
    (1/n) sum_{d | gcd(n,k)} (-1)^(k - k/d) C(n/d, k/d) c_d(s), where
    Ramanujan's sum c_d(s) is fixed by sum_{e | d} c_e(s) = d if d | s, else 0.
    """
    if not 2 <= k <= n - 2:
        raise ValueError("need 2 <= k <= n - 2")
    s, g = k * (k - 1) // 2, gcd(n, k)
    ramanujan, total = {}, 0
    for d in (d for d in range(1, g + 1) if g % d == 0):
        ramanujan[d] = (0 if s % d else d) - sum(c for e, c in ramanujan.items() if d % e == 0)
        sign = -1 if (k - k // d) % 2 else 1
        total += sign * comb(n // d, k // d) * ramanujan[d]
    return (n // gcd(n, k * k)) * (total // n)


def lr_coefficient_len2(lam, nu, mu) -> int:
    """Two-row closed form for C^mu_{lam,nu}; all three partitions of length <= 2.

    Returns 1 iff mu contains lam, |mu| = |lam| + |nu|, nu_1 >= mu_1 - lam_1,
    and mu_2 - lam_1 <= nu_2 <= mu_1 - lam_1; otherwise 0.
    """
    lam, nu, mu = normalize(lam), normalize(nu), normalize(mu)
    if max(len(lam), len(nu), len(mu)) > 2:
        raise ValueError("all inputs must have length <= 2")
    l1, l2 = (lam + (0, 0))[:2]
    n1, n2 = (nu + (0, 0))[:2]
    m1, m2 = (mu + (0, 0))[:2]
    if m1 + m2 != l1 + l2 + n1 + n2:
        return 0
    if not (m1 >= l1 and m2 >= l2):
        return 0
    if n1 < m1 - l1:
        return 0
    if not (m2 - l1 <= n2 <= m1 - l1):
        return 0
    return 1


@cache
def _add_strips(prev, size, max_rows):
    """Partitions reachable from prev by adding a horizontal strip of `size` boxes.

    A horizontal strip adds at most one box per column: new_i <= prev_{i-1}
    for every row i >= 2. Results are capped at max_rows rows. prev must be
    a normalized partition of at most max_rows rows: the recursion then
    builds weakly decreasing nonnegative rows, so each result only needs its
    trailing zeros stripped.  Results are cached, since LR expansion and the
    Grassmannian build ask for the same strips many times; they are tuples so
    that no caller can alter them.
    """
    prevp = list(prev)
    nrows = min(len(prev) + 1, max_rows)
    out = []
    built = []

    def rec(i, remaining):
        if i == nrows:
            if remaining == 0:
                end = len(built)
                while end and not built[end - 1]:
                    end -= 1
                out.append(tuple(built[:end]))
            return
        base = prevp[i] if i < len(prevp) else 0
        hi = base + remaining if i == 0 else min(prevp[i - 1], base + remaining)
        for v in range(base, hi + 1):
            built.append(v)
            rec(i + 1, remaining - (v - base))
            built.pop()

    if size == 0:
        return (prev,)
    rec(0, size)
    return tuple(out)


def lr_expand(lam, mu, max_rows: int) -> dict:
    """Expand s_lam * s_mu as {nu: C^nu_{lam,mu}} over nu with at most max_rows rows.

    Chains of horizontal strips lam = nu^0 <= nu^1 <= ... <= nu^l with
    |nu^i / nu^{i-1}| = mu_i, subject to the lattice condition: for i >= 2 and
    every row j, the strip-i boxes in rows 1..j never outnumber the
    strip-(i-1) boxes in rows 1..j-1.
    """
    lam, mu = normalize(lam), normalize(mu)
    out = {}
    if len(lam) > max_rows:
        return out
    if not mu:
        return {lam: 1}

    def rec(i, cur, prev_strip):
        if i == len(mu):
            out[cur] = out.get(cur, 0) + 1
            return
        for nxt in _add_strips(cur, mu[i], max_rows):
            strip = [nxt[j] - (cur[j] if j < len(cur) else 0) for j in range(len(nxt))]
            if i > 0:
                acc_new, acc_prev, ok = 0, 0, True
                for j in range(len(strip)):
                    acc_new += strip[j]
                    if acc_new > acc_prev:
                        ok = False
                        break
                    if j < len(prev_strip):
                        acc_prev += prev_strip[j]
                if not ok:
                    continue
            rec(i + 1, nxt, strip)

    rec(0, lam, [])
    return out
