"""Test-only helpers: partition enumeration and an all-pairs associativity check.

The Schur and characteristic-polynomial oracles that the acceptance criteria
share with the tests live in qhandle._oracles.
"""


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
