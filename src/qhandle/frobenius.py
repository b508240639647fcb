"""Graded Frobenius algebras over Laurent polynomials in the quantum parameter q.

A FrobeniusRing stores an ordered basis with integer (complex) degrees, the
q-degree tau, a pairing matrix with Laurent-polynomial entries, and the full
table of structure constants e_i * e_j as sparse elements. On top of that it
provides the handle element, multiplication matrices, quantum powers, the
point-class order, the graded V_j split, the dimension bound for the span of
handle powers, and that span's exact dimension.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .linalg import Echelon, mat_inverse, mat_rank

# Laurent scalars are sparse maps {exponent: Fraction} with no zero values.


def qp_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, Fraction(0)) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def qp_eval(a, at):
    at = Fraction(at)
    total = Fraction(0)
    for e, c in a.items():
        if e >= 0:
            total += c * at ** e
        else:
            if not at:
                raise ValueError("negative q exponent evaluated at q = 0")
            total += c / at ** (-e)
    return total


class Element:
    """Ring element: sparse map (basis index, q exponent) -> Fraction."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        for key, val in (coeffs or {}).items():
            val = Fraction(val)
            if val:
                self.coeffs[key] = val

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Element) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            s = out.get(key, Fraction(0)) + val
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return Element(out)

    def __neg__(self):
        return Element({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return Element({k: c * v for k, v in self.coeffs.items()}) if c else Element()

    def shift_q(self, d):
        return Element({(w, e + d): v for (w, e), v in self.coeffs.items()})

    def support(self):
        return {w for (w, _) in self.coeffs}

    def terms(self):
        return sorted(self.coeffs.items())

    def __repr__(self):
        return f"Element({self.coeffs!r})"


def _fr_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass
class FrobeniusRing:
    """Graded Frobenius algebra with materialized structure constants."""

    name: str
    labels: list
    degrees: list
    tau: int
    pairing: list  # n x n Laurent scalars
    structure: dict  # (i, j) with i <= j -> Element
    unit_index: int
    point_index: int | None = None
    delta_override: Element | None = None
    meta: dict = field(default_factory=dict)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self):
        return len(self.labels)

    def label_index(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown label {label!r} in ring {self.name}") from None

    def basis_element(self, i):
        return Element({(i, 0): Fraction(1)})

    def unit(self):
        return self.basis_element(self.unit_index)

    def zero(self):
        return Element()

    def element(self, mapping):
        """Build an element from {key: coefficient}.

        A key is a label, a basis index, or a (label or index, q exponent)
        pair; bare keys mean q exponent 0.
        """
        coeffs = {}
        for key, c in mapping.items():
            who, e = key if isinstance(key, tuple) else (key, 0)
            idx = who if isinstance(who, int) else self.label_index(who)
            if not 0 <= idx < self.dim:
                raise ValueError(f"basis index {idx} out of range")
            coeffs[(idx, e)] = coeffs.get((idx, e), Fraction(0)) + Fraction(c)
        return Element(coeffs)

    def _basis_product(self, i, j):
        if i > j:
            i, j = j, i
        return self.structure[(i, j)]

    def product(self, x: Element, y: Element) -> Element:
        out = {}
        for (i, d1), c1 in x.coeffs.items():
            for (j, d2), c2 in y.coeffs.items():
                c = c1 * c2
                for (w, ds), cs in self._basis_product(i, j).coeffs.items():
                    key = (w, d1 + d2 + ds)
                    s = out.get(key, Fraction(0)) + c * cs
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return Element(out)

    def power(self, x: Element, k: int) -> Element:
        if k < 0:
            raise ValueError("negative quantum power")
        acc = self.unit()
        for _ in range(k):
            acc = self.product(acc, x)
        return acc

    def constant_pairing(self):
        """The pairing as a Fraction matrix; error if any entry involves q."""
        g = []
        for row in self.pairing:
            out = []
            for entry in row:
                if any(e != 0 for e in entry):
                    raise ValueError("pairing has q-dependent entries")
                out.append(entry.get(0, Fraction(0)))
            g.append(out)
        return g

    def handle_element(self) -> Element:
        """Handle element: sum over i, j of g^{ij} e_i * e_j.

        g^{ij} is the inverse of the constant pairing, computed once; a
        singular pairing raises ValueError. When a delta override is
        installed (rings whose modeled part cannot see the full pairing), it
        is returned instead.
        """
        if self.delta_override is not None:
            return self.delta_override
        if "handle" in self._cache:
            return self._cache["handle"]
        ginv = mat_inverse(self.constant_pairing())
        if ginv is None:
            raise ValueError("pairing matrix is singular")
        delta = Element()
        for i, row in enumerate(ginv):
            for j, gij in enumerate(row):
                if gij:
                    delta = delta + self._basis_product(i, j).scale(gij)
        self._cache["handle"] = delta
        return delta

    def mult_matrix(self, x: Element, at_q=None):
        """Matrix of quantum multiplication by x; column j is x * e_j.

        With at_q omitted the element must have no negative q exponents and q
        is specialized to 1; pass an explicit at_q to allow Laurent input.
        """
        if at_q is None:
            if any(e < 0 for (_, e) in x.coeffs):
                raise ValueError("negative q exponent; pass an explicit at_q")
            at_q = Fraction(1)
        at_q = Fraction(at_q)
        n = self.dim
        mat = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):
            col = self.product(x, self.basis_element(j))
            for (w, e), c in col.coeffs.items():
                if e >= 0:
                    mat[w][j] += c * at_q ** e
                elif at_q:
                    mat[w][j] += c / at_q ** (-e)
                else:
                    raise ValueError("negative q exponent evaluated at q = 0")
        return mat

    def element_vector(self, x: Element, at_q=Fraction(1)):
        """Coordinates of x with q specialized."""
        vec = [Fraction(0)] * self.dim
        for (w, e), c in x.coeffs.items():
            vec[w] += c * Fraction(at_q) ** e if e >= 0 else c / Fraction(at_q) ** (-e)
        return vec

    def theta_order(self, cap=64):
        """Minimal t >= 1 with [pt]^{*t} = c q^m 1; returns (theta, m).

        The scalar c is cached for pt_inverse. Errors if the ring has no
        designated point class or no such power exists within the cap.
        """
        if "theta" in self._cache:
            return self._cache["theta"][:2]
        if self.point_index is None:
            raise ValueError(f"ring {self.name} has no designated point class")
        pt = self.basis_element(self.point_index)
        cur = pt
        for t in range(1, cap + 1):
            keys = list(cur.coeffs)
            if len(keys) == 1 and keys[0][0] == self.unit_index:
                theta, m, c = t, keys[0][1], cur.coeffs[keys[0]]
                self._cache["theta"] = (theta, m, c)
                return theta, m
            cur = self.product(cur, pt)
        raise ValueError(f"point class of {self.name} has no scalar power within {cap}")

    def pt_inverse(self) -> Element:
        """Inverse of the point class: c^{-1} q^{-m} [pt]^{*(theta-1)}."""
        theta, m = self.theta_order()
        c = self._cache["theta"][2]
        pt = self.basis_element(self.point_index)
        inv = self.power(pt, theta - 1).scale(1 / c).shift_q(-m)
        assert self.product(pt, inv) == self.unit()
        return inv

    def a_matrix(self, weights=None):
        """Matrix of multiplication by Delta/[pt] at q = 1.

        Optional per-label weights conjugate the matrix by diag(weights);
        the default leaves the basis unscaled.
        """
        x = self.product(self.handle_element(), self.pt_inverse())
        mat = self.mult_matrix(x, at_q=Fraction(1))
        if weights is not None:
            w = [Fraction(v) for v in weights]
            mat = [[mat[i][j] * w[j] / w[i] for j in range(self.dim)] for i in range(self.dim)]
        return mat

    def vj_split(self, j):
        """Basis indices with degree congruent to j mod tau."""
        return [i for i in range(self.dim) if self.degrees[i] % self.tau == j % self.tau]

    def top_degree(self):
        return max(self.degrees)

    def d_x(self):
        from math import gcd

        return gcd(self.tau, self.top_degree())

    def dim_bound(self):
        """Upper bound (tau / D_X) * dim V_0 for the span of handle powers."""
        return (self.tau // self.d_x()) * len(self.vj_split(0))

    def f_span_dim(self):
        """Exact dimension of Span{Delta^{*k}} at q = 1, with the power list.

        Also checks that every handle power stays inside the direct sum of
        V_j over j divisible by D_X.
        """
        if any(e < 0 for s in self.structure.values() for (_, e) in s.coeffs):
            raise ValueError("f_span_dim needs non-negative structure q exponents")
        delta = self.handle_element()
        dx = self.d_x()
        allowed = {i for i in range(self.dim) if self.degrees[i] % dx == 0}
        ech = Echelon()
        powers = []
        cur = self.unit()
        for k in range(self.dim):
            if not set(cur.support()) <= allowed:
                raise ValueError(f"handle power {k} leaves the V_j (j = 0 mod D_X) sum")
            if ech.add(self.element_vector(cur)):
                powers.append(k)
            else:
                break
            cur = self.product(cur, delta)
        return ech.rank, powers

    # -- construction-time validation ------------------------------------

    def validate(self):
        """Check pairing symmetry/invertibility, unit, grading, associativity,
        and the Frobenius condition; failures name the offending triple."""
        n = self.dim
        if not (len(self.degrees) == n and len(self.pairing) == n):
            raise ValueError("inconsistent basis sizes")
        for i in range(n):
            for j in range(i, n):
                if (i, j) not in self.structure:
                    raise ValueError(f"missing structure constant ({i}, {j})")
                if self.pairing[i][j] != self.pairing[j][i]:
                    raise ValueError(f"pairing not symmetric at ({i}, {j})")
        for at in (1, 2, 3):
            g = [[qp_eval(e, at) for e in row] for row in self.pairing]
            if mat_rank(g) == n:
                break
        else:
            raise ValueError("pairing not certified invertible at q = 1, 2, 3")
        for j in range(n):
            if self._basis_product(self.unit_index, j) != self.basis_element(j):
                raise ValueError(f"unit law fails on basis element {j}")
        for (i, j), elem in self.structure.items():
            want = self.degrees[i] + self.degrees[j]
            for (w, d), _ in elem.coeffs.items():
                if self.degrees[w] + d * self.tau != want:
                    raise ValueError(f"grading fails in e_{i} * e_{j} at term ({w}, q^{d})")
        self._validate_associativity()
        self._validate_frobenius()

    def _validate_associativity(self):
        n = self.dim
        mats = [self.mult_matrix(self.basis_element(i), at_q=Fraction(1)) for i in range(n)]
        integral = all(x.denominator == 1 for m in mats for row in m for x in row)
        if integral:
            arrs = [np.array([[int(x) for x in row] for row in m], dtype=np.int64) for m in mats]
            peak = max(int(abs(a).max()) for a in arrs) or 1
            if n * peak * peak < 2 ** 62:
                for i in range(n):
                    for j in range(i, n):
                        lhs = arrs[i] @ arrs[j]
                        rhs = np.zeros((n, n), dtype=np.int64)
                        for (w, _), c in self._basis_product(i, j).coeffs.items():
                            rhs += int(c) * arrs[w]
                        if not np.array_equal(lhs, rhs):
                            raise ValueError(f"associativity fails at pair ({i}, {j})")
                return
        from .linalg import mat_mul

        for i in range(n):
            for j in range(i, n):
                lhs = mat_mul(mats[i], mats[j])
                rhs = [[Fraction(0)] * n for _ in range(n)]
                for (w, _), c in self._basis_product(i, j).coeffs.items():
                    for a in range(n):
                        for b in range(n):
                            rhs[a][b] += c * mats[w][a][b]
                if lhs != rhs:
                    raise ValueError(f"associativity fails at pair ({i}, {j})")

    def _pair_all(self, x: Element):
        """Map k -> Laurent value of <x, e_k>."""
        out = {}
        for (w, d), c in x.coeffs.items():
            row = self.pairing[w]
            for k in range(self.dim):
                entry = row[k]
                if entry:
                    add = {e + d: c * v for e, v in entry.items()}
                    out[k] = qp_add(out.get(k, {}), add)
        return {k: v for k, v in out.items() if v}

    def _validate_frobenius(self):
        n = self.dim
        table = {}
        for (i, j), elem in self.structure.items():
            table[(i, j)] = self._pair_all(elem)

        def p3(i, j, k):
            key = (i, j) if i <= j else (j, i)
            return table[key].get(k, {})

        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    if p3(i, j, k) != p3(j, k, i) or p3(i, j, k) != p3(i, k, j):
                        raise ValueError(f"Frobenius condition fails at triple ({i}, {j}, {k})")

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        pairing = []
        for i in range(self.dim):
            for j in range(self.dim):
                if self.pairing[i][j]:
                    laurent = {str(e): _fr_str(c) for e, c in sorted(self.pairing[i][j].items())}
                    pairing.append([i, j, laurent])
        structure = []
        for (i, j) in sorted(self.structure):
            terms = [[w, d, _fr_str(c)] for (w, d), c in self.structure[(i, j)].terms()]
            structure.append([i, j, terms])
        out = {
            "name": self.name,
            "labels": list(self.labels),
            "degrees": list(self.degrees),
            "tau": self.tau,
            "unit": self.unit_index,
            "pairing": pairing,
            "structure": structure,
        }
        if self.point_index is not None:
            out["point"] = self.point_index
        if self.delta_override is not None:
            out["delta_override"] = [[w, d, _fr_str(c)] for (w, d), c in self.delta_override.terms()]
        return out

    @classmethod
    def from_dict(cls, data):
        n = len(data["labels"])
        pairing = [[{} for _ in range(n)] for _ in range(n)]
        for i, j, laurent in data["pairing"]:
            pairing[i][j] = {int(e): Fraction(c) for e, c in laurent.items()}
        structure = {}
        for i, j, terms in data["structure"]:
            structure[(i, j)] = Element({(w, d): Fraction(c) for w, d, c in terms})
        override = None
        if "delta_override" in data:
            override = Element({(w, d): Fraction(c) for w, d, c in data["delta_override"]})
        return cls(
            name=data["name"],
            labels=list(data["labels"]),
            degrees=list(data["degrees"]),
            tau=data["tau"],
            pairing=pairing,
            structure=structure,
            unit_index=data["unit"],
            point_index=data.get("point"),
            delta_override=override,
        )
