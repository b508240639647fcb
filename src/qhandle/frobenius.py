"""Graded Frobenius algebras over the quantum parameter q.

A FrobeniusRing stores an ordered basis with integer (complex) degrees, the
q-degree tau, the pairing as sparse rows of nonzero rationals, and the full
table of structure constants e_i * e_j as sparse rows of integers. No q-power
is stored: the grading fixes it, as (deg e_i + deg e_j - deg e_w) / tau on
e_w in e_i * e_j and as (deg e_i + deg e_j - top) / tau in <e_i, e_j>, top
the largest degree. On top of that it provides the handle element,
multiplication matrices at q = 1, quantum powers, the point-class order, the
graded V_j split and the cycles the handle moves it along, the dimension bound
for the span of handle powers, and that span's exact dimension. All
arithmetic is on Python ints and Fractions.
"""

from fractions import Fraction
from math import gcd, lcm

from .complexity import primitive_powers
from .linalg import Echelon

#: The prime of the generator search (_generators): 2^25 - 39.
_GENERATOR_PRIME = 33554393
#: theta_order looks for a scalar power of the point class up to this exponent.
_THETA_CAP = 64


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

    def scale(self, c):
        c = Fraction(c)
        return Element({k: c * v for k, v in self.coeffs.items()}) if c else Element()

    def shift_q(self, d):
        return Element({(w, e + d): v for (w, e), v in self.coeffs.items()})

    def support(self):
        return {w for (w, _) in self.coeffs}

    def __repr__(self):
        return f"Element({self.coeffs!r})"


class FrobeniusRing:
    """Graded Frobenius algebra with materialized integer structure constants.

    structure[(i, j)], for i <= j, is the row {w: c} of e_i * e_j: each c is
    a nonzero int and stands for the term c q^d e_w, where
    d = (deg e_i + deg e_j - deg e_w) / tau. pairing[i] is the row {j: c} of
    the nonzero pairings <e_i, e_j> = c q^pairing_q_power(i, j), each c a
    nonzero int or Fraction. Rows stay sparse, and validate() works on them
    directly: a dense n x n x n table would cost n^3 words per ring.
    """

    def __init__(self, name, labels, degrees, tau, pairing, structure, unit_index,
                 point_index=None, delta_override=None):
        self.name = name
        self.labels = labels
        self.degrees = degrees
        self.tau = tau
        self.pairing = pairing  # row i: {j: nonzero int or Fraction}
        self.structure = structure  # (i, j) with i <= j -> {w: nonzero int}
        self.unit_index = unit_index
        self.point_index = point_index
        self.delta_override = delta_override
        self.meta = {}
        self._cache = {}

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

    def _row(self, i, j):
        """Row {w: c} of e_i * e_j at q = 1, for any order of i and j."""
        return self.structure[(i, j) if i <= j else (j, i)]

    def _q_power(self, i, j, w):
        """Exponent of q on e_w in e_i * e_j, read off the grading."""
        return (self.degrees[i] + self.degrees[j] - self.degrees[w]) // self.tau

    def pairing_q_power(self, i, j):
        """Exponent of q in <e_i, e_j>, read off the grading."""
        return (self.degrees[i] + self.degrees[j] - self.top_degree()) // self.tau

    def product(self, x: Element, y: Element) -> Element:
        out = {}
        for (i, d1), c1 in x.coeffs.items():
            for (j, d2), c2 in y.coeffs.items():
                c = c1 * c2
                for w, cs in self._row(i, j).items():
                    key = (w, d1 + d2 + self._q_power(i, j, w))
                    s = out.get(key, Fraction(0)) + c * cs
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
        return Element(out)

    def power(self, x: Element, k: int) -> Element:
        """x^k by repeated squaring: O(log k) products."""
        if k < 0:
            raise ValueError("negative quantum power")
        acc = self.unit()
        while k:
            if k & 1:
                acc = self.product(acc, x)
            k >>= 1
            if k:
                x = self.product(x, x)
        return acc

    def _pairing_rows(self, last=None):
        """The pairing at q = 1 as dense int rows, row i followed by last[i]
        if given, each row scaled by the lcm of its denominators, which keeps
        the rank and every solution."""
        rows = []
        for i, row in enumerate(self.pairing):
            den = lcm(*(v.denominator for v in row.values()))
            dense = [0] * self.dim + ([den * last[i]] if last else [])
            for j, v in row.items():
                dense[j] = v.numerator * (den // v.denominator)
            rows.append(dense)
        return rows

    def handle_element(self) -> Element:
        """Handle element Delta = sum over i, j of g^{ij} e_i * e_j, by traces.

        g_ij = <e_i, e_j>; the Frobenius condition gives sum g^{ij} <e_i e_j,
        e_x> = sum g^{ij} <e_i, e_j e_x> = sum_{i,j,k} g^{ji} g_ik c^k_jx =
        sum_i [e_i](e_x e_i) = tr(L_x).  So at q = 1 Delta solves G Delta = t,
        t_x = tr(L_x): the kernel vector of [G | -t] that is 1 in its last
        column.  validate makes G graded of degree top = max deg, so Delta is
        homogeneous of degree top and its term on e_w carries
        q^((top - deg e_w) / tau).  A singular or q-dependent pairing raises
        ValueError.  An installed delta override (rings whose modeled part
        cannot see the full pairing) is returned instead, once it is checked
        to be homogeneous of degree top too: handle_cycles, f_span_dim and
        s_infinity rest on that.
        """
        delta = self.delta_override
        if delta is None and "handle" in self._cache:
            return self._cache["handle"]
        n, top = self.dim, self.top_degree()
        if delta is None:
            if any(self.pairing_q_power(i, j) for i, row in enumerate(self.pairing) for j in row):
                raise ValueError("pairing has q-dependent entries")
            trace = [sum(self._row(x, j).get(j, 0) for j in range(n)) for x in range(n)]
            ech = Echelon.of(self._pairing_rows([-t for t in trace]))
            if ech.rank < n or any(c == n for c, _ in ech.rows):
                raise ValueError("pairing matrix is singular")
            ints, den = ech.kernel_vector(n, n)
            delta = Element({(w, (top - self.degrees[w]) // self.tau): Fraction(c, den)
                             for w, c in enumerate(ints) if c})
        if any(self.degrees[w] + e * self.tau != top for w, e in delta.coeffs):
            raise ValueError(f"the handle element of {self.name} is not homogeneous "
                             f"of degree {top}")
        if self.delta_override is None:
            self._cache["handle"] = delta
        return delta

    def handle_matrix(self):
        """mult_matrix of the handle element, built once and kept in _cache.

        Every caller shares the one pair (D, d), so none may mutate D: the
        orbit walk, Berkowitz and the limit points only read it.
        """
        if "handle_matrix" not in self._cache:
            self._cache["handle_matrix"] = self.mult_matrix(self.handle_element())
        return self._cache["handle_matrix"]

    def int_mult_matrix(self, coords):
        """Integer rows of multiplication by sum_i coords[i] e_i at q = 1."""
        n = self.dim
        mat = [[0] * n for _ in range(n)]
        for i, c in enumerate(coords):
            if c:
                for j in range(n):
                    for w, cs in self._row(i, j).items():
                        mat[w][j] += c * cs
        return mat

    def mult_matrix(self, x: Element):
        """Matrix of quantum multiplication by x at q = 1, column j x * e_j,
        as the pair (D, d): integer rows D and a positive int d with the
        matrix D / d.

        int_mult_matrix of x's coordinates over their common denominator,
        divided by the gcd of that denominator and every entry, so (D, d) is
        what linalg.int_scale gives for the matrix of Fractions.
        """
        den = lcm(*(c.denominator for c in x.coeffs.values()))
        mat = self.int_mult_matrix([int(v * den) for v in self.element_vector(x)])
        g = gcd(den, *(v for row in mat for v in row))
        return [[v // g for v in row] for row in mat], den // g

    def element_vector(self, x: Element):
        """Coordinates of x at q = 1."""
        vec = [Fraction(0)] * self.dim
        for (w, _), c in x.coeffs.items():
            vec[w] += c
        return vec

    def theta_order(self):
        """Minimal t >= 1 with [pt]^{*t} = c q^m 1; returns (theta, m, c).

        Errors if the ring has no designated point class or no such power
        exists within _THETA_CAP.
        """
        if "theta" in self._cache:
            return self._cache["theta"]
        if self.point_index is None:
            raise ValueError(f"ring {self.name} has no designated point class")
        pt = self.basis_element(self.point_index)
        cur = pt
        for t in range(1, _THETA_CAP + 1):
            keys = list(cur.coeffs)
            if len(keys) == 1 and keys[0][0] == self.unit_index:
                self._cache["theta"] = (t, keys[0][1], cur.coeffs[keys[0]])
                return self._cache["theta"]
            cur = self.product(cur, pt)
        raise ValueError(f"point class of {self.name} has no scalar power within {_THETA_CAP}")

    def pt_inverse(self) -> Element:
        """Inverse of the point class: c^{-1} q^{-m} [pt]^{*(theta-1)}."""
        theta, m, c = self.theta_order()
        pt = self.basis_element(self.point_index)
        inv = self.power(pt, theta - 1).scale(1 / c).shift_q(-m)
        assert self.product(pt, inv) == self.unit()
        return inv

    def a_matrix(self):
        """Matrix of multiplication by Delta/[pt] at q = 1, as mult_matrix's
        pair (D, d)."""
        return self.mult_matrix(self.product(self.handle_element(), self.pt_inverse()))

    def vj_split(self, j):
        """Basis indices with degree congruent to j mod tau."""
        return [i for i in range(self.dim) if self.degrees[i] % self.tau == j % self.tau]

    def handle_cycles(self):
        """The classes mod tau as the cycles j -> j + top -> ... of handle
        multiplication, each a list of the vj_split blocks of its classes in
        that order, from its least class j < D_X.

        Delta is homogeneous of degree top (handle_element checks it) and
        every structure constant keeps the degree mod tau (validate), so
        L_Delta maps V_j into V_(j+top).  The cycles are the D_X cosets of
        the subgroup of Z/tau that top generates, each of length
        c = tau / D_X.
        """
        top, dx = self.top_degree(), self.d_x()
        return [[self.vj_split(j + t * top) for t in range(self.tau // dx)] for j in range(dx)]

    def top_degree(self):
        return max(self.degrees)

    def d_x(self):
        return gcd(self.tau, self.top_degree())

    def dim_bound(self):
        """Upper bound (tau / D_X) * dim V_0 for the span of handle powers."""
        return (self.tau // self.d_x()) * len(self.vj_split(0))

    def f_span_dim(self):
        """Exact dimension of Span{Delta^{*k}} at q = 1, with the power list.

        The powers are stepped as primitive integer vectors by the integer
        rows D of the handle matrix (D, d) (complexity.primitive_powers),
        which changes no span.  Delta^k lies in V_(k top) (handle_cycles),
        so every power stays inside the sum of V_j over j divisible by D_X,
        and powers in different classes have disjoint supports: a power
        depends on the earlier ones exactly when it depends on those of its
        own class.  So each class keeps its own Echelon.
        """
        top = self.top_degree()
        unit = self.element_vector(self.unit())
        echelons = {}
        powers = []
        for k, vec in zip(range(self.dim), primitive_powers(self.handle_matrix(), unit)):
            if not echelons.setdefault(k * top % self.tau, Echelon()).add(vec):
                break
            powers.append(k)
        return len(powers), powers

    # -- construction-time validation ------------------------------------

    def validate(self):
        """Check pairing symmetry/grading/invertibility, grading, unit,
        associativity and the Frobenius condition; errors name the failing pair.

        Every pairing entry must be a nonzero int or Fraction with
        deg e_i + deg e_j - top a multiple of tau, top the largest degree, so
        the pairing and its inverse are graded of degree top (handle_element
        needs it), and every term of det G(q) carries the same q^E, E =
        (2 sum deg - n top) / tau: G(1), the one tested, has the rank of every
        G(q). Every structure constant must be a nonzero int whose degree gap
        deg e_i + deg e_j - deg e_w is a nonnegative multiple of tau, so every
        q-power read off the grading is a nonnegative integer. Commutativity
        is built into the storage. The last two checks are reductions, proved
        in full in their docstrings:

        - associativity is tested only as L_g L_b = L_gb for g in a set of
          generators whose words span the ring (_generators): the elements
          a with L_a L_x = L_ax for all x form a subspace that holds 1, the
          generators, and with g and a also ga, so it is the whole ring;
        - the Frobenius condition <e_i e_j, e_k> = <e_i, e_j e_k> is tested
          only as <e_i, e_j> = <e_i e_j, 1>, which is equivalent once the
          ring is commutative and associative: <ab, c> = <(ab)c, 1> =
          <a(bc), 1> = <a, bc>, and <a, b> = <a, b 1> = <ab, 1>.
        """
        n = self.dim
        if not (len(self.degrees) == n and len(self.pairing) == n):
            raise ValueError("inconsistent basis sizes")
        for key in ((i, j) for i in range(n) for j in range(i, n)):
            if key not in self.structure:
                raise ValueError(f"missing structure constant {key}")
        pairs = [(i, j, c) for i, row in enumerate(self.pairing) for j, c in row.items()]
        bad = [(min(i, j), max(i, j)) for i, j, c in pairs
               if not 0 <= j < n or self.pairing[j].get(i) != c]
        if bad:
            raise ValueError("pairing not symmetric at ({}, {})".format(*min(bad)))
        top = self.top_degree()
        for i, j, c in pairs:
            gap = self.degrees[i] + self.degrees[j] - top
            if type(c) not in (int, Fraction) or not c or gap % self.tau:
                raise ValueError(f"pairing grading fails at ({i}, {j})")
        if Echelon.of(self._pairing_rows()).rank < n:
            raise ValueError("pairing matrix is singular")
        for (i, j), row in self.structure.items():
            for w, c in row.items():
                gap = self.degrees[i] + self.degrees[j] - self.degrees[w]
                if type(c) is not int or not c or gap < 0 or gap % self.tau:
                    raise ValueError(f"grading fails in e_{i} * e_{j} at term {c!r} e_{w}")
        for j in range(n):
            if self.degrees[self.unit_index] or self._row(self.unit_index, j) != {j: 1}:
                raise ValueError(f"unit law fails on basis element {j}")
        self._validate_associativity()
        self._validate_frobenius()

    def _generators(self):
        """Basis indices whose words, applied to the unit, span the ring at q = 1.

        Greedy in degree order, on integer vectors mod the prime p =
        _GENERATOR_PRIME: e_a becomes a generator when it is not yet in the
        span mod p of the words in the earlier generators applied to the
        unit, and that span is then closed under every generator.  The words
        are integer vectors, since the structure constants are integers.

        Proof that they span Q^n: every e_a ends up a generator or inside the
        span mod p, so the words span F_p^n.  Then some n words form an
        integer matrix whose determinant is nonzero mod p, hence nonzero, so
        they span Q^n.  A prime that divides some determinant of words can
        only make the search take more generators than over Q.

        The span is kept as reduced row echelon rows mod p, sparse maps
        {column: residue} keyed by their pivot, each with 1 at its pivot and
        0 in every other pivot column; so reducing v is one sum, v minus
        v[pivot] times the row of each pivot in v's support.
        """
        n, p = self.dim, _GENERATOR_PRIME
        rref = {}  # pivot -> row
        vecs, gens = [], []
        todo = []  # (generator, span vector) products not yet taken

        def grow(v):
            out = dict(v)
            for piv in [w for w in v if w in rref]:
                for w, c in rref[piv].items():
                    out[w] = (out.get(w, 0) - v[piv] * c) % p
            out = {w: c for w, c in out.items() if c}
            if not out:
                return False
            piv = min(out)
            scale = pow(out[piv], -1, p)
            v = {w: c * scale % p for w, c in out.items()}
            for other, row in rref.items():  # clear the new pivot column
                if piv in row:
                    row = dict(row)
                    c = row[piv]
                    for w, d in v.items():
                        row[w] = (row.get(w, 0) - c * d) % p
                    rref[other] = {w: d for w, d in row.items() if d}
            rref[piv] = v
            vecs.append(v)  # v as reduced when added; kept as is
            todo.extend((g, v) for g in gens)
            return True

        def times(g, v):  # L_g v mod p
            out = {}
            for j, c in v.items():
                for w, d in self._row(g, j).items():
                    out[w] = out.get(w, 0) + c * d
            return {w: c % p for w, c in out.items() if c % p}

        grow({self.unit_index: 1})
        for a in sorted(range(n), key=lambda a: self.degrees[a]):
            if len(rref) == n:
                break
            if not grow({a: 1}):
                continue
            gens.append(a)
            todo.extend((a, v) for v in vecs)
            while todo:
                grow(times(*todo.pop()))
        return gens

    def _validate_associativity(self):
        """e_g (e_b e_j) = (e_g e_j) e_b at q = 1 for every generator g (see
        _generators) and every pair of basis elements b, j.

        Swapping b and j, and using commutativity, these are the identities
        L_g L_b = L_gb for every b, where L_a is the matrix of multiplication
        by e_a.  This proves the ring associative: let S = {a : L_a L_x =
        L_ax for all x}. S is a subspace and contains 1 (the unit law is
        checked first), and the check puts every generator in S. If g, a are
        in S then L_ga = L_g L_a, so L_ga L_x = L_g L_ax = L_g(ax) = L_(ga)x.
        So S contains every word, and the words span the ring. Equality at
        q = 1 is enough, because the grading fixes the q-power of every term.

        One Python int stands for the identities of all b at once.  Let
        pos(b) be the rank of b among the basis elements whose degree is
        congruent to deg e_b mod tau, and X[v][j] = sum_b c^v_bj 2^(s pos(b)).
        For each (w, j) the check compares sum_v c^w_gv X[v][j] with
        sum_u c^u_gj X[w][u]: their base-2^s digits at pos(b) are the e_w
        coefficients of e_g (e_b e_j) and of (e_g e_j) e_b.  The digits stay
        apart because validate checks the grading first: every structure
        constant keeps the degree mod tau, so for fixed g, j and w only the b
        with deg e_b = deg e_w - deg e_g - deg e_j mod tau contribute, and
        they have distinct ranks.  With T the largest |c| and L the largest
        sum of |c| over a structure row, every digit on either side is at
        most T L in absolute value, so each digit of the difference is at
        most 2 T L < 2^(s-1).  A base-2^s expansion with digits below 2^s
        in absolute value is 0 only when every digit is, so the two ints are
        equal exactly when every identity holds.  The error names the least
        failing j of the first failing generator.
        """
        n, tau = self.dim, self.tau
        rows = self.structure.values()
        top = max((abs(c) for row in rows for c in row.values()), default=0)
        mass = max((sum(map(abs, row.values())) for row in rows), default=0)
        s = (2 * top * mass).bit_length() + 1
        ranks, shift = {}, []
        for d in self.degrees:
            r = ranks.get(d % tau, 0)
            shift.append(s * r)
            ranks[d % tau] = r + 1
        packed = [[0] * n for _ in range(n)]  # packed[j][v] = X[v][j]
        for (i, j), row in self.structure.items():
            for v, c in row.items():
                packed[j][v] += c << shift[i]
                if i != j:
                    packed[i][v] += c << shift[j]
        for g in self._generators():
            cols = [list(self._row(g, j).items()) for j in range(n)]
            for j in range(n):
                diff = [0] * n
                for v, x in enumerate(packed[j]):
                    for w, c in cols[v]:
                        diff[w] += c * x
                for u, c in cols[j]:
                    for w, x in enumerate(packed[u]):
                        diff[w] -= c * x
                if any(diff):
                    raise ValueError(f"associativity fails at pair ({g}, {j})")

    def _validate_frobenius(self):
        """<e_i, e_j> = <e_i * e_j, 1> for i <= j, as the q = 1 values g_ij and
        sum_w c^w_ij eps_w over the support of the counit eps_w = <e_w, 1>.

        validate runs this after the unit law and associativity, and then it
        is the Frobenius condition <e_i * e_j, e_k> = <e_i, e_j * e_k> for
        every triple: given it, <ab, c> = <(ab)c, 1> = <a(bc), 1> = <a, bc>
        by bilinearity, and conversely <a, b> = <a, b * 1> = <ab, 1>.  Values
        are enough once both gradings hold: every term on either side carries
        q^((deg e_i + deg e_j - top) / tau).
        """
        n, unit = self.dim, self.unit_index
        counit = {w: row[unit] for w, row in enumerate(self.pairing) if unit in row}
        for i in range(n):
            for j in range(i, n):
                row = self.structure[(i, j)]
                got = sum(row[w] * eps for w, eps in counit.items() if w in row)
                if got != self.pairing[i].get(j, 0):
                    raise ValueError(f"Frobenius condition fails at pair ({i}, {j})")
