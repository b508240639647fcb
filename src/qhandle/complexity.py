"""Projective orbit dynamics of handle multiplication.

States are ring elements up to scale; the orbit of a state z is the sequence
of classes [Delta^(*k) z] at q = 1.  This module computes orbits and whether
they close, circuit complexities (first hitting times), exact limit points of
real matrix iterations, and the set of non-orbit accumulation points.
"""

import math
from fractions import Fraction
from itertools import islice

from .linalg import (
    _synth_div,
    char_poly,
    cyclic_char_poly,
    int_scale,
    mat_vec,
    rational_roots,
)


class _NotFound:
    """Sentinel for complexity searches that exhaust their step budget."""

    def __repr__(self):
        return "NOT_FOUND"

    def __bool__(self):
        return False


NOT_FOUND = _NotFound()


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


class ProjState:
    """A nonzero rational vector up to scale.

    The class is stored as its primitive integer vector, ints, which makes
    equality and hashing exact.  vec, the same class with first nonzero entry
    1 as Fractions, and floats() are derived when they are read.
    """

    __slots__ = ("ints",)

    def __init__(self, coords):
        (ints,), _ = int_scale([coords])
        ints = _primitive(ints)
        if ints is None:
            raise ValueError("the zero vector has no projective class")
        self.ints = ints

    @classmethod
    def _of_primitive(cls, ints):
        state = cls.__new__(cls)
        state.ints = ints
        return state

    @classmethod
    def from_element(cls, ring, x):
        return cls(ring.element_vector(x))

    def _pivot(self):
        return next(x for x in self.ints if x)

    @property
    def vec(self):
        pivot = self._pivot()
        return tuple(Fraction(x, pivot) for x in self.ints)

    def floats(self):
        # int true division is correctly rounded, as float(Fraction) is
        pivot = self._pivot()
        return [x / pivot for x in self.ints]

    def __eq__(self, other):
        return isinstance(other, ProjState) and self.ints == other.ints

    def __hash__(self):
        return hash(self.ints)

    def __repr__(self):
        return "[" + ", ".join(str(x) for x in self.vec) + "]"


def _coords(x):
    return x.floats() if isinstance(x, ProjState) else [float(v) for v in x]


def chordal(x, y):
    """Chordal distance sqrt(1 - <x,y>^2 / (|x|^2 |y|^2)) between states."""
    a, b = _coords(x), _coords(y)
    if len(a) != len(b):
        raise ValueError("dimension mismatch")
    dot = sum(p * q for p, q in zip(a, b))
    na = sum(p * p for p in a)
    nb = sum(q * q for q in b)
    if na == 0 or nb == 0:
        raise ValueError("zero vector has no projective distance")
    val = 1 - dot * dot / (na * nb)
    return math.sqrt(max(val, 0.0))


class Trajectory:
    """Orbit prefix of a state under handle multiplication.

    states[k] is the class of Delta^(*k) z.  hit_zero marks truncation at an
    exactly vanishing iterate; cycle_start/cycle_length describe the first
    exact revisit when one occurs within the step budget.
    """

    def __init__(self, states, hit_zero=False, cycle_start=None, cycle_length=None):
        self.states = states
        self.hit_zero = hit_zero
        self.cycle_start = cycle_start
        self.cycle_length = cycle_length

    @property
    def closed(self):
        return self.hit_zero or self.cycle_length is not None


def _orbit_setup(ring, s0, kmax):
    if kmax is None:
        kmax = 10 * ring.dim
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    mat = ring.handle_matrix()
    vec = ring.element_vector(s0)
    if all(x == 0 for x in vec):
        raise ValueError("reference state is zero")
    return mat, vec, kmax


def _orbit(mat, vec, kmax, traj):
    """Yield the new states of the orbit of vec, recording them in traj.

    The walk ends after kmax steps, at the first revisited state (recorded
    as traj's cycle) or at an exactly vanishing iterate (traj.hit_zero; a
    zero step after the last state counts too).  Each step is made only
    when the next state is asked for.  The states are the vectors of
    primitive_powers.
    """
    powers = primitive_powers(mat, vec)
    seen = {}
    for k, ints in enumerate(powers):
        state = ProjState._of_primitive(ints)
        first = seen.setdefault(state, k)
        if first != k:
            traj.cycle_start = first
            traj.cycle_length = k - first
            return
        traj.states.append(state)
        yield state
        if k == kmax:
            traj.hit_zero = next(powers, None) is None
            return
    traj.hit_zero = True


def _walk(mat, vec, kmax):
    traj = Trajectory([])
    for _ in _orbit(mat, vec, kmax, traj):
        pass
    return traj


def trajectory(ring, s0, kmax=None):
    """Orbit of [s0] under handle multiplication at q = 1."""
    return _walk(*_orbit_setup(ring, s0, kmax))


def _first_hit(ring, s0, target, kmax, hit):
    """Least k whose orbit state s has hit(s, [target]), or NOT_FOUND.

    A state that repeats an earlier one cannot be a first hit, so the search
    ends with the orbit's first revisit.
    """
    mat, vec, kmax = _orbit_setup(ring, s0, kmax)
    goal = ProjState.from_element(ring, target)
    states = _orbit(mat, vec, kmax, Trajectory([]))
    return next((k for k, state in enumerate(states) if hit(state, goal)), NOT_FOUND)


def exact_complexity(ring, s0, target, kmax=None):
    """Least k with [Delta^(*k) s0] = [target], or NOT_FOUND."""
    return _first_hit(ring, s0, target, kmax, ProjState.__eq__)


def approx_complexity(ring, s0, target, eps, kmax=None):
    """Least k with chordal([Delta^(*k) s0], [target]) <= eps, or NOT_FOUND."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return _first_hit(ring, s0, target, kmax,
                      lambda state, goal: chordal(state, goal) <= eps)


class LimitReport:
    """Exact accumulation data of the iteration M^k z.

    points lists the at most two projective limit classes of the nonzero
    iterates; finite_orbit means the iterates are eventually zero, in which
    case there are no limit directions.  dominant is the largest |v| over the
    eigenvalues v of M at which z has a nonzero generalized eigenvector
    component; depth is the longest Jordan chain of those components at
    +-dominant.
    """

    def __init__(self, points, finite_orbit=False, dominant=None, depth=0):
        self.points = points
        self.finite_orbit = finite_orbit
        self.dominant = dominant
        self.depth = depth


def _char_roots(f, den):
    """(f, roots) for M = D / den and f = det(x I - D): the rational roots of
    det(x I - M) as (root, multiplicity) pairs.  f is monic over Z, so its
    rational roots are integers r, and r / den are those of M."""
    return f, [(r / den, m) for r, m in rational_roots(f)]


def limit_points_real(mat, z, _char=None):
    """Limit classes of M^k z for a matrix M split over the rationals, given
    as the pair mat = (D, d) of integer rows and a positive denominator,
    M = D / d (linalg.int_scale gives it for a rational matrix).

    Let f be the characteristic polynomial of D, monic over Z, so that each
    rational eigenvalue v of M makes d v an integer root of f.  For such a v
    of multiplicity m, g_v = f / (x - d v)^m is an integer polynomial.
    g_v(D) is zero on every other generalized eigenspace, as each of its
    factors (x - d w)^(m_w) kills its own.  On the v-space,
    where d v is the only eigenvalue of D, it commutes with N = D - d v I and
    is invertible, since g_v(d v) != 0.  So y = g_v(D) z equals g_v(D) z_v,
    z_v the v-component of z: y is nonzero exactly when z_v is, its N-chain
    N^k y = g_v(D) N^k z_v has the same length r, and its last nonzero term is
    g_v(d v) N^(r-1) z_v, because N^(r-1) z_v lies in ker N.

    M^k z_v grows like binomial(k, r-1) v^(k-r+1) (M - v I)^(r-1) z_v, so the
    largest |v| with a nonzero y wins, and at it the top term of each sign
    whose chain is longest survives.  _char passes in a _char_roots result
    already computed.  Raises ValueError for a zero z or a non-split matrix.
    """
    ints, den = mat
    (z,), _ = int_scale([z])
    n = len(z)
    if len(ints) != n or any(len(row) != n for row in ints):
        raise ValueError("matrix and vector sizes differ")
    if not any(z):
        raise ValueError("z must be nonzero")
    f, roots = _char or _char_roots(char_poly(ints), den)
    roots = dict(roots)
    if sum(roots.values()) != n:
        raise ValueError("matrix is not split over the rationals")
    shift = {v: (v * den).numerator for v in roots}  # the eigenvalue d v of D

    def cofactor(v):
        """g_v = f / (x - d v)^m by synthetic division."""
        g = f
        for _ in range(roots[v]):
            g, rem = _synth_div(g, shift[v])
            assert rem == 0, "d v must be a root of f of its multiplicity"
        return g

    def apply(g, vec):
        """g(D) vec by Horner's rule."""
        out = [g[0] * x for x in vec]
        for c in g[1:]:
            out = [a + c * b for a, b in zip(mat_vec(ints, out), vec)]
        return out

    for lam in sorted({abs(v) for v in roots if v}, reverse=True):
        gs = {v: cofactor(v) for v in (lam, -lam) if v in roots}
        tops = {v: apply(g, z) for v, g in gs.items()}
        tops = {v: y for v, y in tops.items() if any(y)}
        if tops:
            break
    else:
        return LimitReport(points=[], finite_orbit=True)

    def jordan_chain(dv, vec):
        """vec, (D - d v I) vec, ... up to the last nonzero term."""
        chain = []
        while any(vec):
            chain.append(vec)
            vec = [a - dv * b for a, b in zip(mat_vec(ints, vec), vec)]
        return chain

    chains = {v: jordan_chain(shift[v], y) for v, y in tops.items()}
    r = max(len(chain) for chain in chains.values())
    # The top term v^(1-r) (M - v I)^(r-1) z_v survives only on the longest
    # chains.  The chain of v runs on D and on z scaled by a positive
    # integer, so its last entry is that term times sign(v)^(r-1), a positive
    # factor common to both signs, and g_v(d v).
    parts = {v: [x if v > 0 or r % 2 else -x for x in chain[r - 1]]
             for v, chain in chains.items() if len(chain) == r}
    if len(parts) == 1:
        return LimitReport(points=[ProjState(p) for p in parts.values()], dominant=lam, depth=r)
    # Each sign also takes the other's g(d v), so both carry one common
    # factor, which neither the classes of plus +- minus nor their order see.
    plus = [x * _synth_div(gs[-lam], shift[-lam])[1] for x in parts[lam]]
    minus = [x * _synth_div(gs[lam], shift[lam])[1] for x in parts[-lam]]
    points = []
    for cand in ([a + b for a, b in zip(plus, minus)],
                 [a - b for a, b in zip(plus, minus)]):
        if any(cand):
            state = ProjState(cand)
            if state not in points:
                points.append(state)
    return LimitReport(points=points, dominant=lam, depth=r)


class SInfinityReport:
    """Accumulation points of an orbit that are not orbit states.

    exact marks results certified by rational arithmetic: a closed orbit has
    no such points, and a rationally split handle matrix yields exact limits.
    Float results carry the states as float tuples and are approximate.
    """

    def __init__(self, points, exact, method, notes=""):
        self.points = points
        self.exact = exact
        self.method = method
        self.notes = notes


def _float_cluster(states, tol):
    out = []
    for st in states:
        if all(chordal(st, other) > tol for other in out):
            out.append(st)
    return out


def _theta_block(states, theta):
    """The float states of the first theta-block of the walk states, blocks
    starting at step 0, equal bit for bit to the block before it; a state is
    its primitive vector over its largest |entry|, correctly rounded."""
    steps, last = len(states) - 1, None
    for k in range(0, steps - theta + 1, theta):
        block = [tuple(x / top for x in st.ints)
                 for st in states[k:k + theta] for top in [max(map(abs, st.ints))]]
        if block == last:
            return block
        last = block
    raise ValueError(f"no theta-block of the walk is stable within {steps} steps")


def s_infinity(ring, s0):
    """Non-orbit accumulation points of the orbit of [s0], from one walk of
    10 dim steps; a closed orbit gives the empty set exactly.

    The grading decides whether the handle matrix M at q = 1 can split over
    the rationals.  M maps V_j into V_(j+s), s = top mod tau, and the classes
    mod tau fall into cycles of length c = tau / gcd(tau, s) = tau / D_X
    (FrobeniusRing.handle_cycles).  Let U act as zeta^t on the t-th block of
    each cycle, zeta a primitive c-th root of unity; then U M U^-1 = zeta M,
    so the spectrum of M is closed under multiplication by zeta.  For
    c >= 3 a nonzero rational eigenvalue brings a non-real one, so a split M
    is nilpotent and every orbit closes within n = dim steps: an orbit still
    open after the walk proves M not split, with no polynomial computed.
    For c <= 2 the exact characteristic polynomial, taken by cycles
    (linalg.cyclic_char_poly), and its rational roots decide it.

    If M splits the limits are exact and budget-free.  [M^P y] = [y],
    y = M^j z, puts y in eigenspaces of +-lambda, as (lambda + N)^P !=
    lambda^P on a Jordan block of rational lambda != 0 and depth > 1; the
    nilpotent parts of z die within n steps.  So the orbit closes within
    n + 2 steps or never, and a limit point that is an orbit state forces
    closure.

    Otherwise the theta path needs a point class with T^theta = mu a scalar,
    T = L_pt, and a symmetric M^theta.  M = A T, and A = Delta / [pt] has
    positive eigenvalues and commutes with T, so M^(theta K) z =
    mu^K A^(theta K) z and [M^(theta K + j) z] tends to [T^j w], w the
    projection of z onto A's top eigenspace: the limit points are far states
    of the same walk (_theta_block), clustered at chordal distance 1e-7,
    less those within 1e-7 of a visited state.
    Raises ValueError when no path applies.
    """
    mat, z, kmax = _orbit_setup(ring, s0, None)
    traj = _walk(mat, z, kmax)
    if traj.closed:
        return SInfinityReport(points=[], exact=True, method="finite-orbit")
    ints, den = mat
    cycles = ring.handle_cycles()
    if len(cycles[0]) <= 2:  # for c >= 3 the open orbit proves M not split
        char = _char_roots(cyclic_char_poly(ints, cycles), den)
        if sum(m for _, m in char[1]) == len(ints):
            points = limit_points_real(mat, z, _char=char).points
            return SInfinityReport(points=points, exact=True, method="rational-split")

    try:  # no point class, or no scalar power of it
        theta, _, _ = ring.theta_order()
        # the walk's theta-th vector from the unit is a multiple of Delta^theta
        # at q = 1, so of M^theta's matrix; a zero power ends it and gives 0
        unit = ring.element_vector(ring.unit())
        power = ring.int_mult_matrix(
            next(islice(primitive_powers(mat, unit), theta, None), [0] * ring.dim))
    except ValueError:
        power = None
    if power is None or power != [list(row) for row in zip(*power)]:
        raise ValueError(f"no S_infinity path: the orbit does not close within "
                         f"{kmax} steps, the handle matrix is not split and "
                         f"{ring.name} has no theta path")
    points = _float_cluster(_theta_block(traj.states, theta), 1e-7)
    visited = [st.floats() for st in traj.states]
    points = [p for p in points if all(chordal(p, w) > 1e-7 for w in visited)]
    return SInfinityReport(points=points, exact=False, method="theta-float",
                           notes="float eigenprojection; approximate")
