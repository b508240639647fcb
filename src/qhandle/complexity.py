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
    _primitive,
    _synth_div,
    cyclic_char_poly,
    int_scale,
    integer_roots,
    mat_vec,
    primitive_powers,
)


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
    """Least k whose orbit state s has hit(s, [target]), or None.

    A state that repeats an earlier one cannot be a first hit, so the search
    ends with the orbit's first revisit.
    """
    mat, vec, kmax = _orbit_setup(ring, s0, kmax)
    goal = ProjState.from_element(ring, target)
    states = _orbit(mat, vec, kmax, Trajectory([]))
    return next((k for k, state in enumerate(states) if hit(state, goal)), None)


def exact_complexity(ring, s0, target, kmax=None):
    """Least k with [Delta^(*k) s0] = [target], or None."""
    return _first_hit(ring, s0, target, kmax, ProjState.__eq__)


def approx_complexity(ring, s0, target, eps, kmax=None):
    """Least k with chordal([Delta^(*k) s0], [target]) <= eps, or None."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return _first_hit(ring, s0, target, kmax,
                      lambda state, goal: chordal(state, goal) <= eps)


def limit_points_real(mat, z, f):
    """The list of limit classes of the nonzero iterates M^k z, for a matrix
    M split over the rationals, given as the pair mat = (D, d) of integer
    rows and a positive denominator, M = D / d (linalg.int_scale gives it
    for a rational matrix), and f = det(x I - D), which the caller has at
    hand (linalg.char_poly).  It is empty exactly when the iterates are
    eventually zero, and holds one class, or two when both signs of the
    dominant eigenvalue carry a longest chain.

    f is monic over Z, so its rational roots are integers r (integer_roots),
    the eigenvalues of D, and r / d are those of M.  For such an r of
    multiplicity m, g_r = f / (x - r)^m is an integer polynomial.  g_r(D) is
    zero on every other generalized eigenspace, as each of its factors
    (x - s)^(m_s) kills its own.  On the r-space, where r is the only
    eigenvalue of D, it commutes with N = D - r I and is invertible, since
    g_r(r) != 0.  So y = g_r(D) z equals g_r(D) z_r, z_r the r-component of
    z: y is nonzero exactly when z_r is, its N-chain N^k y = g_r(D) N^k z_r
    has the same length l, and its last nonzero term is g_r(r) N^(l-1) z_r,
    because N^(l-1) z_r lies in ker N.

    D^k z_r grows like binomial(k, l-1) r^(k-l+1) N^(l-1) z_r, so the
    largest |r| with a nonzero y wins, and at it the top term of each sign
    whose chain is longest survives.  The classes of D^k z are those of
    M^k z.  Raises ValueError for a zero z or a non-split matrix.
    """
    ints, _ = mat
    (z,), _ = int_scale([z])
    n = len(z)
    if len(ints) != n or any(len(row) != n for row in ints):
        raise ValueError("matrix and vector sizes differ")
    if not any(z):
        raise ValueError("z must be nonzero")
    roots = dict(integer_roots(f))
    if sum(roots.values()) != n:
        raise ValueError("matrix is not split over the rationals")

    def cofactor(r):
        """g_r = f / (x - r)^m by synthetic division."""
        g = f
        for _ in range(roots[r]):
            g, rem = _synth_div(g, r)
            assert rem == 0, "r must be a root of f of its multiplicity"
        return g

    def apply(g, vec):
        """g(D) vec by Horner's rule."""
        out = [g[0] * x for x in vec]
        for c in g[1:]:
            out = [a + c * b for a, b in zip(mat_vec(ints, out), vec)]
        return out

    for lam in sorted({abs(r) for r in roots if r}, reverse=True):
        gs = {r: cofactor(r) for r in (lam, -lam) if r in roots}
        tops = {r: apply(g, z) for r, g in gs.items()}
        tops = {r: y for r, y in tops.items() if any(y)}
        if tops:
            break
    else:
        return []

    def jordan_chain(r, vec):
        """vec, (D - r I) vec, ... up to the last nonzero term."""
        chain = []
        while any(vec):
            chain.append(vec)
            vec = [a - r * b for a, b in zip(mat_vec(ints, vec), vec)]
        return chain

    chains = {r: jordan_chain(r, y) for r, y in tops.items()}
    depth = max(len(chain) for chain in chains.values())
    # The top term r^(1-l) N^(l-1) z_r survives only on the longest chains.
    # The chain of r runs on z scaled by a positive integer, so its last
    # entry is that term times sign(r)^(l-1), a positive factor common to
    # both signs, and g_r(r).
    parts = {r: [x if r > 0 or depth % 2 else -x for x in chain[depth - 1]]
             for r, chain in chains.items() if len(chain) == depth}
    if len(parts) == 1:
        return [ProjState(p) for p in parts.values()]
    # Each sign also takes the other's g(r), so both carry one common
    # factor, which neither the classes of plus +- minus nor their order see.
    # plus and minus are nonzero vectors of the eigenspaces of lam and -lam,
    # so plus + minus and plus - minus are nonzero and not proportional.
    plus = [x * _synth_div(gs[-lam], -lam)[1] for x in parts[lam]]
    minus = [x * _synth_div(gs[lam], lam)[1] for x in parts[-lam]]
    return [ProjState([a + b for a, b in zip(plus, minus)]),
            ProjState([a - b for a, b in zip(plus, minus)])]


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
    (linalg.cyclic_char_poly), and its integer roots decide it.

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
    cycles = ring.handle_cycles()
    if len(cycles[0]) <= 2:  # for c >= 3 the open orbit proves M not split
        f = cyclic_char_poly(mat[0], cycles)
        if sum(m for _, m in integer_roots(f)) == ring.dim:
            points = limit_points_real(mat, z, f)
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
