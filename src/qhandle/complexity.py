"""Projective orbit dynamics of handle multiplication.

States are ring elements up to scale; the orbit of a state z is the sequence
of classes [Delta^(*k) z] at q = 1.  This module computes orbits and whether
they close, circuit complexities (first hitting times), exact limit points of
real matrix iterations, and the set of non-orbit accumulation points.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (
    _jacobi,
    frvec,
    int_scale,
    mat_vec,
    rational_eigenstructure,
    solve_linear,
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


def primitive_powers(mat, vec):
    """Yield the primitive integer vectors of vec, mat vec, mat^2 vec, ... for
    a rational matrix and a nonzero rational vector, ending before the first
    zero power.

    Each step multiplies the last vector by mat scaled to integers
    (int_scale), so each vector spans the line of the power it stands for.
    A step is made only when the next vector is asked for.
    """
    mat, _ = int_scale(mat)
    (vec,), _ = int_scale([vec])
    vec = _primitive(vec)
    while vec is not None:
        yield vec
        vec = _primitive(mat_vec(mat, vec))


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
        # hash(self.vec) without its Fractions: Python hashes the rational
        # x / p as the integer x * p^-1 modulo sys.hash_info.modulus
        try:
            inv = pow(self._pivot(), -1, sys.hash_info.modulus)
        except ValueError:  # the pivot is a multiple of the modulus
            return hash(self.vec)
        return hash(tuple(x * inv for x in self.ints))

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


@dataclass
class Trajectory:
    """Orbit prefix of a state under handle multiplication.

    states[k] is the class of Delta^(*k) z.  hit_zero marks truncation at an
    exactly vanishing iterate; cycle_start/cycle_length describe the first
    exact revisit when one occurs within the step budget.
    """

    states: list
    hit_zero: bool = False
    cycle_start: int = None
    cycle_length: int = None

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
        if state in seen:
            traj.cycle_start = seen[state]
            traj.cycle_length = k - traj.cycle_start
            return
        seen[state] = k
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


@dataclass
class LimitReport:
    """Exact accumulation data of the iteration M^k z.

    points lists the at most two projective limit classes of the nonzero
    iterates; finite_orbit means the iterates are eventually zero, in which
    case there are no limit directions.  dominant is the spectral radius of
    the part of M meeting z; depth is the largest Jordan depth there.
    """

    points: list
    finite_orbit: bool = False
    dominant: Fraction = None
    depth: int = 0


def limit_points_real(mat, z, _eig=None):
    """Limit classes of M^k z for a matrix split over the rationals.

    z is decomposed into generalized eigenvector components; the dominant
    magnitude with a nonzero component wins, with the top corank term of each
    sign surviving.  Raises ValueError for a zero z or a non-split matrix.
    """
    ints, den = int_scale(mat)
    z = frvec(z)
    n = len(z)
    if len(ints) != n or any(len(row) != n for row in ints):
        raise ValueError("matrix and vector sizes differ")
    if all(x == 0 for x in z):
        raise ValueError("z must be nonzero")
    eig = _eig if _eig is not None else rational_eigenstructure(mat)
    if not eig.split_over_rationals:
        raise ValueError("matrix is not split over the rationals")
    columns = []
    owners = []
    for entry in eig.entries:
        for b in entry.basis:
            columns.append(b)
            owners.append(entry.value)
    stacked = [[columns[j][i] for j in range(n)] for i in range(n)]
    coefs = solve_linear(stacked, z)
    assert coefs is not None, "generalized eigenbasis must span"
    comps = {}
    for value, column, c in zip(owners, columns, coefs):
        if c == 0:
            continue
        acc = comps.setdefault(value, [Fraction(0)] * n)
        for i in range(n):
            acc[i] += c * column[i]
    comps = {v: w for v, w in comps.items() if any(x != 0 for x in w)}
    magnitudes = [abs(v) for v in comps if v != 0]
    if not magnitudes:
        return LimitReport(points=[], finite_orbit=True)
    lam = max(magnitudes)
    tops = {v: comps[v] for v in (lam, -lam) if v in comps}
    scale = math.lcm(*(x.denominator for w in tops.values() for x in w))

    def jordan_chain(value, vec):
        """vec, (d M - value I) vec, ... up to the last nonzero term."""
        chain = []
        while any(vec):
            chain.append(vec)
            vec = [a - value * b for a, b in zip(mat_vec(ints, vec), vec)]
        return chain

    chains = {v: jordan_chain((v * den).numerator, [(x * scale).numerator for x in w])
              for v, w in tops.items()}
    r = max(len(chain) for chain in chains.values())
    # The top term v^(1-r) (M - v I)^(r-1) c survives only on the longest
    # chains.  Here the chain of v runs on d M and on c scaled by a positive
    # integer, so its last entry is that term times sign(v)^(r-1) and a
    # positive factor common to both signs, which no projective class sees.
    parts = {v: [x if v > 0 or r % 2 else -x for x in chain[r - 1]]
             for v, chain in chains.items() if len(chain) == r}
    plus = parts.get(lam)
    minus = parts.get(-lam)
    if minus is None:
        points = [ProjState(plus)]
    elif plus is None:
        points = [ProjState(minus)]
    else:
        points = []
        for cand in ([a + b for a, b in zip(plus, minus)],
                     [a - b for a, b in zip(plus, minus)]):
            if any(cand):
                state = ProjState(cand)
                if state not in points:
                    points.append(state)
    return LimitReport(points=points, dominant=lam, depth=r)


@dataclass
class SInfinityReport:
    """Accumulation points of an orbit that are not orbit states.

    exact marks results certified by rational arithmetic: a closed orbit has
    no such points, and a rationally split handle matrix yields exact limits.
    Float results carry the states as float tuples and are approximate.
    """

    points: list
    exact: bool
    method: str
    notes: str = ""


def _float_cluster(states, tol):
    out = []
    for st in states:
        if all(chordal(st, other) > tol for other in out):
            out.append(st)
    return out


def s_infinity(ring, s0, kmax=None, tol=1e-9):
    """Non-orbit accumulation points of the orbit of [s0].

    A closed orbit gives the empty set exactly.  If the handle matrix at
    q = 1 splits over the rationals the limits are computed exactly and the
    visited orbit states are removed.  Otherwise a float eigenvector path is
    used (symmetric power of the handle when available, power iteration as a
    last resort) and the result is approximate.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    mat, z, kmax = _orbit_setup(ring, s0, kmax)
    traj = _walk(mat, z, kmax)
    if traj.closed:
        return SInfinityReport(points=[], exact=True, method="finite-orbit")
    eig = rational_eigenstructure(mat)
    if eig.split_over_rationals:
        report = limit_points_real(mat, z, _eig=eig)
        if report.finite_orbit:
            return SInfinityReport(points=[], exact=True, method="finite-orbit")
        visited = set(traj.states)
        points = [p for p in report.points if p not in visited]
        return SInfinityReport(points=points, exact=True, method="rational-split")

    theta = None
    if ring.point_index is not None:
        try:
            theta, _ = ring.theta_order()
        except ValueError:
            theta = None
    if theta is not None:
        power = ring.mult_matrix(ring.power(ring.handle_element(), theta))
        if power == [list(row) for row in zip(*power)]:
            values, vectors = _jacobi([[float(x) for x in row] for row in power], 1e-12)
            top = max(abs(v) for v in values)
            dominant = [vec for val, vec in zip(values, vectors)
                        if abs(abs(val) - top) <= 1e-9 * max(1.0, top)]
            fz = [float(x) for x in z]
            proj = [0.0] * len(fz)
            for vec in dominant:
                weight = sum(a * b for a, b in zip(vec, fz))
                for i, a in enumerate(vec):
                    proj[i] += weight * a
            fmat = [[float(x) for x in row] for row in mat]
            states = []
            cur = proj
            for _ in range(theta):
                norm = max(abs(x) for x in cur)
                if norm <= 1e-300:
                    break
                states.append(tuple(x / norm for x in cur))
                cur = [sum(r * v for r, v in zip(row, cur)) for row in fmat]
            points = _float_cluster(states, 1e-7)
            visited = [st.floats() for st in traj.states]
            points = [p for p in points
                      if all(chordal(p, w) > 1e-7 for w in visited)]
            return SInfinityReport(points=points, exact=False, method="theta-float",
                                   notes="float eigenprojection; approximate")

    fmat = [[float(x) for x in row] for row in mat]
    cur = [float(x) for x in z]
    tail = []
    steps = max(200, 20 * ring.dim)
    window = 4 * ring.dim
    for k in range(steps):
        norm = max(abs(x) for x in cur)
        if norm <= 1e-300:
            return SInfinityReport(points=[], exact=False, method="float",
                                   notes="iterates vanished numerically")
        cur = [x / norm for x in cur]
        if k >= steps - window:
            tail.append(tuple(cur))
        cur = [sum(r * v for r, v in zip(row, cur)) for row in fmat]
    points = _float_cluster(tail, tol ** 0.5)
    visited = [st.floats() for st in traj.states]
    points = [p for p in points if all(chordal(p, w) > 1e-7 for w in visited)]
    return SInfinityReport(points=points, exact=False, method="float",
                           notes="power iteration tail; approximate")
