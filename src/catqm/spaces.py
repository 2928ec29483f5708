"""Geodesic model spaces: free-group tree, hyperbolic half-plane, Euclidean
space, and products.

Every space exposes the same small surface: ``distance``, ``geodesic``,
``project``, ``projections`` (the parameters and distances of ``project``
for a list of points, as two float64 arrays), deterministic
``ball_points`` sampling, and JSON round-tripping of points.  The sampled
ball shadow, the spread of the ``projections`` of ``ball_points``, is
measured in one place, ``contraction``.
Segments are arclength-parametrized; ``point_at(0)`` is the start,
``point_at(length)`` the end, and parameter differences equal distances
(exactly on the tree and Euclidean space, within tolerance on the
half-plane).

Projections are closed forms on the tree (Gromov products,
``words.gromov_foot`` and ``words.gromov_gap``), the half-plane and
Euclidean space (a clamped dot product).  Half-plane and Euclidean
``projections`` evaluate the same formulas as numpy over all the points at
once; the tree and products project their points one at a time
(``_projections_one_by_one``).  A tree ball that misses a segment
projects onto it as one point, so a tree contraction certificate measures
a shadow only at B <= tol.  Each tree rule has one owner: ``_route`` (the
exit options that join two points), ``_along`` (the walk of ``point_at``)
and ``TreeSpace.ball_points`` (the vertices of a metric ball, the word
balls through each exit option of the center).  The tree's bulk work runs
on packed word arrays (``words.pack``).  Between vertices
every distance is an integer word length, so the exhaustive tree axioms
(``runner._tree_axiom_violations``) read the projection of each vertex on
each vertex-ended segment [e, v] from one Gromov pass over two packed
balls (``words.gromov_foot``, ``words.gromov_gap``), exactly what
``project`` returns there, and decide ``check_ft`` from the same two ends
that ``check_ft`` reads.  Euclidean
``segment_distance`` is closed form too.  Golden-section search is kept
where no closed form is used: projections on products, and the
one-dimensional minimization over closed-form projections in half-plane
``segment_distance``.

A half-plane segment, vertical line or arc alike, is one Möbius normal
form: the isometry T(z) = (z - p) / (1 - k z) that sends its geodesic to the
imaginary axis, so both ``project`` and ``point_at`` are one formula.

Projections onto segments are single-valued here: the tree and all CAT(0)
model spaces have unique nearest points, and every downstream check is
stated with enough slack that the choice of representative cannot create
false violations.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections.abc import Iterable
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import InputError, NumericError, checked_number
from .words import (
    Word,
    check_reduced,
    common_prefix_length,
    distance_matrix,
    word_distance,
)
from . import words as W

GOLDEN_INV = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))
GOLDEN_MAX_ITER = 200

# Euclidean dimensions a config may declare: every point and sampled ball
# point carries dim coordinates, and the shipped control is the plane.
MAX_DIM = 64


def golden_section(f: Callable[[float], float], lo: float, hi: float,
                   tol: float = 1e-9) -> float:
    """Bracketed golden-section minimum of a convex function on [lo, hi].

    Derivative-free and robust near flat minima; the iteration cap
    ``GOLDEN_MAX_ITER`` protects against pathological callables.
    """
    if hi < lo:
        raise InputError("empty bracket")
    if hi - lo <= tol:
        return 0.5 * (lo + hi)
    a, b = lo, hi
    c = b - GOLDEN_INV * (b - a)
    d = a + GOLDEN_INV * (b - a)
    fc, fd = f(c), f(d)
    if math.isnan(fc) or math.isnan(fd):
        raise NumericError("objective returned NaN")
    for _ in range(GOLDEN_MAX_ITER):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_INV * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_INV * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


class ProjectionResult(NamedTuple):
    """Nearest point of a segment: the point, its distance to the query,
    and its arclength position on the segment."""
    point: Any
    distance: float
    parameter: float


def _projections_one_by_one(space, points, seg) -> tuple[np.ndarray, np.ndarray]:
    """``project(p, seg)`` parameter and distance for every p in ``points``,
    one call per point: the ``projections`` of products, which have no
    closed form, and of the tree, whose bulk work runs on packed words
    (``words.packed_ball`` and the Gromov products of ``words``) instead."""
    results = [space.project(p, seg) for p in points]
    return (np.array([r.parameter for r in results], dtype=np.float64),
            np.array([r.distance for r in results], dtype=np.float64))


def _clamped(s: float, length: float, eps: float = 1e-9) -> float:
    """The segment parameter s clamped to [0, length]: the rule of every
    ``point_at``.  More than eps outside the interval is an ``InputError``."""
    if s < -eps or s > length + eps:
        raise InputError(f"parameter {s} outside [0, {length}]")
    return min(max(s, 0.0), length)


# ---------------------------------------------------------------------------
# Tree
# ---------------------------------------------------------------------------

class TreePoint:
    """A point of the Cayley tree of a free group.

    ``anchor`` is a vertex (reduced word).  Vertices have ``letter is
    None``.  An interior edge point sits at distance ``t`` in (0, 1) from
    ``anchor`` along the edge toward ``anchor + (letter,)``; the canonical
    form anchors at the shorter endpoint of the edge.  Points are equal when
    their fields are, and hash alike; a point is never a tuple.
    """
    __slots__ = ("anchor", "letter", "t")

    def __init__(self, anchor: Word, letter: int | None = None, t: float = 0.0):
        self.anchor, self.letter, self.t = anchor, letter, t

    def __eq__(self, o):
        return (type(o) is TreePoint
                and (self.anchor, self.letter, self.t) == (o.anchor, o.letter, o.t))

    def __hash__(self):
        return hash((self.anchor, self.letter, self.t))

    @property
    def is_vertex(self) -> bool:
        return self.letter is None

    def edge(self) -> tuple[Word, Word]:
        """(parent, child) endpoints of the carrying edge."""
        return self.anchor, self.anchor + (self.letter,)

    def __repr__(self):  # pragma: no cover - debugging aid
        if self.is_vertex:
            return f"TreePoint({W.to_string(self.anchor) or 'e'})"
        return (f"TreePoint({W.to_string(self.anchor) or 'e'}"
                f"--{W.to_string((self.letter,))}@{self.t})")


def tree_point(anchor: Word, letter: int | None = None, t: float = 0.0) -> TreePoint:
    """Canonicalizing constructor for tree points."""
    anchor = check_reduced(anchor)
    if letter is None or t == 0.0:
        return TreePoint(anchor, None, 0.0)
    if not (0.0 <= t <= 1.0):
        raise InputError(f"edge offset {t} outside [0, 1]")
    if anchor and letter == -anchor[-1]:
        # re-anchor at the shorter endpoint of the edge
        return tree_point(anchor[:-1], anchor[-1], 1.0 - t)
    if t == 1.0:
        return TreePoint(anchor + (letter,), None, 0.0)
    return TreePoint(anchor, letter, t)


def vertex(word_or_str) -> TreePoint:
    return tree_point(W.as_word(word_or_str))


_SNAP = 1e-12   # segment parameters this close to a vertex land on it


def _exit_options(p: TreePoint) -> list[tuple[Word, float]]:
    """Vertices through which a geodesic can leave p, with the edge cost."""
    if p.is_vertex:
        return [(p.anchor, 0.0)]
    parent, child = p.edge()
    return [(parent, p.t), (child, 1.0 - p.t)]


def _route(a: TreePoint, b: TreePoint) -> tuple[float, Word, float, Word, float]:
    """Shortest exit-option route from a to b: (length, ea, ca, eb, cb)."""
    best = None
    for ea, ca in _exit_options(a):
        for eb, cb in _exit_options(b):
            total = ca + word_distance(ea, eb) + cb
            if best is None or total < best[0]:
                best = (total, ea, ca, eb, cb)
    return best


def _along(v: Word, w: Word, r: float) -> TreePoint:
    """The point at distance r from vertex v toward its neighbour w."""
    if r < _SNAP:
        return tree_point(v)
    if len(w) > len(v):
        return tree_point(v, w[-1], r)
    return tree_point(w, v[-1], 1.0 - r)


def _other_end(p: TreePoint, v: Word) -> Word:
    """The end of the edge (parent, child) carrying p that is not v."""
    return p.edge()[v == p.anchor]


def _vertex_chain(u: Word, v: Word) -> list[Word]:
    """Vertices of the unique tree path from u to v, inclusive."""
    k = common_prefix_length(u, v)
    down = [u[:i] for i in range(len(u), k, -1)]
    up = [v[:i] for i in range(k, len(v) + 1)]
    return down + up


class TreeSegment:
    """Oriented geodesic of the tree, possibly with fractional ends."""

    def __init__(self, space: "TreeSpace", a: TreePoint, b: TreePoint):
        self.space = space
        self.start = a
        self.end = b
        if a.letter is not None and a.letter == b.letter and a.anchor == b.anchor:
            # both interior to the same edge
            self._same_edge = True
            self.chain: tuple[Word, ...] = ()
            self.lead = 0.0
            self.length = abs(a.t - b.t)
            return
        self._same_edge = False
        total, ea, self.lead, eb, _ = _route(a, b)
        self.chain = tuple(_vertex_chain(ea, eb))
        self.length = float(total)

    def point_at(self, s: float) -> TreePoint:
        eps = _SNAP
        s = _clamped(s, self.length, eps)
        # the ends themselves: walking to one can round off an edge offset
        if s == 0.0:
            return self.start
        if s == self.length:
            return self.end
        if self._same_edge:
            a = self.start
            t = a.t + (s if self.end.t >= a.t else -s)
            return tree_point(a.anchor, a.letter, t)
        # from the chain vertex nearest s: first edge, chain or last edge
        # (at a vertex end u - k < eps, so its edge goes unused)
        chain, k, u = self.chain, len(self.chain) - 1, s - self.lead
        if s <= self.lead + eps and self.lead > 0:
            return _along(chain[0], _other_end(self.start, chain[0]), self.lead - s)
        if u + eps < k:
            i = int(math.floor(u + eps))
            return _along(chain[i], chain[i + 1], u - i)
        return _along(chain[k], _other_end(self.end, chain[k]), u - k)


class TreeSpace:
    """Cayley tree of the free group of the given rank, word metric.

    Vertices are reduced words; edge interiors realize the geodesic-space
    contract while the word algebra stays exact.
    """

    kind = "tree"

    def __init__(self, rank: int = 2, dd_constant: float = 1.0, tol: float = 1e-9):
        self.rank = W.checked_rank(rank, "tree rank")
        self.dd_constant = dd_constant
        self.tol = tol

    # -- points ------------------------------------------------------------
    def validate_point(self, p: TreePoint) -> TreePoint:
        if not isinstance(p, TreePoint):
            raise InputError(f"not a tree point: {p!r}")
        check_reduced(p.anchor)
        if p.letter is not None:
            if not (1 <= abs(p.letter) <= self.rank):
                raise InputError(f"letter {p.letter} outside rank {self.rank}")
            if not (0.0 < p.t < 1.0):
                raise InputError("interior point offset must lie in (0, 1)")
            if p.anchor and p.letter == -p.anchor[-1]:
                raise InputError("edge letter cancels the anchor")
        for x in p.anchor:
            if not (1 <= abs(x) <= self.rank):
                raise InputError(f"word letter {x} outside rank {self.rank}")
        return p

    def basepoint(self) -> TreePoint:
        return tree_point(W.IDENTITY)

    def distance(self, x: TreePoint, y: TreePoint) -> float:
        if x.is_vertex and y.is_vertex:
            return float(word_distance(x.anchor, y.anchor))
        if x.letter is not None and x.letter == y.letter and x.anchor == y.anchor:
            return abs(x.t - y.t)
        return _route(x, y)[0]

    def geodesic(self, a: TreePoint, b: TreePoint) -> TreeSegment:
        return TreeSegment(self, self.validate_point(a), self.validate_point(b))

    def project(self, x: TreePoint, seg: TreeSegment) -> ProjectionResult:
        da = self.distance(x, seg.start)
        db = self.distance(x, seg.end)
        t = 0.5 * (da - db + seg.length)
        t = min(max(t, 0.0), seg.length)
        point = seg.point_at(t)
        return ProjectionResult(point, self.distance(x, point), t)

    def segment_distance(self, s1: TreeSegment, s2: TreeSegment) -> float:
        # d(., s2) is convex with unit slopes along s1 off the minimum set,
        # so the endpoint values pin the minimum exactly.
        fa = self.project(s1.start, s2).distance
        fb = self.project(s1.end, s2).distance
        return max(0.0, W.gromov_gap(fa, fb, s1.length))

    # -- sampling ----------------------------------------------------------
    def ball_points(self, center: TreePoint, radius: float,
                    samples: int = 0) -> list[TreePoint]:
        """Every vertex within the radius of the center, in (length, word)
        order, after an edge-point center itself: the w·u, u in
        ``W.ball(rank, rem)``, for each exit option (w, c) of the center
        with rem = ⌊radius − c⌋ ≥ 0 (the 1e-9 keeps a vertex at distance
        exactly the radius).  Ball sampling is exhaustive over vertices,
        and the tree needs nothing finer because projections are
        determined at vertices."""
        words = {W.multiply(w, u) for w, cost in _exit_options(center)
                 if (rem := math.floor(radius - cost + 1e-9)) >= 0
                 for u in W.ball(self.rank, rem)}
        pts = [tree_point(w) for w in sorted(words, key=lambda w: (len(w), w))]
        return pts if center.is_vertex else [center] + pts

    projections = _projections_one_by_one

    def pairwise_distances(self, points: list[TreePoint]) -> np.ndarray:
        if all(p.is_vertex for p in points):
            return distance_matrix([p.anchor for p in points])
        n = len(points)
        out = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                out[i, j] = out[j, i] = self.distance(points[i], points[j])
        return out

    # -- serialization -----------------------------------------------------
    def point_key(self, p: TreePoint):
        if p.is_vertex:
            return p.anchor
        return (p.anchor, p.letter, round(p.t, 12))

    def point_to_json(self, p: TreePoint):
        if p.is_vertex:
            return {"v": W.to_string(p.anchor)}
        return {"v": W.to_string(p.anchor), "edge": W.to_string((p.letter,)),
                "t": p.t}

    def point_from_json(self, data) -> TreePoint:
        anchor = W.from_string(data["v"])
        if "edge" not in data:
            return tree_point(anchor)
        (letter,) = W.from_string(data["edge"])
        return tree_point(anchor, letter,
                          checked_number(data["t"], "tree edge offset t", zero_ok=True))


def _json_coordinates(data, count: int, what: str) -> list[float]:
    """The coordinates of a JSON point, matrix row or translation vector as
    floats: ``data`` must be a list of exactly ``count`` finite numbers.  A
    string, a bool, NaN, an infinity or a list of another length is an
    ``InputError``, not a value read in some other way."""
    if (isinstance(data, list) and len(data) == count
            and all(isinstance(c, (int, float)) and not isinstance(c, bool)
                    and abs(c) <= sys.float_info.max for c in data)):
        return [float(c) for c in data]
    raise InputError(f"{what} must be a list of {count} finite numbers: {data!r}")


# ---------------------------------------------------------------------------
# Hyperbolic half-plane
# ---------------------------------------------------------------------------

def _hp_distance(z: complex, w: complex) -> float:
    # 2 asinh(|z - w| / (2 sqrt(Im z Im w))): stable form of the classical
    # arccosh(1 + |z-w|^2 / (2 Im z Im w)).
    return 2.0 * math.asinh(abs(z - w) / (2.0 * math.sqrt(z.imag * w.imag)))


class HalfPlaneSegment:
    """Geodesic of the upper half-plane, parametrized by arclength.

    The isometry T(z) = (z - p) / (1 - k z) sends the whole geodesic to the
    imaginary axis: p is one ideal endpoint and k = 1/q for the other, the
    one farther from 0, so k = 0 exactly on a vertical line.  The point at
    parameter s is T⁻¹(i e^u) with u = u0 ± s.
    """

    def __init__(self, space: "HalfPlaneSpace", a: complex, b: complex):
        self.space = space
        self.start = a
        self.end = b
        # The centre c = n / d and radius multiplied through by d, so a
        # vertical line (d = 0) is no special case: q = den / d is the
        # endpoint farther from 0, and p = pq / q cancels no digits.
        n = abs(a) ** 2 - abs(b) ** 2
        d = 2.0 * (a.real - b.real)
        den = n + math.copysign(math.hypot(a.real * d - n, a.imag * d), n)
        if den == 0.0:  # a == b
            self._p, self._k = a.real, 0.0
        else:
            self._p = (2.0 * a.real * n - abs(a) ** 2 * d) / den
            self._k = d / den
        u0, u1 = self._foot_u(a), self._foot_u(b)
        self._u0 = u0
        self._sign = 1.0 if u1 >= u0 else -1.0
        self.length = abs(u1 - u0)

    def _foot_u(self, z, log=math.log):
        """The coordinate u of the foot of z (a complex, or a complex array
        with ``log=np.log``) on the segment's whole geodesic: the foot of w
        on the imaginary axis is i|w|, so u = log|T(z)|."""
        return log(abs(z - self._p) / abs(1.0 - self._k * z))

    def point_at(self, s: float) -> complex:
        s = _clamped(s, self.length)
        w = complex(0.0, math.exp(self._u0 + self._sign * s))
        return (w + self._p) / (1.0 + self._k * w)


class HalfPlaneSpace:
    """Upper half-plane with the hyperbolic metric; points are complex with
    positive imaginary part."""

    kind = "half-plane"

    def __init__(self, dd_constant: float = 1.0, tol: float = 1e-9):
        self.dd_constant = dd_constant
        self.tol = tol

    def validate_point(self, z) -> complex:
        z = complex(z)
        if not (z.imag > 0.0) or not math.isfinite(z.imag) or not math.isfinite(z.real):
            raise InputError(f"not in the upper half-plane: {z!r}")
        return z

    def basepoint(self) -> complex:
        return 1j

    def distance(self, x, y) -> float:
        return _hp_distance(complex(x), complex(y))

    def geodesic(self, a, b) -> HalfPlaneSegment:
        return HalfPlaneSegment(self, self.validate_point(a), self.validate_point(b))

    def project(self, x, seg: HalfPlaneSegment) -> ProjectionResult:
        z = self.validate_point(x)
        if seg.length == 0.0:
            return ProjectionResult(seg.start, _hp_distance(z, seg.start), 0.0)
        t = min(max(seg._sign * (seg._foot_u(z) - seg._u0), 0.0), seg.length)
        point = seg.point_at(t)
        d = _hp_distance(z, point)
        if math.isnan(d):
            raise NumericError("projection produced NaN")
        return ProjectionResult(point, d, t)

    def projections(self, points, seg: HalfPlaneSegment
                    ) -> tuple[np.ndarray, np.ndarray]:
        """``project(p, seg)`` parameter and distance for every p in
        ``points``: the closed form of ``project`` as one numpy pass."""
        zs = np.asarray(points, dtype=np.complex128)
        if not (zs.shape == (len(points),) and np.isfinite(zs).all()
                and (zs.imag > 0.0).all()):
            raise InputError("a point is not in the upper half-plane")
        if seg.length == 0.0:
            t, feet = np.zeros(len(zs)), seg.start
        else:
            t = np.clip(seg._sign * (seg._foot_u(zs, np.log) - seg._u0), 0.0, seg.length)
            w = 1j * np.exp(seg._u0 + seg._sign * t)
            feet = (w + seg._p) / (1.0 + seg._k * w)
        d = 2.0 * np.arcsinh(np.abs(zs - feet) / (2.0 * np.sqrt(zs.imag * feet.imag)))
        if np.isnan(d).any():
            raise NumericError("projection produced NaN")
        return t, d

    def segment_distance(self, s1, s2) -> float:
        return _convex_segment_distance(self, s1, s2)

    def ball_points(self, center, radius: float, samples: int = 64) -> list[complex]:
        """Deterministic sample of the closed hyperbolic ball.

        The hyperbolic ball is the Euclidean disk centered at
        (x, y cosh r) with radius y sinh r; we take a sunflower spread in
        that disk, a boundary ring, and the extreme points on the vertical
        geodesic through the center.
        """
        center = self.validate_point(center)
        x, y = center.real, center.imag
        ce = complex(x, y * math.cosh(radius))
        re = y * math.sinh(radius)
        pts = [center, complex(x, y * math.exp(radius)),
               complex(x, y * math.exp(-radius))]
        ring = max(8, samples // 4)
        for k in range(ring):
            ang = 2.0 * math.pi * (k + 0.5) / ring
            pts.append(ce + re * cmath.exp(1j * ang))
        interior = max(0, samples - len(pts))
        for j in range(1, interior + 1):
            rho = re * math.sqrt(j / (interior + 1))
            ang = j * GOLDEN_ANGLE
            pts.append(ce + rho * cmath.exp(1j * ang))
        return pts

    def pairwise_distances(self, points) -> np.ndarray:
        zs = np.asarray([complex(p) for p in points])
        dz = np.abs(zs[:, None] - zs[None, :])
        ys = zs.imag
        return 2.0 * np.arcsinh(dz / (2.0 * np.sqrt(ys[:, None] * ys[None, :])))

    def point_key(self, p):
        return (round(p.real, 9), round(p.imag, 9))

    def point_to_json(self, p):
        return [p.real, p.imag]

    def point_from_json(self, data):
        x, y = _json_coordinates(data, 2, "a half-plane point")
        return complex(x, y)


# ---------------------------------------------------------------------------
# Euclidean space (plane or line)
# ---------------------------------------------------------------------------

def _dot(u, v) -> float:
    return sum(a * b for a, b in zip(u, v))


class EuclideanSegment:
    def __init__(self, space: "EuclideanSpace", a: tuple, b: tuple):
        self.space = space
        self.start = a
        self.end = b
        self.length = math.dist(a, b)

    def point_at(self, s: float) -> tuple:
        s = _clamped(s, self.length)
        if self.length == 0.0:
            return self.start
        t = s / self.length
        return tuple(a + t * (b - a) for a, b in zip(self.start, self.end))


class EuclideanSpace:
    """Flat R^dim; the negative control where nothing contracts."""

    kind = "euclidean"

    def __init__(self, dim: int = 2, dd_constant: float = 0.0, tol: float = 1e-9):
        # checked before any point of dim coordinates is formed
        checked_number(dim, "euclidean dim", int)
        if dim > MAX_DIM:
            raise InputError(f"euclidean dim must be at most {MAX_DIM}, got {dim!r}")
        self.dim = dim
        self.dd_constant = dd_constant
        self.tol = tol

    def validate_point(self, p) -> tuple:
        p = tuple(float(c) for c in (p if isinstance(p, Iterable) else (p,)))
        if len(p) != self.dim:
            raise InputError(f"point {p!r} has dim {len(p)}, expected {self.dim}")
        if not all(math.isfinite(c) for c in p):
            raise InputError(f"non-finite coordinate in {p!r}")
        return p

    def basepoint(self) -> tuple:
        return (0.0,) * self.dim

    def distance(self, x, y) -> float:
        return math.dist(x, y)

    def geodesic(self, a, b) -> EuclideanSegment:
        return EuclideanSegment(self, self.validate_point(a), self.validate_point(b))

    def project(self, x, seg: EuclideanSegment) -> ProjectionResult:
        x = self.validate_point(x)
        if seg.length == 0.0:
            return ProjectionResult(seg.start, math.dist(x, seg.start), 0.0)
        t = sum((c - a) * (b - a)
                for c, a, b in zip(x, seg.start, seg.end)) / seg.length
        t = min(max(t, 0.0), seg.length)
        point = seg.point_at(t)
        d = math.dist(x, point)
        if math.isnan(d):
            raise NumericError("projection produced NaN")
        return ProjectionResult(point, d, t)

    def projections(self, points, seg: EuclideanSegment
                    ) -> tuple[np.ndarray, np.ndarray]:
        """``project(p, seg)`` parameter and distance for every p in
        ``points``: the clamped dot product as one numpy pass."""
        try:
            xs = np.asarray(points, dtype=np.float64).reshape(len(points), self.dim)
        except (TypeError, ValueError) as exc:
            raise InputError(f"not a list of points of dim {self.dim}") from exc
        if not np.isfinite(xs).all():
            raise InputError("non-finite coordinate in a point")
        a = np.array(seg.start)
        if seg.length == 0.0:
            t, feet = np.zeros(len(xs)), a
        else:
            ab = np.array(seg.end) - a
            t = np.clip(((xs - a) * ab).sum(axis=1) / seg.length, 0.0, seg.length)
            feet = a + (t / seg.length)[:, None] * ab
        d = np.sqrt(((xs - feet) ** 2).sum(axis=1))
        if np.isnan(d).any():
            raise NumericError("projection produced NaN")
        return t, d

    def segment_distance(self, s1, s2) -> float:
        """|p(s) - q(t)|² is a convex quadratic on the parameter rectangle,
        so its minimum is the interior critical point, when there is one
        inside, or lies on an edge, where it is an endpoint-to-segment
        distance."""
        best = min(self.project(p, s).distance for p, s in (
            (s1.start, s2), (s1.end, s2), (s2.start, s1), (s2.end, s1)))
        u = [b - a for a, b in zip(s1.start, s1.end)]
        v = [b - a for a, b in zip(s2.start, s2.end)]
        w = [a - b for a, b in zip(s1.start, s2.start)]
        uu, vv, uv = _dot(u, u), _dot(v, v), _dot(u, v)
        det = uu * vv - uv * uv
        # (nearly) parallel or degenerate segments reach their minimum on an edge
        if det > 1e-12 * uu * vv:
            uw, vw = _dot(u, w), _dot(v, w)
            s = (uv * vw - vv * uw) / det
            t = (uu * vw - uv * uw) / det
            if 0.0 <= s <= 1.0 and 0.0 <= t <= 1.0:
                best = min(best, math.dist(s1.point_at(s * s1.length),
                                           s2.point_at(t * s2.length)))
        return best

    def ball_points(self, center, radius: float, samples: int = 64) -> list[tuple]:
        center = self.validate_point(center)
        pts = [center]
        if self.dim == 1:
            m = max(2, samples // 2)
            for j in range(1, m + 1):
                off = radius * j / m
                pts.append((center[0] + off,))
                pts.append((center[0] - off,))
            return pts
        # axis-aligned boundary points first: they realize extreme shadows
        for i in range(self.dim):
            for sgn in (1.0, -1.0):
                q = list(center)
                q[i] += sgn * radius
                pts.append(tuple(q))
        interior = max(0, samples - len(pts))
        for j in range(1, interior + 1):
            rho = radius * math.sqrt(j / (interior + 1))
            ang = j * GOLDEN_ANGLE
            q = list(center)
            q[0] += rho * math.cos(ang)
            q[1 % self.dim] += rho * math.sin(ang)
            pts.append(tuple(q))
        return pts

    def pairwise_distances(self, points) -> np.ndarray:
        arr = np.asarray(points, dtype=np.float64).reshape(len(points), -1)
        diff = arr[:, None, :] - arr[None, :, :]
        return np.sqrt((diff * diff).sum(axis=2))

    def point_key(self, p):
        return tuple(round(c, 9) for c in p)

    def point_to_json(self, p):
        return list(p)

    def point_from_json(self, data):
        return tuple(_json_coordinates(data, self.dim, f"a point of R^{self.dim}"))


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

class ProductSegment:
    """Geodesic of a product: the pair of factor geodesics traversed with
    constant factor speeds."""

    def __init__(self, space: "ProductSpace", a, b):
        self.space = space
        self.start = a
        self.end = b
        self._sl = space.left.geodesic(a[0], b[0])
        self._sr = space.right.geodesic(a[1], b[1])
        self.length = math.hypot(self._sl.length, self._sr.length)

    def point_at(self, s: float):
        s = _clamped(s, self.length)
        if self.length == 0.0:
            return self.start
        t = s / self.length
        return (self._sl.point_at(t * self._sl.length),
                self._sr.point_at(t * self._sr.length))


class ProductSpace:
    """l^2 product of two model spaces; points are pairs."""

    kind = "product"

    def __init__(self, left, right, dd_constant: float = 1.0, tol: float = 1e-9):
        self.left = left
        self.right = right
        self.dd_constant = dd_constant
        self.tol = tol

    def validate_point(self, p):
        if not isinstance(p, tuple) or len(p) != 2:
            raise InputError(f"product point must be a pair: {p!r}")
        return (self.left.validate_point(p[0]), self.right.validate_point(p[1]))

    def basepoint(self):
        return (self.left.basepoint(), self.right.basepoint())

    def distance(self, x, y) -> float:
        return math.hypot(self.left.distance(x[0], y[0]),
                          self.right.distance(x[1], y[1]))

    def geodesic(self, a, b) -> ProductSegment:
        return ProductSegment(self, self.validate_point(a), self.validate_point(b))

    def project(self, x, seg: ProductSegment) -> ProjectionResult:
        # a product geodesic is not a pair of independently parametrized
        # factor geodesics, so minimize the combined convex function directly
        return _convex_project(self, x, seg)

    def segment_distance(self, s1, s2) -> float:
        return _convex_segment_distance(self, s1, s2)

    def ball_points(self, center, radius: float, samples: int = 64) -> list:
        center = self.validate_point(center)
        pts = [center]
        angles = [0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2]
        per = max(3, samples // (2 * len(angles)))
        for ang in angles:
            rl = radius * math.cos(ang)
            rr = radius * math.sin(ang)
            lefts = (self.left.ball_points(center[0], rl, per)
                     if rl > 1e-12 else [center[0]])
            rights = (self.right.ball_points(center[1], rr, per)
                      if rr > 1e-12 else [center[1]])
            take = max(len(lefts), len(rights))
            for i in range(take):
                pts.append((lefts[i % len(lefts)], rights[i % len(rights)]))
        return pts

    projections = _projections_one_by_one

    def pairwise_distances(self, points) -> np.ndarray:
        dl = self.left.pairwise_distances([p[0] for p in points])
        dr = self.right.pairwise_distances([p[1] for p in points])
        return np.sqrt(dl * dl + dr * dr)

    def point_key(self, p):
        return (self.left.point_key(p[0]), self.right.point_key(p[1]))

    def point_to_json(self, p):
        return [self.left.point_to_json(p[0]), self.right.point_to_json(p[1])]

    def point_from_json(self, data):
        return (self.left.point_from_json(data[0]),
                self.right.point_from_json(data[1]))


# ---------------------------------------------------------------------------
# Shared numeric projection and the axiom checkers
# ---------------------------------------------------------------------------

def _convex_project(space, x, seg) -> ProjectionResult:
    """Bracketed minimization of the convex arclength-to-distance function."""
    x = space.validate_point(x)
    if seg.length == 0.0:
        return ProjectionResult(seg.start, space.distance(x, seg.start), 0.0)
    t = golden_section(lambda s: space.distance(x, seg.point_at(s)),
                       0.0, seg.length, tol=1e-9)
    point = seg.point_at(t)
    d = space.distance(x, point)
    if math.isnan(d):
        raise NumericError("projection produced NaN")
    return ProjectionResult(point, d, t)


def _convex_segment_distance(space, s1, s2) -> float:
    if s1.length == 0.0:
        return space.project(s1.start, s2).distance
    t = golden_section(lambda s: space.project(s1.point_at(s), s2).distance,
                       0.0, s1.length, tol=1e-7)
    return space.project(s1.point_at(t), s2).distance


def check_dd(space, sampler, C: float, tolerance: float | None = None) -> list[dict]:
    """Projections coarsely decrease distances: for sampled (segment, x, x')
    the projections p, p' must satisfy |p - p'| < |x - x'| + C (+ tolerance).
    Returns the violations as report entries (``"check": "dd"``), each
    carrying its witness triple."""
    eps = space.tol if tolerance is None else tolerance
    out = []
    for seg, x, x2 in sampler:
        p = space.project(x, seg)
        p2 = space.project(x2, seg)
        lhs = space.distance(p.point, p2.point)
        rhs = space.distance(x, x2) + C
        if lhs >= rhs + eps:
            out.append({
                "check": "dd",
                "segment": [space.point_to_json(seg.start), space.point_to_json(seg.end)],
                "x": space.point_to_json(x), "x2": space.point_to_json(x2),
                "projection_gap": lhs, "allowed": rhs})
    return out


def check_ft(space, sampler, C: float, tolerance: float | None = None) -> list[dict]:
    """Fellow traveling: for sampled (a, b, a', b') with endpoint displacement
    D, every point of [a', b'] must lie within C + D (+ tolerance) of [a, b].
    Returns the violations as report entries (``"check": "ft"``), each naming
    the first end that violates as its ``point``.

    Only a' and b' are read.  Every model space here is CAT(0), where the
    distance to a convex set is convex along each geodesic (Bridson and
    Haefliger, II.2.5), so on [a', b'] the distance to [a, b] peaks at an
    end.  ``wpd.sampled_hausdorff`` and
    ``expressway.check_witness_confinement`` read their segments' ends by
    the same rule."""
    eps = space.tol if tolerance is None else tolerance
    out = []
    for a, b, a2, b2 in sampler:
        D = max(space.distance(a, a2), space.distance(b, b2))
        base = space.geodesic(a, b)
        for pt in (a2, b2):
            d = space.project(pt, base).distance
            if d >= C + D + eps:
                out.append({
                    "check": "ft",
                    "a": space.point_to_json(a), "b": space.point_to_json(b),
                    "a2": space.point_to_json(a2), "b2": space.point_to_json(b2),
                    "point": space.point_to_json(pt),
                    "deviation": d, "allowed": C + D})
                break
    return out


def _arclength_samples(length: float, step: float) -> list[float]:
    if length == 0.0:
        return [0.0]
    n = max(1, int(math.ceil(length / step)))
    return [length * i / n for i in range(n + 1)]


def space_from_json(data: dict):
    kind = data.get("kind")
    dd, tol = (checked_number(data.get(key, default), f"space {key}", zero_ok=True)
               for key, default in (("dd_constant", 0.0 if kind == "euclidean" else 1.0),
                                    ("tolerance", 1e-9)))
    if kind == "tree":
        return TreeSpace(rank=data.get("rank", 2), dd_constant=dd, tol=tol)
    if kind == "half-plane":
        return HalfPlaneSpace(dd_constant=dd, tol=tol)
    if kind == "euclidean":
        return EuclideanSpace(dim=data.get("dim", 2), dd_constant=dd, tol=tol)
    if kind == "product":
        return ProductSpace(space_from_json(data["left"]), space_from_json(data["right"]),
                            dd_constant=dd, tol=tol)
    raise InputError(f"unknown space kind {kind!r}")
