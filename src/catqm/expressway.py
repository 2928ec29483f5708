"""Shortcut systems and the quasimorphisms they induce.

A system fixes an oriented contracting base segment sigma = [x0, w x0] of
length L and lets the whole group translate it.  A piecewise geodesic path
is admissible when no two consecutive pieces are plain geodesics; traversing
a translate of sigma (in its orientation only) costs L - 1 instead of L.
The modified length lambda(a, b) is the infimum of these costs, and

    phi(g) = lambda(g x0, x0) - lambda(x0, g x0)

is the induced potential on the group.  Enumerating every translate is
impossible, so lambda is computed over a budgeted, deterministic candidate
set: for tree models the candidate policy is exactly equivariant (translates
whose endpoints lie near the geodesic are enumerated directly), elsewhere a
group ball is filtered by a margin around the geodesic.

The candidate graph has the two query points and all candidate endpoints as
nodes, complete free edges weighted by distance, and one directed shortcut
edge per candidate weighted L - 1.  Its shortest path equals the infimum of
modified lengths of admissible paths through the candidate set: admissible
paths corner exactly at candidate endpoints, and any graph path merges into
an admissible path of the same or smaller modified length.

The graph is small and complete, so it is solved by a dense O(n^2) Dijkstra
in numpy over the weight matrix itself.  Every entry is an edge, so a
zero-cost shortcut (L = 1) counts.  Relaxation is strict and ties between
open nodes go to the lowest node index, which fixes the witness path; the
search stops once b is settled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from .actions import GroupModel, act, is_exact_tree
from .contraction import ConstantLedger
from .errors import BudgetError, ConfigError, InputError
from .spaces import tree_point
from .words import Word, inverse as word_inverse, multiply as word_multiply
from . import words as W


@dataclass(frozen=True)
class Translate:
    """One oriented candidate expressway g.sigma."""
    g: Word
    start: Any
    end: Any


class ExpresswaySystem:
    """An oriented base segment, its group translates, and query budgets.

    The constant ledger is required: its confinement constant D caps the
    candidate margin and bounds witness paths.
    """

    def __init__(self, space, group: GroupModel, sigma_word, basepoint=None, *,
                 ledger: ConstantLedger, margin: float = 2.0,
                 enum_radius: int = 5, candidate_cap: int = 20000):
        self.space = space
        self.group = group
        self.sigma_word = W.as_word(sigma_word)
        if not self.sigma_word:
            raise ConfigError("base word must be nontrivial")
        self.basepoint = space.validate_point(
            basepoint if basepoint is not None else space.basepoint())
        self.ledger = ledger
        self.margin = margin
        self.enum_radius = enum_radius
        self.candidate_cap = candidate_cap
        self._sigma_iso = group.from_word(self.sigma_word)
        self.sigma_end = act(space, self._sigma_iso, self.basepoint)
        self.sigma_segment = space.geodesic(self.basepoint, self.sigma_end)
        self.L = self.sigma_segment.length
        if self.L < 1.0:
            raise ConfigError(
                f"base segment length {self.L} < 1 gives negative shortcut weights")
        # the confinement theorem wants L above the ledger threshold; desk
        # scale configurations rarely satisfy it, so it is reported, not
        # enforced
        self.meets_length_hypothesis = self.L > self.ledger.D
        self._ball_translates: list[Translate] | None = None
        self._ball_ends: list = []
        # exact tree models: the letter sequence of sigma read from the
        # basepoint, and the strings of it and its inverse that phi counts
        self.sigma_edge_word: Word | None = None
        if self.is_exact_tree():
            x0 = self.basepoint.anchor
            self.sigma_edge_word = word_multiply(word_inverse(x0),
                                                 word_multiply(self.sigma_word, x0))
            self._patterns = (W.to_string(self.sigma_edge_word),
                              W.to_string(word_inverse(self.sigma_edge_word)))

    # -- structural helpers -------------------------------------------------
    def is_exact_tree(self) -> bool:
        return is_exact_tree(self.group, self.basepoint)

    def describe(self) -> dict:
        return {
            "sigma": W.to_string(self.sigma_word),
            "basepoint": self.space.point_to_json(self.basepoint),
            "length": self.L,
            "margin": self.margin,
            "enum_radius": self.enum_radius,
            "candidate_cap": self.candidate_cap,
            "meets_length_hypothesis": self.meets_length_hypothesis,
        }


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------

def enumerate_relevant_expressways(sys: ExpresswaySystem, a, b) -> list[Translate]:
    """Deterministic list of translates whose endpoints both lie within the
    effective margin of [a, b].

    The sound margin is D + L (paths that help must stay D-confined, plus
    one segment length of slack); the configured margin caps it at desk
    scale.  Tree models enumerate the neighborhood of the geodesic directly,
    which makes the candidate set exactly equivariant; other models filter a
    group ball with one projection pass per query (``space.projections``
    over the ends of every ball translate), so equivariance there is only
    approximate near the ball boundary.  Exceeding the candidate cap raises
    a budget error carrying the truncated list.
    """
    margin = min(sys.margin, sys.ledger.D + sys.L)
    seg = sys.space.geodesic(a, b)
    if sys.is_exact_tree():
        out = _tree_candidates(sys, seg, margin)
    else:
        out = _ball_candidates(sys, seg, margin)
    if len(out) > sys.candidate_cap:
        raise BudgetError(
            f"{len(out)} candidate translates exceed cap {sys.candidate_cap}",
            partial=out[:sys.candidate_cap])
    return out


def _tree_candidates(sys: ExpresswaySystem, seg, margin: float) -> list[Translate]:
    space = sys.space
    x0inv = word_inverse(sys.basepoint.anchor)
    chain = seg.chain or seg.start.edge()
    reach = margin + space.tol
    starts = space.packed_vertices_within([tree_point(v) for v in chain],
                                          int(math.ceil(margin)) + 1)
    params, dists = space.vertex_projections(seg, starts)
    near = dists <= reach
    starts, params = (starts[0][near], starts[1][near]), params[near]
    edge, n = W.pack([sys.sigma_edge_word]), len(params)
    ends = W.packed_products(starts, (np.tile(edge[0], (n, 1)), np.tile(edge[1], n)))
    _, dists = space.vertex_projections(seg, ends)
    kept = dists <= reach
    starts, ends = (W.unpack((letters[kept], lens[kept]))
                    for letters, lens in (starts, ends))
    return [Translate(word_multiply(w, x0inv), tree_point(w), tree_point(end))
            for _, w, end in sorted(zip(params[kept].tolist(), starts, ends))]


def _ball_candidates(sys: ExpresswaySystem, seg, margin: float) -> list[Translate]:
    """The translates of sigma by the group ball whose two ends lie within
    the margin of ``seg``, in ball order: one ``projections`` pass per query
    over the starts and then the ends of every translate."""
    space = sys.space
    if sys._ball_translates is None:
        # the translates of sigma by the group ball and their ends, built
        # once per system
        sys._ball_translates = [
            Translate(iso.word, act(space, iso, sys.basepoint),
                      act(space, sys.group.multiply(iso, sys._sigma_iso), sys.basepoint))
            for iso in sys.group.ball(sys.enum_radius)]
        sys._ball_ends = ([t.start for t in sys._ball_translates]
                          + [t.end for t in sys._ball_translates])
    reach = margin + space.tol
    _, dists = space.projections(sys._ball_ends, seg)
    n = len(sys._ball_translates)
    far = (dists[:n] > reach) | (dists[n:] > reach)
    return [t for t, out in zip(sys._ball_translates, far.tolist()) if not out]


# ---------------------------------------------------------------------------
# Modified length
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathStep:
    point: Any
    edge: str | None          # None for the first node, else "free"/"expressway"
    translate: Word | None = None


@dataclass(frozen=True)
class ModifiedLengthResult:
    value: float
    expressways: int
    path: tuple
    candidates: int

    def to_json(self, space) -> dict:
        return {
            "kind": "lambda-witness",
            "value": self.value,
            "expressways": self.expressways,
            "candidates": self.candidates,
            "path": [{"point": space.point_to_json(s.point), "edge": s.edge,
                      "translate": None if s.translate is None else W.to_string(s.translate)}
                     for s in self.path],
        }


def _dense_dijkstra(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest paths from node 0 over the dense matrix ``weights``, every
    entry an edge (zeros included), searched until node 1 is settled.

    The next node settled is the open node of least distance, the lowest
    index on ties; a row relaxes only the distances it strictly improves.
    Returns (dist, pred), where pred[v] is the node before v on its path.
    """
    n = len(weights)
    dist = np.full(n, np.inf)
    dist[0] = 0.0
    pred = np.full(n, -1, dtype=np.int64)
    is_open = np.ones(n, dtype=bool)
    while True:
        u = int(np.argmin(np.where(is_open, dist, np.inf)))
        if u == 1:
            return dist, pred
        is_open[u] = False
        reach = dist[u] + weights[u]
        better = is_open & (reach < dist)
        dist[better] = reach[better]
        pred[better] = u


def modified_length(sys: ExpresswaySystem, a, b) -> ModifiedLengthResult:
    """Exact shortest path over the candidate graph for the query (a, b).

    The value never exceeds the plain distance (the direct free edge is in
    the graph) and equals the infimum of modified lengths of admissible
    paths through the enumerated candidate set.  The graph is solved by a
    dense O(n^2) Dijkstra in numpy (``_dense_dijkstra``): a zero-cost
    shortcut (L = 1) is an edge like any other, relaxation is strict, ties
    go to the lowest node index, and the search stops at b.
    """
    space = sys.space
    a = space.validate_point(a)
    b = space.validate_point(b)
    if space.point_key(a) == space.point_key(b):
        return ModifiedLengthResult(0.0, 0, (PathStep(a, None),), 0)
    translates = enumerate_relevant_expressways(sys, a, b)

    points = [a, b]
    index = {space.point_key(a): 0, space.point_key(b): 1}

    def node_of(p):
        key = space.point_key(p)
        if key not in index:
            index[key] = len(points)
            points.append(p)
        return index[key]

    shortcut: dict[tuple[int, int], Word] = {}
    for t in translates:
        i, j = node_of(t.start), node_of(t.end)
        if i != j:
            shortcut.setdefault((i, j), t.g)

    weights = np.asarray(sys.space.pairwise_distances(points), dtype=np.float64)
    cost = sys.L - 1.0
    for (i, j) in shortcut:
        if cost < weights[i, j]:
            weights[i, j] = cost
    np.fill_diagonal(weights, 0.0)

    dist, pred = _dense_dijkstra(weights)
    value = float(dist[1])
    node_path = [1]
    while node_path[-1] != 0:
        node_path.append(int(pred[node_path[-1]]))
    node_path.reverse()

    steps = [PathStep(points[node_path[0]], None)]
    n_exp = 0
    for u, v in zip(node_path, node_path[1:]):
        g = shortcut.get((u, v))
        if g is not None and abs(weights[u, v] - cost) <= 1e-12:
            steps.append(PathStep(points[v], "expressway", g))
            n_exp += 1
        else:
            steps.append(PathStep(points[v], "free"))
    return ModifiedLengthResult(value, n_exp, tuple(steps), len(translates))


def phi_sigma(sys: ExpresswaySystem, g) -> float:
    """lambda(g x0, x0) - lambda(x0, g x0)."""
    gx0 = act(sys.space, sys.group.from_word(g), sys.basepoint)
    return (modified_length(sys, gx0, sys.basepoint).value
            - modified_length(sys, sys.basepoint, gx0).value)


# ---------------------------------------------------------------------------
# Exact tree evaluation
# ---------------------------------------------------------------------------
#
# In a tree only translates lying forward along the geodesic can lower the
# modified length: a shortcut hanging off the geodesic at combined endpoint
# depth k costs 2k extra travel against its saving of 1.  Disjoint forward
# occurrences each save exactly 1 and overlapping ones pay their overlap
# back, so
#
#     lambda(a, b) = d(a, b) - (max disjoint forward occurrences of the
#                                base letter sequence in the geodesic word)
#
# and the greedy left-to-right count (str.count) realizes the maximum for
# fixed-length patterns.  The test suite cross-validates this against the
# candidate graph and an exhaustive regional shortest-path oracle.

def tree_phi_exact(sys: ExpresswaySystem, g: Word) -> float:
    """Exact phi on tree models: forward minus backward greedy-disjoint
    occurrence counts of the base letter sequence in the geodesic word."""
    if not sys.is_exact_tree():
        raise InputError("exact evaluation needs a free group on its tree")
    x0 = sys.basepoint.anchor
    u = word_multiply(word_inverse(x0), word_multiply(g, x0))
    s = W.to_string(u)
    pattern, anti = sys._patterns
    return float(s.count(pattern) - s.count(anti))


def phi_evaluator(sys: ExpresswaySystem) -> Callable[[Word], float]:
    """Word-level evaluator for phi; exact closed form on tree models,
    candidate-graph shortest paths elsewhere."""
    if sys.is_exact_tree():
        return lambda w: tree_phi_exact(sys, w)
    return lambda w: phi_sigma(sys, w)


# ---------------------------------------------------------------------------
# Property suites and derived quantities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaSamples:
    pairs: tuple = ()                # (a, b)
    endpoint_moves: tuple = ()       # (a, b, a2, b2)
    group_elements: tuple = ()       # words applied to the pairs
    collinear_triples: tuple = ()    # (a, b, c) with b on [a, c]


def check_lambda_properties(sys: ExpresswaySystem, samples: LambdaSamples,
                            tolerance: float | None = None) -> list[dict]:
    """All five interface properties of the modified length on samples:
    bounded by distance, 2-Lipschitz in the endpoints, translation
    invariant, equal to distance when no candidate fits, and coarsely
    additive along geodesics (slack 2 D + 1)."""
    space = sys.space
    eps = space.tol if tolerance is None else tolerance
    violations = []

    def note(kind, data):
        violations.append({"property": kind, **data})

    lam = lambda x, y: modified_length(sys, x, y).value

    pair_values = []
    for a, b in samples.pairs:
        result = modified_length(sys, a, b)
        value, d = result.value, space.distance(a, b)
        pair_values.append(value)
        if value > d + eps:
            note("upper_bound", {"lambda": value, "distance": d})
        if result.candidates == 0 and abs(value - d) > eps:
            note("distance_when_empty", {"lambda": value, "distance": d})

    for a, b, a2, b2 in samples.endpoint_moves:
        lhs = abs(lam(a, b) - lam(a2, b2))
        rhs = space.distance(a, a2) + space.distance(b, b2)
        if lhs > rhs + eps:
            note("lipschitz", {"gap": lhs, "allowed": rhs})

    for g in samples.group_elements:
        iso = sys.group.from_word(g)
        for (a, b), v1 in zip(samples.pairs, pair_values):
            ga, gb = act(space, iso, a), act(space, iso, b)
            v2 = lam(ga, gb)
            if abs(v1 - v2) > eps:
                note("invariance", {"g": W.to_string(g), "lambda": v1,
                                    "translated": v2})

    slack = 2.0 * sys.ledger.D + 1.0
    for a, b, c in samples.collinear_triples:
        lac = lam(a, c)
        split = lam(a, b) + lam(b, c)
        if lac > split + eps:
            note("subadditive", {"lambda_ac": lac, "split": split})
        if lac <= split - slack - eps:
            note("coarse_additive", {"lambda_ac": lac, "split": split,
                                     "slack": slack})
    return violations


@dataclass(frozen=True)
class DefectReport:
    value: float
    pair: tuple | None
    pairs_checked: int


def defect_estimate(sys: ExpresswaySystem, pairs: Iterable[tuple[Word, Word]]
                    ) -> DefectReport:
    """max |phi(g g') - phi(g) - phi(g')| over the sampled pairs; a lower
    bound for the true defect that never decreases as the sample grows.
    A caller passes the value to ``homogenize`` as its ``defect_bound``."""
    phi = phi_evaluator(sys)
    cache: dict[Word, float] = {}

    def ev(w: Word) -> float:
        if w not in cache:
            cache[w] = phi(w)
        return cache[w]

    best = 0.0
    arg = None
    count = 0
    for g, h in pairs:
        count += 1
        d = abs(ev(word_multiply(g, h)) - ev(g) - ev(h))
        if d > best:
            best, arg = d, (g, h)
    return DefectReport(best, arg, count)


def homogenize(sys: ExpresswaySystem, g, n_max: int,
               defect_bound: float | None = None) -> tuple[float, float | None]:
    """phi(g^n)/n together with the error radius defect_bound/n around the
    homogeneous representative (None without a bound)."""
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    g = W.as_word(g)
    value = phi_evaluator(sys)(W.power(g, n_max)) / n_max
    return value, (None if defect_bound is None else defect_bound / n_max)


def independence_matrix(systems: list[ExpresswaySystem], testers: list,
                        n_max: int = 16, pivot_tol: float = 1e-6
                        ) -> tuple[np.ndarray, int]:
    """Homogenized evaluation matrix M[i][j] = phi_i(tester_j) and its rank
    at the pivot tolerance."""
    if len(testers) < len(systems):
        raise InputError("need at least as many testers as systems")
    M = np.array([[homogenize(s, t, n_max)[0] for t in testers]
                  for s in systems])
    rank = int(np.linalg.matrix_rank(M, tol=pivot_tol))
    return M, rank


def check_witness_confinement(sys: ExpresswaySystem, result: ModifiedLengthResult,
                              a, b) -> tuple[bool, float]:
    """Every point of the witness path must stay inside the ledger's
    confinement neighborhood of [a, b]; returns (ok, max deviation).  Each
    piece is read at its two ends, where its distance to [a, b] peaks (see
    ``spaces.check_ft``)."""
    space = sys.space
    seg = space.geodesic(a, b)
    worst = 0.0
    for prev, step in zip(result.path, result.path[1:]):
        piece = space.geodesic(prev.point, step.point)
        for end in (piece.point_at(0.0), piece.point_at(piece.length)):
            worst = max(worst, space.project(end, seg).distance)
    return worst <= sys.ledger.D + space.tol, worst
