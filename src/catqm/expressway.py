"""Shortcut systems and the quasimorphisms they induce.

A system fixes an oriented contracting base segment sigma = [x0, w x0] of
length L and lets the whole group translate it.  A piecewise geodesic path
is admissible when no two consecutive pieces are plain geodesics; traversing
a translate of sigma (in its orientation only) costs L - 1 instead of L.
The modified length lambda(a, b) is the infimum of these costs, and

    phi(g) = lambda(g x0, x0) - lambda(x0, g x0)

is the induced potential on the group.  On exact tree models lambda has a
closed form (see the exact tree evaluation notes below): a free group acting
by left multiplication on its tree from a vertex basepoint, with the group's
rank equal to the tree's (the closed form counts the base letters at every
tree vertex, and a narrower group does not translate sigma to all of
them).  Elsewhere enumerating every translate is impossible, so lambda is
computed over a budgeted, deterministic candidate set: a group ball
filtered by a margin around the geodesic.

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

import functools
from typing import Any, NamedTuple

import numpy as np

from .actions import GroupModel, act, image_points, is_exact_tree
from .contraction import ConstantLedger
from .errors import BudgetError, ConfigError, InputError
from .spaces import tree_point
from .words import Word, inverse as word_inverse, multiply as word_multiply
from . import words as W


class Translate(NamedTuple):
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
        # the ball table (``_ball_table``), built on first use
        self._ball_translates: list[Translate] | None = None
        self._ball_ends = None
        self._key_ids: dict = {}
        self._end_ids: dict[Word, tuple[int, int]] = {}
        # exact tree models: the letter sequence of sigma read from the basepoint
        self.sigma_edge_word: Word | None = None
        if self.is_exact_tree():
            x0 = self.basepoint.anchor
            self.sigma_edge_word = word_multiply(word_inverse(x0),
                                                 word_multiply(self.sigma_word, x0))

    # -- structural helpers -------------------------------------------------
    def is_exact_tree(self) -> bool:
        """``actions.is_exact_tree``, with the group as wide as the tree
        (see the module docstring)."""
        return (is_exact_tree(self.group, self.basepoint)
                and self.group.rank == self.space.rank)

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
    """Deterministic list of the translates of sigma by the group ball whose
    endpoints both lie within the effective margin of [a, b].

    The sound margin is D + L (paths that help must stay D-confined, plus
    one segment length of slack); the configured margin caps it at desk
    scale.  One projection pass per query filters the ball, so equivariance
    is only approximate near the ball boundary.  Exceeding the candidate cap
    raises a budget error carrying the truncated list.
    """
    margin = min(sys.margin, sys.ledger.D + sys.L)
    out = _ball_candidates(sys, sys.space.geodesic(a, b), margin)
    if len(out) > sys.candidate_cap:
        raise BudgetError(
            f"{len(out)} candidate translates exceed cap {sys.candidate_cap}",
            partial=out[:sys.candidate_cap])
    return out


def _ball_table(sys: ExpresswaySystem) -> None:
    """Build the system's ball table once: the translates g·sigma of sigma
    by the group ball, in ball order, with their ends g·x0 and
    (g·sigma)·x0 from two whole-ball passes (``GroupModel.ball_images``);
    the starts and then the ends as one input of ``projections``; and the
    id of each end's ``point_key`` among the distinct keys, by word."""
    space, group, x0 = sys.space, sys.group, sys.basepoint
    _, (starts,) = group.ball_images(space, sys.enum_radius, [x0])
    words, (ends,) = group.ball_images(space, sys.enum_radius, [x0], sys._sigma_iso)
    sys._ball_ends = (starts + ends if isinstance(starts, list)
                      else np.concatenate([starts, ends]))
    starts, ends = image_points(starts), image_points(ends)
    sys._ball_translates = list(map(Translate, W.unpack(words), starts, ends))
    ids = [sys._key_ids.setdefault(space.point_key(p), len(sys._key_ids))
           for p in starts + ends]
    sys._end_ids = {t.g: (i, j) for t, i, j in
                    zip(sys._ball_translates, ids, ids[len(starts):])}


def _ball_candidates(sys: ExpresswaySystem, seg, margin: float) -> list[Translate]:
    """The translates of sigma by the group ball whose two ends lie within
    the margin of ``seg``, in ball order: one ``projections`` pass per query
    over the starts and then the ends of every translate."""
    if sys._ball_translates is None:
        _ball_table(sys)
    reach = margin + sys.space.tol
    _, dists = sys.space.projections(sys._ball_ends, seg)
    n = len(sys._ball_translates)
    far = (dists[:n] > reach) | (dists[n:] > reach)
    return [t for t, out in zip(sys._ball_translates, far.tolist()) if not out]


# ---------------------------------------------------------------------------
# Modified length
# ---------------------------------------------------------------------------

class PathStep(NamedTuple):
    point: Any
    edge: str | None          # None for the first node, else "free"/"expressway"
    translate: Word | None = None


class ModifiedLengthResult(NamedTuple):
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
    index on ties: the least entry of ``key``, the distances with each
    settled node's set to infinity.  A row relaxes only the distances it
    strictly improves; with weights >= 0 that is never a settled node's,
    so no mask of open nodes is needed.  Returns (dist, pred), where
    pred[v] is the node before v on its path.
    """
    n = len(weights)
    dist = np.full(n, np.inf)
    dist[0] = 0.0
    key = dist.copy()
    pred = np.full(n, -1, dtype=np.int64)
    while True:
        u = int(key.argmin())
        if u == 1:
            return dist, pred
        key[u] = np.inf
        reach = weights[u] + dist[u]
        better = reach < dist
        np.copyto(dist, reach, where=better)
        np.copyto(key, reach, where=better)
        np.copyto(pred, u, where=better)


def modified_length(sys: ExpresswaySystem, a, b) -> ModifiedLengthResult:
    """lambda(a, b) and a witness path: the closed form on exact tree models
    (``_tree_modified_length``), elsewhere the candidate graph's shortest path.

    The value never exceeds the plain distance (the direct free edge is in
    the graph) and equals the infimum of modified lengths of admissible
    paths through the enumerated candidate set.  Nodes are a, b and the
    distinct ``point_key``s of the candidates' ends, numbered in order of
    first use, each with the first end that has it; the ends' keys are read
    as ids from the system's ball table (``_ball_table``).  The graph is
    solved by a dense O(n^2) Dijkstra in numpy (``_dense_dijkstra``): a
    zero-cost shortcut (L = 1) is an edge like any other, relaxation is
    strict, ties go to the lowest node index, and the search stops at b.
    """
    space = sys.space
    a = space.validate_point(a)
    b = space.validate_point(b)
    key_a, key_b = space.point_key(a), space.point_key(b)
    if key_a == key_b:
        return ModifiedLengthResult(0.0, 0, (PathStep(a, None),), 0)
    if sys.is_exact_tree():
        return _tree_modified_length(sys, a, b)
    translates = enumerate_relevant_expressways(sys, a, b)

    # node of each key id; -1 and -2 stand for keys that no end has
    points = [a, b]
    index = {sys._key_ids.get(key_a, -1): 0, sys._key_ids.get(key_b, -2): 1}

    def node_of(key_id, p):
        if key_id not in index:
            index[key_id] = len(points)
            points.append(p)
        return index[key_id]

    shortcut: dict[tuple[int, int], Word] = {}
    for t in translates:
        # L >= 1, so the two ends of a translate are two nodes
        i, j = sys._end_ids[t.g]
        shortcut.setdefault((node_of(i, t.start), node_of(j, t.end)), t.g)

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
# back, so between vertices
#
#     lambda(a, b) = d(a, b) - (max disjoint forward occurrences of the
#                                base letter sequence in the geodesic word)
#
# and the greedy left-to-right count (str.count) realizes the maximum for
# fixed-length patterns; a window count does not, for a sequence that
# overlaps itself (aba).  ``_tree_phi_rows`` takes phi = forward less
# backward counts for a whole packed array of words in one pass, so
# ``tree_phi_exact`` and the defect grid share one counting rule.  The depth
# k counts whole edges: an occurrence from the far vertex of an end's edge,
# at distance f from the end, overhangs it for 2f and saves 1 - 2f
# (1 - 2f_a - 2f_b past both ends), so ``_tree_modified_length`` reads the
# word widened by those vertices.  The tests check both against the
# candidate graph and a regional oracle.

def _tree_modified_length(sys: ExpresswaySystem, a, b) -> ModifiedLengthResult:
    """lambda(a, b) on an exact tree by one left-to-right pass over the
    widened word's occurrence ends (a tie takes none), and a path free to
    each chosen occurrence's start, along its translate (start x0^-1) sigma,
    and free to b.  ``candidates`` counts the occurrences."""
    space, L = sys.space, len(sys.sigma_edge_word)

    def behind(x, y):   # x, or the end of x's edge that x separates from y
        return x if x.is_vertex else max(map(tree_point, x.edge()), key=lambda v:
                                         space.distance(v, y) - space.distance(v, x))
    qa, qb = behind(a, b), behind(b, a)
    fa, fb = space.distance(qa, a), space.distance(qb, b)
    u = word_multiply(word_inverse(qa.anchor), qb.anchor)
    n = len(u)
    ends = {k for k in range(L, n + 1) if u[k - L:k] == sys.sigma_edge_word}
    best = [(0.0, ())] * (n + 1)   # the largest saving (>= 0) in u[:k], its starts
    for k in range(1, n + 1):
        gain = (best[k - L][0] + 1.0 - 2.0 * fa * (k == L) - 2.0 * fb * (k == n)
                if k in ends else -1.0)
        best[k] = (gain, best[k - L][1] + (k - L,)) if gain > best[k - 1][0] else best[k - 1]
    steps, value, x0inv = [PathStep(a, None)], 0.0, word_inverse(sys.basepoint.anchor)
    for i in best[n][1]:
        start, end = (tree_point(word_multiply(qa.anchor, u[:j])) for j in (i, i + L))
        if start != steps[-1].point:
            value += space.distance(steps[-1].point, start)
            steps.append(PathStep(start, "free"))
        value += sys.L - 1.0
        steps.append(PathStep(end, "expressway", word_multiply(start.anchor, x0inv)))
    if b != steps[-1].point:
        value += space.distance(steps[-1].point, b)
        steps.append(PathStep(b, "free"))
    return ModifiedLengthResult(value, len(best[n][1]), tuple(steps), len(ends))


def _tree_phi_rows(sys: ExpresswaySystem, conjugated) -> np.ndarray:
    """phi on an exact tree of each word w, from the packed rows of its
    conjugates x0^-1 w x0: the greedy counts of the base letter sequence
    less those of its inverse (no padding letter 0 matches), by one loop
    over the start columns with each row's next free column."""
    letters, lens = conjugated
    sigma, phi = sys.sigma_edge_word, np.zeros_like(lens)
    starts = max(letters.shape[1] - len(sigma) + 1, 0)
    for sign, pattern in ((1, sigma), (-1, word_inverse(sigma))):
        hit = np.logical_and.reduce([letters[:, k:k + starts] == x for k, x in enumerate(pattern)])
        free = np.zeros_like(lens)
        for j in np.flatnonzero(hit.any(axis=0)).tolist():
            take = hit[:, j] & (free <= j)
            phi += sign * take
            free[take] = j + len(sigma)
    return phi


def tree_phi_exact(sys: ExpresswaySystem, g: Word) -> float:
    """Exact phi on tree models: the one-row case of ``_tree_phi_rows``."""
    if not sys.is_exact_tree():
        raise InputError("exact evaluation needs a free group on its tree")
    x0 = sys.basepoint.anchor
    u = word_multiply(word_inverse(x0), word_multiply(g, x0))
    return float(_tree_phi_rows(sys, W.pack([u]))[0])


# ---------------------------------------------------------------------------
# Property suites and derived quantities
# ---------------------------------------------------------------------------

class LambdaSamples(NamedTuple):
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


class DefectReport(NamedTuple):
    value: float
    pair: tuple | None
    pairs_checked: int


# Pairs (g, h) per packed pass of the tree defect grid
_GRID_CELLS = 1 << 14


def defect_estimate(sys: ExpresswaySystem, left, right) -> DefectReport:
    """max |phi(g h) - phi(g) - phi(h)| over the pairs of a row g of the
    packed word array ``left`` and a row h of ``right``, g-major (a lower
    bound for ``homogenize``'s ``defect_bound``), and the first pair whose
    defect beats every earlier one (None at 0).  On an exact tree phi(g h)
    is ``_tree_phi_rows`` of (x0^-1 g x0)(x0^-1 h x0), in blocks of rows of
    ``left`` so that memory grows with a block, not the grid; every defect
    is an integer.  Elsewhere phi runs once per word."""
    n = len(right[1])
    if sys.is_exact_tree():
        x0 = sys.basepoint.anchor
        lhs, rhs = (W.grid_products(W.grid_products(W.pack([word_inverse(x0)]), rows),
                                    W.pack([x0])) for rows in (left, right))
        phi_g, phi_h = _tree_phi_rows(sys, lhs), _tree_phi_rows(sys, rhs)
        step = max(1, _GRID_CELLS // n)
        blocks = ((lo, _tree_phi_rows(sys, W.grid_products(
                       (lhs[0][lo:lo + step], lhs[1][lo:lo + step]), rhs)).reshape(-1, n)
                   - phi_g[lo:lo + step, None] - phi_h)
                  for lo in range(0, len(phi_g), step))
    else:
        phi, words = functools.cache(lambda w: phi_sigma(sys, w)), W.unpack(right)
        blocks = [(0, np.array([[phi(word_multiply(g, h)) - phi(g) - phi(h) for h in words]
                                for g in W.unpack(left)]).reshape(-1, n))]
    best, arg = 0.0, None
    for lo, defects in blocks:
        defects = np.fmax(np.abs(defects), 0.0)   # a NaN defect beats nothing
        if defects.size and defects.max() > best:
            i, j = divmod(int(np.argmax(defects)), n)
            best, arg = float(defects[i, j]), (lo + i, j)
    pairs = None if arg is None else (W.unpack(left)[arg[0]], W.unpack(right)[arg[1]])
    return DefectReport(best, pairs, len(left[1]) * n)


def homogenize(sys: ExpresswaySystem, g, n_max: int,
               defect_bound: float | None = None) -> tuple[float, float | None]:
    """phi(g^n)/n together with the error radius defect_bound/n around the
    homogeneous representative (None without a bound)."""
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    g = W.as_word(g)
    phi = tree_phi_exact if sys.is_exact_tree() else phi_sigma
    value = phi(sys, W.power(g, n_max)) / n_max
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
