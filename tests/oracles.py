"""Independent oracles for the test suite.

These deliberately avoid the package's candidate-graph machinery: the
modified-length oracle runs plain Dijkstra over actual tree vertices with
unit tree edges plus one directed shortcut edge per translate inside the
search region, and the projection oracle is brute-force minimization over
enumerated candidates.  The per-ball certificate loop
``certify_contracting_per_ball`` is the reference for the lazy off-tree
certificate; ``tree_vertices_within`` lists a tree ball one ``multiply``
per word for the test of the tree's contraction theorem;
``tree_candidates_per_translate`` is the reference for the batched tree
expressway candidates and ``ball_candidates_per_translate`` for the
off-tree ball filter's one projection pass; and the exhaustive tree families
(``dd_triples_tree_exhaustive``, ``ft_quads_tree_exhaustive``,
``tree_triples_exhaustive``, ``tree_dichotomy_configs``,
``tree_variation_configs``) feed the per-configuration checkers, the
reference for the runner's batched axiom routes and distance-matrix
tallies.  ``check_ft_per_sample``, ``sampled_hausdorff_per_sample`` and
``witness_confinement_per_sample`` walk every segment where the package
reads its two ends, and ``conjugacy_rotation_oracle`` matches cyclic cores
by rotation where the package compares conjugacy keys.
``extension_defect_oracle`` forms the product of every pair of the
extension ball, with no symmetry and no class cache, and evaluates the
distinct products in one ``phi.packed`` pass; the packed chain itself is
pinned to the scalar one by its own test.
``sigma_invariance_oracle`` lists the invariance witnesses word by word,
the reference for their order.  ``floyd_warshall`` is the all-pairs
reference for the candidate graph's dense Dijkstra.  Three helpers only
the tests need sit here as well: the closed-form tree modified length
``tree_lambda_exact``, the search helper ``contraction_scale`` over the
package's certificate, and the contracting-chain check ``chain_check``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from catqm import words as W
from catqm.actions import act
from catqm.contraction import (
    CERTIFIED,
    MIN_GAP,
    REFUTED,
    SAMPLE_STEP,
    BallWitness,
    CertBudget,
    ContractionCertificate,
    _candidate_centers,
    certify_contracting,
    phi_chain,
    projection_diameter_under_ball,
)
from catqm.errors import InputError
from catqm.expressway import Translate
from catqm.spaces import _arclength_samples, tree_point, vertex
from catqm.words import multiply, inverse, word_distance


def tree_vertex_path(a: tuple, b: tuple) -> list[tuple]:
    k = W.common_prefix_length(a, b)
    down = [a[:i] for i in range(len(a), k, -1)]
    up = [b[:i] for i in range(k, len(b) + 1)]
    return down + up


def tree_lambda_oracle(sigma: tuple, a: tuple, b: tuple, rank: int = 2,
                       slack: int = 1) -> tuple[float, int]:
    """Exhaustive shortest modified length between tree vertices.

    Region soundness: a path through a point at distance delta from the
    geodesic has total length at least d + 2 delta (tree identity), and a
    path using e full shortcuts of length L has modified length at least
    max(e (L - 1), d + 2 delta - e).  Equating shows any path leaving the
    radius d / (2 (L - 1)) neighborhood already costs at least d, which the
    plain geodesic achieves, so searching inside that radius plus slack is
    exact.  At L = 1 a shortcut is one edge at cost 0, forward only: a
    detour off the geodesic crosses each of its edges both ways, and one of
    the two crossings costs 1, so no optimum leaves the geodesic and the
    slack alone is the radius.

    Returns (modified length, number of shortcuts used by one optimum).
    """
    L = len(sigma)
    if L < 1:
        raise ValueError("oracle needs a nontrivial shortcut")
    d = word_distance(a, b)
    if d == 0:
        return 0.0, 0
    radius = slack if L == 1 else int(math.floor(d / (2.0 * (L - 1)))) + slack
    region = set()
    for v in tree_vertex_path(a, b):
        for u in W.ball(rank, radius, cap=max(radius, 12)):
            region.add(multiply(v, u))

    letters = [x for k in range(1, rank + 1) for x in (k, -k)]
    shortcut_cost = float(L - 1)

    def neighbors(v):
        for x in letters:
            w = multiply(v, (x,))
            if w in region:
                yield w, 1.0, 0
        end = multiply(v, sigma)
        if end in region:
            yield end, shortcut_cost, 1

    dist = {a: (0.0, 0)}
    heap = [(0.0, 0, a)]
    while heap:
        cost, used, v = heapq.heappop(heap)
        if v == b:
            return cost, used
        if dist.get(v, (math.inf, 0))[0] < cost:
            continue
        for w, step, is_shortcut in neighbors(v):
            cand = cost + step
            if cand < dist.get(w, (math.inf, 0))[0]:
                dist[w] = (cand, used + is_shortcut)
                heapq.heappush(heap, (cand, used + is_shortcut, w))
    raise RuntimeError("target not reached inside the region")


def floyd_warshall(weights) -> list[list[float]]:
    """All-pairs shortest path lengths of a dense directed weight matrix,
    every entry an edge, by the textbook triple loop."""
    n = len(weights)
    d = [[float(w) for w in row] for row in weights]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            di = d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def tree_phi_oracle(sigma: tuple, g: tuple, rank: int = 2) -> float:
    back, _ = tree_lambda_oracle(sigma, g, W.IDENTITY, rank)
    fwd, _ = tree_lambda_oracle(sigma, W.IDENTITY, g, rank)
    return back - fwd


def tree_lambda_exact(sys, u: tuple, v: tuple) -> float:
    """Closed-form modified length between tree vertices u.x0 and v.x0: the
    tree distance minus the greedy count of disjoint forward occurrences of
    the base letter sequence in the geodesic word (see the exact tree
    evaluation notes in ``catqm.expressway``)."""
    if not sys.is_exact_tree():
        raise InputError("exact evaluation needs a free group on its tree")
    x0 = sys.basepoint.anchor
    geo = W.to_string(multiply(inverse(multiply(u, x0)), multiply(v, x0)))
    return float(len(geo) - geo.count(W.to_string(sys.sigma_edge_word)))


def contraction_scale(space, seg, budget=None) -> float:
    """Smallest B the budget cannot refute: the largest observed projection
    diameter plus the space tolerance."""
    cert = certify_contracting(space, seg, B=float("inf"), budget=budget)
    return cert.max_diameter + space.tol


def tree_vertices_within(space, p, radius: float) -> list:
    """The vertices within the radius of the tree point p, one ``multiply``
    per word, in (length, word) order: through each end of p's edge (p
    itself for a vertex) at cost c, the words of the word ball of radius
    ⌊radius − c⌋."""
    exits = [(p.anchor, 0.0)] if p.is_vertex else list(zip(p.edge(), (p.t, 1.0 - p.t)))
    out = dict.fromkeys(multiply(w, u) for w, cost in exits
                        if (rem := math.floor(radius - cost + 1e-9)) >= 0
                        for u in W.ball(space.rank, rem))
    return [tree_point(w) for w in sorted(out, key=lambda w: (len(w), w))]


def certify_contracting_per_ball(space, seg, B: float, budget=None
                                 ) -> ContractionCertificate:
    """The off-tree ``certify_contracting`` one ball at a time: each ball's
    diameter from its own ``projection_diameter_under_ball`` call, the loop
    stopping at the first refuting ball."""
    budget = budget or CertBudget()
    max_diam = 0.0
    checked = 0
    for center in _candidate_centers(space, seg, budget, B)[0]:
        d = space.project(center, seg).distance
        if d <= MIN_GAP:
            continue
        radii = {d - MIN_GAP}
        if d > 2.0 * MIN_GAP:
            radii.add(d / 2.0)
        for radius in sorted(radii, reverse=True):
            diam = projection_diameter_under_ball(space, seg, center, radius,
                                                  budget.ball_samples)
            checked += 1
            max_diam = max(max_diam, diam)
            if diam >= B - space.tol:
                witness = BallWitness(center, radius, diam, budget.ball_samples)
                return ContractionCertificate(
                    (seg.start, seg.end), B, REFUTED, max_diam, checked, witness)
    return ContractionCertificate((seg.start, seg.end), B, CERTIFIED,
                                  max_diam, checked, None)


def dd_triples_tree_exhaustive(space, seg_radius: int, point_radius: int) -> Iterator:
    """Every (segment from the identity, x, x') configuration; the identity
    anchoring is the invariance reduction."""
    e = vertex("")
    pts = [tree_point(w) for w in W.ball(space.rank, point_radius)]
    for v in W.ball(space.rank, seg_radius):
        seg = space.geodesic(e, tree_point(v))
        for x in pts:
            for x2 in pts:
                yield seg, x, x2


def ft_quads_tree_exhaustive(space, seg_radius: int, D: int = 1) -> Iterator:
    """Every (e, b, a', b') with |b| <= seg_radius and a', b' within D of
    e, b."""
    e = vertex("")
    moves = [tree_point(w) for w in W.ball(space.rank, D)]
    for v in W.ball(space.rank, seg_radius):
        b = tree_point(v)
        for a2 in moves:
            for u in W.ball(space.rank, D):
                b2 = tree_point(multiply(v, u))
                yield e, b, a2, b2


def tree_candidates_per_translate(sys, seg, margin: float) -> list:
    """``expressway._tree_candidates`` one translate at a time: each start
    word of chain x shell and its sigma-translate end projected by its own
    ``project`` call, sorted by (parameter, start word)."""
    space = sys.space
    x0inv = inverse(sys.basepoint.anchor)
    shell = W.ball(space.rank, int(math.ceil(margin)) + 1)
    sigma_edge = sys.sigma_edge_word
    seen: set = set()
    picked = []
    for v in seg.chain or seg.start.edge():
        for u in shell:
            start_w = multiply(v, u)
            if start_w in seen:
                continue
            seen.add(start_w)
            start = tree_point(start_w)
            ps = space.project(start, seg)
            if ps.distance > margin + space.tol:
                continue
            end = tree_point(multiply(start_w, sigma_edge))
            if space.project(end, seg).distance > margin + space.tol:
                continue
            picked.append((ps.parameter, start_w,
                           Translate(multiply(start_w, x0inv), start, end)))
    picked.sort(key=lambda item: (item[0], item[1]))
    return [t for _, _, t in picked]


def ball_candidates_per_translate(sys, seg, margin: float) -> list:
    """``expressway._ball_candidates`` one translate at a time: each
    translate of sigma by the group ball, built here from the action, kept
    when neither end projects farther than the margin, each end by its own
    ``project`` call, in ball order."""
    space = sys.space
    reach = margin + space.tol
    picked = []
    for iso in sys.group.ball(sys.enum_radius):
        start = act(space, iso, sys.basepoint)
        end = act(space, sys.group.multiply(iso, sys._sigma_iso), sys.basepoint)
        if not (space.project(start, seg).distance > reach
                or space.project(end, seg).distance > reach):
            picked.append(Translate(iso.word, start, end))
    return picked


def tree_triples_exhaustive(space, radius: int) -> Iterator[tuple]:
    """(a, b, c) families for the triangle lemmas, a fixed at the identity."""
    e = vertex("")
    ws = W.ball(space.rank, radius)
    for bw in ws:
        if not bw:
            continue
        b = tree_point(bw)
        for cw in ws:
            yield e, b, tree_point(cw)


def tree_dichotomy_configs(space, radius: int) -> Iterator[tuple]:
    """(segment [e, v], x, y) with x shadowed behind e and y behind v, the
    projection-to-endpoint hypotheses baked into the enumeration."""
    for vw in W.ball(space.rank, radius):
        if not vw:
            continue
        v = tree_point(vw)
        seg = space.geodesic(vertex(""), v)
        behind_e = [tree_point(x) for x in W.ball(space.rank, radius)
                    if not x or x[0] != vw[0]]
        tails = [t for t in W.ball(space.rank, radius - len(vw))
                 if not t or t[0] != -vw[-1]]
        behind_v = [tree_point(multiply(vw, t)) for t in tails]
        for x in behind_e:
            for y in behind_v:
                yield seg, x, y


def tree_variation_configs(space, radius: int) -> Iterator[tuple]:
    """(contracting segment, far segment) pairs; hypothesis filtering stays
    in the checker so skipped configurations are visible."""
    ws = W.ball(space.rank, radius)
    e = vertex("")
    for bw in ws:
        if len(bw) < 2:
            continue
        seg_ab = space.geodesic(e, tree_point(bw))
        for pw in ws:
            if not pw or pw[0] == bw[0]:
                continue
            for qw in ws:
                if len(qw) <= len(pw) or qw[:len(pw)] != pw:
                    continue
                yield seg_ab, space.geodesic(tree_point(pw), tree_point(qw))


@dataclass(frozen=True)
class ChainOutcome:
    skipped: bool
    reason: str | None
    neighborhood_bound: float | None
    certificate: ContractionCertificate | None


def chain_check(space, points: list, B: float, ledger, budget=None,
                step: float = 0.5) -> ChainOutcome:
    """Chains of contracting segments with large gaps between next-nearest
    pieces produce a contracting geodesic that shadows the chain.

    Each consecutive segment must certify at scale B and the gap hypothesis
    d([x_i, x_i+1], [x_i+2, x_i+3]) > chain constant (``phi_chain`` at the
    ledger's (B, C)) must hold; otherwise the configuration is skipped, not
    counted as a violation.
    """
    if len(points) < 2:
        raise InputError("need at least two chain points")
    segs = [space.geodesic(points[i], points[i + 1]) for i in range(len(points) - 1)]
    for seg in segs:
        if certify_contracting(space, seg, B, budget).refuted:
            return ChainOutcome(True, "piece fails contraction", None, None)
    bound = phi_chain(ledger.B, ledger.C)
    for i in range(len(segs) - 2):
        if space.segment_distance(segs[i], segs[i + 2]) <= bound:
            return ChainOutcome(True, "gap hypothesis unmet", None, None)
    whole = space.geodesic(points[0], points[-1])
    worst = 0.0
    for s in _arclength_samples(whole.length, step):
        pt = whole.point_at(s)
        d = min(space.project(pt, seg).distance for seg in segs)
        worst = max(worst, d)
    cert = certify_contracting(space, whole, bound, budget)
    return ChainOutcome(False, None, worst, cert)


def bfs_projection_oracle(space, x, seg, step: float = 0.5):
    """Brute-force nearest point of a segment by dense parameter scan."""
    best = (math.inf, None, None)
    n = max(1, int(math.ceil(seg.length / step)))
    for i in range(n + 1):
        s = seg.length * i / n
        p = seg.point_at(s)
        d = space.distance(x, p)
        if d < best[0]:
            best = (d, p, s)
    return best


# -- per-sample references of the segment-ends routes -------------------------
# Each walks its segments every SAMPLE_STEP of arclength where the package
# reads only the two ends.

def check_ft_per_sample(space, sampler, C: float, tolerance: float | None = None
                        ) -> list[dict]:
    """``spaces.check_ft`` over samples of the geodesic [a', b']; a flagged
    quad reports its first violating sample."""
    eps = space.tol if tolerance is None else tolerance
    out = []
    for a, b, a2, b2 in sampler:
        D = max(space.distance(a, a2), space.distance(b, b2))
        base = space.geodesic(a, b)
        moved = space.geodesic(a2, b2)
        for s in _arclength_samples(moved.length, SAMPLE_STEP):
            pt = moved.point_at(s)
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


def sampled_hausdorff_per_sample(space, seg1, seg2) -> float:
    worst = 0.0
    for seg, other in ((seg1, seg2), (seg2, seg1)):
        for s in _arclength_samples(seg.length, SAMPLE_STEP):
            worst = max(worst, space.project(seg.point_at(s), other).distance)
    return worst


def witness_confinement_per_sample(sys, result, a, b) -> tuple[bool, float]:
    space = sys.space
    seg = space.geodesic(a, b)
    worst = 0.0
    prev = None
    for stepdata in result.path:
        if prev is not None:
            piece = space.geodesic(prev, stepdata.point)
            for s in _arclength_samples(piece.length, SAMPLE_STEP):
                worst = max(worst, space.project(piece.point_at(s), seg).distance)
        prev = stepdata.point
    return worst <= sys.ledger.D + space.tol, worst


def count_occurrences_overlapping(pattern: str, text: str) -> int:
    return sum(1 for i in range(len(text)) if text.startswith(pattern, i))


# -- words and the finite-extension quasimorphism chain -----------------------
# Straightforward formulas: every word is checked and serialized where it is
# used, every permutation is applied letter by letter.

def reduce_word(letters) -> tuple:
    """Freely reduce a letter sequence."""
    out = []
    for x in letters:
        if x == 0:
            raise InputError("letter 0 is not a generator")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def conjugacy_rotation_oracle(u: tuple, v: tuple) -> bool:
    """Free-group conjugacy: the cyclic cores are rotations of one another."""
    cu, _ = W.cyclic_reduce(check_reduced_oracle(u))
    cv, _ = W.cyclic_reduce(check_reduced_oracle(v))
    doubled = cv + cv
    return len(cu) == len(cv) and any(doubled[i:i + len(cu)] == cu
                                      for i in range(max(1, len(cu))))


def is_cyclically_reduced(w: tuple) -> bool:
    return len(w) < 2 or w[0] != -w[-1]


def ball_size(rank: int, radius: int) -> int:
    """1 + 2k * ((2k-1)^r - 1) / (2k - 2) for rank k >= 2; 2r+1 for rank 1."""
    if rank == 1:
        return 2 * radius + 1
    q = 2 * rank - 1
    return 1 + 2 * rank * (q**radius - 1) // (q - 1)


def is_reduced_oracle(w) -> bool:
    return all(w[i] != -w[i + 1] for i in range(len(w) - 1)) and 0 not in w


def check_reduced_oracle(w) -> tuple:
    if not is_reduced_oracle(w):
        raise InputError(f"word is not freely reduced: {w!r}")
    return tuple(w)


def to_string_oracle(w) -> str:
    chars = []
    for x in w:
        c = chr(ord("a") + abs(x) - 1)
        chars.append(c if x > 0 else c.upper())
    return "".join(chars)


def perm_apply_oracle(p: tuple, w: tuple) -> tuple:
    return tuple((p[x - 1] if x > 0 else -p[-x - 1]) for x in w)


def perm_inverse_oracle(p: tuple) -> tuple:
    return tuple(p.index(k) + 1 for k in range(1, len(p) + 1))


def brooks_oracle(w: tuple, g: tuple) -> int:
    s = to_string_oracle(check_reduced_oracle(g))
    return (count_occurrences_overlapping(to_string_oracle(w), s)
            - count_occurrences_overlapping(to_string_oracle(inverse(w)), s))


def homogeneous_brooks_oracle(w: tuple, g: tuple) -> float:
    """Starts of w minus starts of w^-1 inside one period of the periodic
    word of g's cyclic core, read by string search over the core repeated
    until every start in the period sees a whole pattern; independent of
    the packed index kernel behind ``homogeneous_brooks_qm``."""
    w = check_reduced_oracle(w)
    core, _ = W.cyclic_reduce(check_reduced_oracle(g))
    if not core:
        return 0.0
    reps = max(2, math.ceil((len(core) + len(w)) / len(core)))
    window = to_string_oracle(core) * reps
    period = len(core)

    def starts_inside_period(pattern: str) -> int:
        count = 0
        i = window.find(pattern)
        while 0 <= i < period:
            count += 1
            i = window.find(pattern, i + 1)
        return count

    return float(starts_inside_period(to_string_oracle(w))
                 - starts_inside_period(to_string_oracle(inverse(w))))


def extension_multiply_oracle(perms: list, a: tuple, b: tuple) -> tuple:
    """(u, p)(v, q) = (u p(v), pq) on (word, permutation index) pairs."""
    (u, s), (v, t) = a, b
    p, q = perms[s], perms[t]
    pq = tuple(p[q[i] - 1] for i in range(len(p)))
    return multiply(u, perm_apply_oracle(p, v)), perms.index(pq)


def transfer_average_oracle(perms: list, f, g: tuple) -> float:
    """phi(g^N)/N for phi the orbit sum of f, with g^N = 1 g ... g and
    (sigma . f)(h) = f(sigma^-1(h))."""
    N = len(perms)
    power = ((), 0)
    for _ in range(N):
        power = extension_multiply_oracle(perms, power, g)
    h, sigma = power
    assert sigma == 0
    return sum(f(perm_apply_oracle(perm_inverse_oracle(p), h))
               for p in perms) / N


def extension_defect_oracle(ext, phi, radius: int) -> float:
    """Defect of phi over every pair of the extension ball, each product
    formed by its own ``multiply`` (no symmetry, no class cache); the ball
    and the distinct products are evaluated in one ``phi.packed`` pass."""
    elements = ext.ball(radius)
    words_ = [g.word for g in elements]
    sigmas = [g.sigma for g in elements]
    keys = {}    # distinct (word, sigma) -> its row in the packed pass
    own = [keys.setdefault((g.word, g.sigma), len(keys)) for g in elements]
    views = [[ext.apply_auto(s, w) for w in words_] for s in range(ext.N)]
    products = []
    for gw, gs in zip(words_, sigmas):
        view = views[gs]
        mulrow = ext._mul[gs]
        products.append([keys.setdefault((multiply(gw, view[j]), mulrow[sigmas[j]]),
                                         len(keys)) for j in range(len(elements))])
    values = phi.packed(W.pack([w for w, _ in keys]), np.array([s for _, s in keys]))
    vals = values[own]
    return float(np.abs(values[products] - vals[:, None] - vals[None, :]).max(initial=0.0))


def sigma_invariance_oracle(ext, phi, radius: int, tolerance: float) -> list[dict]:
    """``algebra.check_sigma_invariance`` one word and one sigma at a time:
    the witnesses in ball order, then ascending sigma, with phi's scalar
    values."""
    out = []
    for w in W.ball(ext.rank, radius):
        base = phi(w)
        for s in range(1, ext.N):
            moved = phi(ext.conjugate_by_section(s, w))
            if abs(moved - base) > tolerance:
                out.append({"word": W.to_string(w), "sigma": s,
                            "value": base, "moved": moved})
    return out
