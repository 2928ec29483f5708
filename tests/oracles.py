"""Independent oracles for the test suite.

These deliberately avoid the package's candidate-graph machinery: the
modified-length oracle runs plain Dijkstra over actual tree vertices with
unit tree edges plus one directed shortcut edge per translate inside the
search region, and the projection oracle is brute-force minimization over
enumerated candidates.  The per-ball certificate loop
``certify_contracting_per_ball`` is the reference for the batched ball
diameters, ``tree_candidates_per_translate`` for the batched tree
expressway candidates, and the exhaustive tree families
(``dd_triples_tree_exhaustive``, ``ft_quads_tree_exhaustive``,
``tree_triples_exhaustive``, ``tree_dichotomy_configs``,
``tree_variation_configs``) feed the per-configuration checkers, the
reference for the runner's batched axiom routes and distance-matrix
tallies.  ``check_ft_per_sample``, ``sampled_hausdorff_per_sample`` and
``witness_confinement_per_sample`` walk every segment where the package
reads its two ends, and ``conjugacy_rotation_oracle`` matches cyclic cores
by rotation where the package compares conjugacy keys.  Three helpers only
the tests need sit here as well: the closed-form tree modified length
``tree_lambda_exact``, the search helper ``contraction_scale`` over the
package's certificate, and the contracting-chain check ``chain_check``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator

from catqm import words as W
from catqm.algebra import GElement
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
    exact.

    Returns (modified length, number of shortcuts used by one optimum).
    """
    L = len(sigma)
    if L < 2:
        raise ValueError("oracle needs shortcut length >= 2")
    d = word_distance(a, b)
    if d == 0:
        return 0.0, 0
    radius = int(math.floor(d / (2.0 * (L - 1)))) + slack
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


def certify_contracting_per_ball(space, seg, B: float, budget=None
                                 ) -> ContractionCertificate:
    """``certify_contracting`` one ball at a time: each ball's diameter from
    its own ``projection_diameter_under_ball`` call, the loop stopping at
    the first refuting ball."""
    budget = budget or CertBudget()
    max_diam = 0.0
    checked = 0
    for center, _ in _candidate_centers(space, seg, budget, B):
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
    word of g's cyclic core."""
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
    evaluated once per element (no symmetry, no class cache)."""
    elements = ext.ball(radius)
    words_ = [g.word for g in elements]
    sigmas = [g.sigma for g in elements]
    vals = [phi(g) for g in elements]
    cache = {(w, s): v for w, s, v in zip(words_, sigmas, vals)}
    views = [[ext.apply_auto(s, w) for w in words_] for s in range(ext.N)]
    worst = 0.0
    n = len(elements)
    for i in range(n):
        gw, gs, vg = words_[i], sigmas[i], vals[i]
        view = views[gs]
        mulrow = ext._mul[gs]
        for j in range(n):
            key = (multiply(gw, view[j]), mulrow[sigmas[j]])
            vp = cache.get(key)
            if vp is None:
                vp = phi(GElement(*key))
                cache[key] = vp
            worst = max(worst, abs(vp - vg - vals[j]))
    return worst
