"""Deterministic configuration generators for the axiom and lemma suites.

All randomness flows from a single integer seed through hashed child seeds,
so every suite is reproducible and every violation can be regenerated.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Iterator

from .spaces import tree_point
from .words import Word


def child_seed(seed: int, purpose: str) -> int:
    digest = hashlib.sha256(f"{seed}/{purpose}".encode()).hexdigest()
    return int(digest[:16], 16)


def rng_for(seed: int, purpose: str) -> random.Random:
    return random.Random(child_seed(seed, purpose))


# ---------------------------------------------------------------------------
# Random points per space kind
# ---------------------------------------------------------------------------

def _random_reduced(rng: random.Random, rank: int, length: int) -> Word:
    """A reduced word of the given length, one letter draw at a time,
    redrawing any letter that would cancel."""
    alphabet = [*range(1, rank + 1), *range(-1, -rank - 1, -1)]
    letters: list[int] = []
    while len(letters) < length:
        x = rng.choice(alphabet)
        if letters and letters[-1] == -x:
            continue
        letters.append(x)
    return tuple(letters)


def random_point(space, rng: random.Random):
    kind = space.kind
    if kind == "tree":
        return tree_point(_random_reduced(rng, space.rank, rng.randrange(0, 6)))
    if kind == "half-plane":
        return complex(rng.uniform(-3.0, 3.0), math.exp(rng.uniform(-1.5, 1.5)))
    if kind == "euclidean":
        return tuple(rng.uniform(-10.0, 10.0) for _ in range(space.dim))
    if kind == "product":
        return (random_point(space.left, rng), random_point(space.right, rng))
    raise ValueError(kind)


def perturbed_point(space, rng: random.Random, p, radius: float):
    pts = space.ball_points(p, radius, 16)
    return pts[rng.randrange(len(pts))]


# ---------------------------------------------------------------------------
# Axiom (projection / fellow traveling) samplers
# ---------------------------------------------------------------------------

def dd_triples_random(space, seed: int, count: int) -> Iterator:
    rng = rng_for(seed, "dd")
    made = 0
    while made < count:
        a, b = random_point(space, rng), random_point(space, rng)
        if space.distance(a, b) < 0.25:
            continue
        seg = space.geodesic(a, b)
        yield seg, random_point(space, rng), random_point(space, rng)
        made += 1


def ft_quads_random(space, seed: int, count: int) -> Iterator:
    """(a, b, a', b'), a' and b' drawn from balls of radius in [0.2, 1) about a, b."""
    rng = rng_for(seed, "ft")
    made = 0
    while made < count:
        a, b = random_point(space, rng), random_point(space, rng)
        if space.distance(a, b) < 0.25:
            continue
        a2 = perturbed_point(space, rng, a, rng.uniform(0.2, 1.0))
        b2 = perturbed_point(space, rng, b, rng.uniform(0.2, 1.0))
        yield a, b, a2, b2
        made += 1


# ---------------------------------------------------------------------------
# Lemma-suite configuration families
# ---------------------------------------------------------------------------

def halfplane_thin_configs(space, seed: int, count: int) -> Iterator[tuple]:
    """(a, b, c) with b the projection of c onto a random geodesic through
    a, built so the hypothesis holds by construction."""
    rng = rng_for(seed, "thin")
    made = 0
    while made < count:
        a = random_point(space, rng)
        b0 = random_point(space, rng)
        c = random_point(space, rng)
        if space.distance(a, b0) < 0.5:
            continue
        seg = space.geodesic(a, b0)
        proj = space.project(c, seg)
        if proj.parameter < 0.25 or proj.distance < 0.25:
            continue
        yield a, proj.point, c
        made += 1


def halfplane_variation_configs(space, seed: int, count: int) -> Iterator[tuple]:
    """Segments receding from a base geodesic: [a, b] runs along the
    geodesic from the projection foot through a random outside point."""
    rng = rng_for(seed, "variation")
    made = 0
    while made < count:
        p, q = random_point(space, rng), random_point(space, rng)
        if space.distance(p, q) < 1.0:
            continue
        seg_pq = space.geodesic(p, q)
        m = random_point(space, rng)
        pr = space.project(m, seg_pq)
        if pr.distance < 1.5:
            continue
        ray = space.geodesic(pr.point, m)
        t1 = rng.uniform(1.0, max(1.0, ray.length - 0.5))
        t2 = rng.uniform(t1, ray.length)
        if t2 - t1 < 0.25:
            continue
        yield space.geodesic(ray.point_at(t1), ray.point_at(t2)), seg_pq
        made += 1


def random_words(rank: int, seed: int, count: int, max_len: int) -> list[Word]:
    rng = rng_for(seed, "words")
    out = []
    while len(out) < count:
        w = _random_reduced(rng, rank, rng.randrange(1, max_len + 1))
        if w not in out:
            out.append(w)
    return out
