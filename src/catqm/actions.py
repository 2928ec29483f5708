"""Isometric group actions on the model spaces.

An isometry pairs a reduced word with its action.  Each kind of action is
one small class that composes, inverts and applies itself and names the
space kind it acts on: ``WordShift`` (left multiplication on the tree),
``Mat2`` (a real 2x2 determinant-1 matrix acting by fractional-linear maps
on the half-plane), ``Translation`` (Euclidean) and ``FactorPair`` (one
action per factor of a product).  ``act`` is the one place that checks an
action against the space it is applied to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .errors import InputError, NumericError
from .spaces import TreePoint, tree_point
from .words import Word, IDENTITY, inverse as word_inverse, multiply as word_multiply
from . import words as W

# matrices are renormalized to determinant 1 after this many products,
# which bounds double-precision drift without exact arithmetic
RENORM_EVERY = 16
DET_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Mat2:
    """Real 2x2 matrix with a product counter driving renormalization."""
    a: float
    b: float
    c: float
    d: float
    products: int = 0

    space_kind = "half-plane"

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def compose(self, o: "Mat2") -> "Mat2":
        m = Mat2(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                 self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d,
                 self.products + o.products + 1)
        if m.products >= RENORM_EVERY or abs(m.det() - 1.0) > DET_TOL:
            return m.renormalized()
        return m

    def renormalized(self) -> "Mat2":
        ad, bc = self.a * self.d, self.b * self.c
        det = ad - bc
        if det <= 0.0:
            # The true determinant is 1.  With large entries, ad - bc carries
            # the rounding of every product that built them; within DET_TOL
            # of |ad|, |bc| it cannot be told from 1, and the Mobius map does
            # not depend on the scale, so the matrix is kept as it is.
            if abs(det - 1.0) > DET_TOL * max(abs(ad), abs(bc)):
                raise NumericError(f"matrix determinant drifted to {det}")
            return Mat2(self.a, self.b, self.c, self.d, 0)
        s = 1.0 / math.sqrt(det)
        return Mat2(self.a * s, self.b * s, self.c * s, self.d * s, 0)

    def inverse(self) -> "Mat2":
        # inverse of a determinant-1 matrix
        return Mat2(self.d, -self.b, -self.c, self.a, self.products)

    def apply(self, z) -> complex:
        """Mobius image of a half-plane point."""
        z = complex(z)
        den = self.c * z + self.d
        if den == 0:
            raise NumericError("Mobius image at the pole")
        return (self.a * z + self.b) / den


@dataclass(frozen=True, slots=True)
class WordShift:
    """Left multiplication by a reduced word on the Cayley tree."""
    word: Word

    space_kind = "tree"

    def compose(self, o: "WordShift") -> "WordShift":
        return WordShift(word_multiply(self.word, o.word))

    def inverse(self) -> "WordShift":
        return WordShift(word_inverse(self.word))

    def apply(self, p: TreePoint) -> TreePoint:
        if p.is_vertex:
            return tree_point(word_multiply(self.word, p.anchor))
        parent, child = p.edge()
        u = word_multiply(self.word, parent)
        v = word_multiply(self.word, child)
        if len(v) == len(u) + 1:
            return tree_point(u, v[-1], p.t)
        return tree_point(v, u[-1], 1.0 - p.t)


@dataclass(frozen=True, slots=True)
class Translation:
    """Translation of Euclidean space by a vector."""
    vector: tuple

    space_kind = "euclidean"

    def compose(self, o: "Translation") -> "Translation":
        return Translation(tuple(u + v for u, v in zip(self.vector, o.vector)))

    def inverse(self) -> "Translation":
        return Translation(tuple(-c for c in self.vector))

    def apply(self, x: tuple) -> tuple:
        if len(x) != len(self.vector):
            raise InputError(f"point {x!r} has dim {len(x)}, "
                             f"translation has dim {len(self.vector)}")
        return tuple(c + v for c, v in zip(x, self.vector))


@dataclass(frozen=True, slots=True)
class FactorPair:
    """One action on each factor of a product space."""
    left: Any
    right: Any

    space_kind = "product"

    def compose(self, o: "FactorPair") -> "FactorPair":
        return FactorPair(self.left.compose(o.left), self.right.compose(o.right))

    def inverse(self) -> "FactorPair":
        return FactorPair(self.left.inverse(), self.right.inverse())

    def apply(self, x: tuple) -> tuple:
        return (self.left.apply(x[0]), self.right.apply(x[1]))


@dataclass(frozen=True, slots=True)
class Isometry:
    word: Word
    action: Any   # WordShift | Mat2 | Translation | FactorPair

    def __repr__(self):  # pragma: no cover
        return f"Isometry({W.to_string(self.word) or 'e'})"


class GroupModel:
    """Finitely generated group with the action of each generator.

    Words are always reduced free-group words; off the free group distinct
    words may act identically, which is harmless for enumeration.
    """

    def __init__(self, identity_action, gen_actions: list):
        if len(gen_actions) < 1:
            raise InputError("rank must be >= 1")
        self.rank = len(gen_actions)
        self.identity_action = identity_action
        # letter k acts by generator k, letter -k by its inverse
        self._letters = {}
        for k, a in enumerate(gen_actions, 1):
            self._letters[k], self._letters[-k] = a, a.inverse()

    # -- constructors --------------------------------------------------------
    @staticmethod
    def free(rank: int = 2) -> "GroupModel":
        return GroupModel(WordShift(IDENTITY),
                          [WordShift((k,)) for k in range(1, rank + 1)])

    @staticmethod
    def matrix(mats: list) -> "GroupModel":
        actions = []
        for m in mats:
            mm = Mat2(float(m[0][0]), float(m[0][1]), float(m[1][0]), float(m[1][1]))
            if abs(mm.det() - 1.0) > 1e-6:
                raise InputError(f"generator determinant {mm.det()} != 1")
            actions.append(mm.renormalized())
        return GroupModel(Mat2(1.0, 0.0, 0.0, 1.0), actions)

    @staticmethod
    def translation(vectors: list) -> "GroupModel":
        actions = [Translation(tuple(float(c) for c in v)) for v in vectors]
        dim = len(actions[0].vector) if actions else 0
        if any(len(t.vector) != dim for t in actions):
            raise InputError("translation generators must share one dimension")
        return GroupModel(Translation((0.0,) * dim), actions)

    @staticmethod
    def product(left: "GroupModel", right: "GroupModel") -> "GroupModel":
        if left.rank != right.rank:
            raise InputError("product factors must share the generator count")
        return GroupModel(FactorPair(left.identity_action, right.identity_action),
                          [FactorPair(left._letters[k], right._letters[k])
                           for k in range(1, left.rank + 1)])

    # -- isometries ------------------------------------------------------------
    def identity(self) -> Isometry:
        return Isometry(IDENTITY, self.identity_action)

    def _letter(self, letter: int):
        try:
            return self._letters[letter]
        except KeyError:
            raise InputError(f"letter {letter} outside rank {self.rank}") from None

    def from_word(self, w) -> Isometry:
        """Isometry of a word or its string form; an isometry passes through."""
        if isinstance(w, Isometry):
            return w
        w = W.as_word(w)
        a = self.identity_action
        for x in w:
            a = a.compose(self._letter(x))
        return Isometry(w, a)

    def multiply(self, g: Isometry, h: Isometry) -> Isometry:
        return Isometry(word_multiply(g.word, h.word), g.action.compose(h.action))

    def inverse(self, g: Isometry) -> Isometry:
        return Isometry(word_inverse(g.word), g.action.inverse())

    def power(self, g: Isometry, n: int) -> Isometry:
        if n < 0:
            return self.power(self.inverse(g), -n)
        out = self.identity()
        for _ in range(n):
            out = self.multiply(out, g)
        return out

    def ball(self, radius: int) -> list[Isometry]:
        """All isometries with word length <= radius, BFS order, actions
        composed one letter at a time (on the tree each word is its own
        action, so none is composed).  The radius cap is ``words.ball``'s."""
        ws = W.ball(self.rank, radius)
        if isinstance(self.identity_action, WordShift):
            return [Isometry(w, WordShift(w)) for w in ws]
        acts: dict[Word, Any] = {IDENTITY: self.identity_action}
        out = []
        for w in ws:
            if w not in acts:
                acts[w] = acts[w[:-1]].compose(self._letter(w[-1]))
            out.append(Isometry(w, acts[w]))
        return out


def act(space, g: Isometry, x):
    """Apply an isometry to a point; the action must act on the space."""
    if not _acts_on(g.action, space):
        raise InputError(f"a {type(g.action).__name__} action does not act "
                         f"on {space.kind} points")
    return g.action.apply(x)


def is_exact_tree(group: GroupModel, x0) -> bool:
    """Whether the group acts by left multiplication on the tree and x0 is a
    vertex v: then every orbit point w·v is a vertex, every distance between
    them is an integer word length, and the word algebra computes the tree
    geometry of the orbit exactly."""
    return (isinstance(group.identity_action, WordShift)
            and isinstance(x0, TreePoint) and x0.is_vertex)


def _acts_on(action, space) -> bool:
    if action.space_kind != space.kind:
        return False
    return not isinstance(action, FactorPair) or (
        _acts_on(action.left, space.left) and _acts_on(action.right, space.right))


def orbit_points(space, g: Isometry, x0, n: int) -> list:
    """[x0, g x0, ..., g^n x0] by iterated action."""
    if n < 0:
        raise InputError("n must be >= 0")
    out = [x0]
    cur = x0
    for _ in range(n):
        cur = act(space, g, cur)
        out.append(cur)
    return out


def group_from_json(data: dict) -> GroupModel:
    kind = data.get("kind")
    if kind == "free":
        return GroupModel.free(data.get("rank", 2))
    if kind == "matrix":
        return GroupModel.matrix(data["generators"])
    if kind == "translation":
        return GroupModel.translation(data["generators"])
    if kind == "product":
        return GroupModel.product(group_from_json(data["left"]),
                                  group_from_json(data["right"]))
    raise InputError(f"unknown group kind {kind!r}")
