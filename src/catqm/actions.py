"""Isometric group actions on the model spaces.

An isometry pairs a reduced word with action data: the word itself for the
tree (left multiplication), a real 2x2 determinant-1 matrix acting by
fractional-linear maps for the half-plane, a translation vector for
Euclidean factors, and a pair of factor isometries for products.
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


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix with a product counter driving renormalization."""
    a: float
    b: float
    c: float
    d: float
    products: int = 0

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

    def mobius(self, z: complex) -> complex:
        den = self.c * z + self.d
        if den == 0:
            raise NumericError("Mobius image at the pole")
        return (self.a * z + self.b) / den


@dataclass(frozen=True)
class Isometry:
    word: Word
    action: Any   # word | Mat2 | tuple vector | (left, right)

    def __repr__(self):  # pragma: no cover
        return f"Isometry({W.to_string(self.word) or 'e'})"


class GroupModel:
    """Finitely generated group with isometric action data per generator.

    Kinds: ``free`` (left multiplication on the tree), ``matrix``
    (half-plane Mobius action), ``translation`` (Euclidean), ``product``.
    Words are always reduced free-group words; on non-free kinds distinct
    words may act identically, which is harmless for enumeration.
    """

    def __init__(self, kind: str, rank: int, gen_actions: list | None = None,
                 ball_cap: int = W.BALL_RADIUS_CAP):
        if rank < 1:
            raise InputError("rank must be >= 1")
        self.kind = kind
        self.rank = rank
        self.ball_cap = ball_cap
        if kind == "free":
            self._gen = {k: None for k in range(1, rank + 1)}
        else:
            if gen_actions is None or len(gen_actions) != rank:
                raise InputError("need one action per generator")
            self._gen = {k + 1: gen_actions[k] for k in range(rank)}

    # -- constructors --------------------------------------------------------
    @staticmethod
    def free(rank: int = 2, ball_cap: int = W.BALL_RADIUS_CAP) -> "GroupModel":
        return GroupModel("free", rank, ball_cap=ball_cap)

    @staticmethod
    def matrix(mats: list, ball_cap: int = W.BALL_RADIUS_CAP) -> "GroupModel":
        actions = []
        for m in mats:
            mm = Mat2(float(m[0][0]), float(m[0][1]), float(m[1][0]), float(m[1][1]))
            if abs(mm.det() - 1.0) > 1e-6:
                raise InputError(f"generator determinant {mm.det()} != 1")
            actions.append(mm.renormalized())
        return GroupModel("matrix", len(mats), actions, ball_cap=ball_cap)

    @staticmethod
    def translation(vectors: list, ball_cap: int = W.BALL_RADIUS_CAP) -> "GroupModel":
        return GroupModel("translation", len(vectors),
                          [tuple(float(c) for c in v) for v in vectors],
                          ball_cap=ball_cap)

    @staticmethod
    def product(left: "GroupModel", right: "GroupModel") -> "GroupModel":
        if left.rank != right.rank:
            raise InputError("product factors must share the generator count")
        return GroupModel("product", left.rank, [(left, right)] * left.rank,
                          ball_cap=min(left.ball_cap, right.ball_cap))

    # -- isometries ------------------------------------------------------------
    def identity(self) -> Isometry:
        return Isometry(IDENTITY, self._identity_action())

    def _identity_action(self):
        if self.kind == "free":
            return IDENTITY
        if self.kind == "matrix":
            return Mat2(1.0, 0.0, 0.0, 1.0)
        if self.kind == "translation":
            dim = len(next(iter(self._gen.values())))
            return (0.0,) * dim
        left, right = next(iter(self._gen.values()))
        return (left.identity().action, right.identity().action)

    def _letter_action(self, letter: int):
        k = abs(letter)
        if k not in self._gen:
            raise InputError(f"letter {letter} outside rank {self.rank}")
        if self.kind == "free":
            return (letter,)
        if self.kind == "matrix":
            m = self._gen[k]
            return m if letter > 0 else m.inverse()
        if self.kind == "translation":
            v = self._gen[k]
            return v if letter > 0 else tuple(-c for c in v)
        left, right = self._gen[k]
        return (left._letter_action(letter), right._letter_action(letter))

    def _compose(self, act1, act2):
        if self.kind == "free":
            return word_multiply(act1, act2)
        if self.kind == "matrix":
            return act1.compose(act2)
        if self.kind == "translation":
            return tuple(u + v for u, v in zip(act1, act2))
        left, right = next(iter(self._gen.values()))
        return (left._compose(act1[0], act2[0]), right._compose(act1[1], act2[1]))

    def _invert(self, act):
        if self.kind == "free":
            return word_inverse(act)
        if self.kind == "matrix":
            return act.inverse()
        if self.kind == "translation":
            return tuple(-c for c in act)
        left, right = next(iter(self._gen.values()))
        return (left._invert(act[0]), right._invert(act[1]))

    def from_word(self, w) -> Isometry:
        """Isometry of a word or its string form; an isometry passes through."""
        if isinstance(w, Isometry):
            return w
        w = W.as_word(w)
        act = self._identity_action()
        for x in w:
            act = self._compose(act, self._letter_action(x))
        return Isometry(w, act)

    def multiply(self, g: Isometry, h: Isometry) -> Isometry:
        return Isometry(word_multiply(g.word, h.word),
                        self._compose(g.action, h.action))

    def inverse(self, g: Isometry) -> Isometry:
        return Isometry(word_inverse(g.word), self._invert(g.action))

    def power(self, g: Isometry, n: int) -> Isometry:
        if n < 0:
            return self.power(self.inverse(g), -n)
        out = self.identity()
        for _ in range(n):
            out = self.multiply(out, g)
        return out

    def ball(self, radius: int) -> list[Isometry]:
        """All isometries with word length <= radius, BFS order, actions
        composed one letter at a time."""
        ws = W.ball(self.rank, radius, cap=self.ball_cap)
        if self.kind == "free":
            return [Isometry(w, w) for w in ws]
        acts: dict[Word, Any] = {IDENTITY: self._identity_action()}
        out = []
        for w in ws:
            if w not in acts:
                acts[w] = self._compose(acts[w[:-1]], self._letter_action(w[-1]))
            out.append(Isometry(w, acts[w]))
        return out

    def describe(self) -> dict:
        base = {"kind": self.kind, "rank": self.rank}
        if self.kind == "matrix":
            base["generators"] = [[[m.a, m.b], [m.c, m.d]]
                                  for m in self._gen.values()]
        elif self.kind == "translation":
            base["generators"] = [list(v) for v in self._gen.values()]
        elif self.kind == "product":
            left, right = next(iter(self._gen.values()))
            base["left"] = left.describe()
            base["right"] = right.describe()
        return base


def act(space, g: Isometry, x):
    """Apply an isometry to a point; kinds must match the space."""
    return _apply(space, g.action, x)


def _apply(space, action, x):
    kind = space.kind
    if kind == "tree":
        if not isinstance(action, tuple) or (action and not isinstance(action[0], int)):
            raise InputError("tree points need a word action")
        return _apply_tree(action, x)
    if kind == "half-plane":
        if not isinstance(action, Mat2):
            raise InputError("half-plane points need a matrix action")
        return action.mobius(complex(x))
    if kind == "euclidean":
        if not isinstance(action, tuple) or (action and isinstance(action[0], int)):
            raise InputError("euclidean points need a translation action")
        return tuple(c + v for c, v in zip(x, action))
    if kind == "product":
        return (_apply(space.left, action[0], x[0]),
                _apply(space.right, action[1], x[1]))
    raise InputError(f"unknown space kind {kind}")


def _apply_tree(g: Word, p: TreePoint) -> TreePoint:
    if p.is_vertex:
        return tree_point(word_multiply(g, p.anchor))
    parent, child = p.edge()
    u = word_multiply(g, parent)
    v = word_multiply(g, child)
    if len(v) == len(u) + 1:
        return tree_point(u, v[-1], p.t)
    return tree_point(v, u[-1], 1.0 - p.t)


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
        return GroupModel.free(data.get("rank", 2),
                               ball_cap=data.get("ball_cap", W.BALL_RADIUS_CAP))
    if kind == "matrix":
        return GroupModel.matrix(data["generators"],
                                 ball_cap=data.get("ball_cap", W.BALL_RADIUS_CAP))
    if kind == "translation":
        return GroupModel.translation(data["generators"],
                                      ball_cap=data.get("ball_cap", W.BALL_RADIUS_CAP))
    if kind == "product":
        return GroupModel.product(group_from_json(data["left"]),
                                  group_from_json(data["right"]))
    raise InputError(f"unknown group kind {kind!r}")
