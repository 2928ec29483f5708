"""Reduced words in a finitely generated free group.

A word is a tuple of nonzero ints: ``k`` is the k-th generator (1-based),
``-k`` its inverse.  The empty tuple is the identity.  String form uses
``a, b, c, ...`` for generators and ``A, B, C, ...`` for inverses; this is
the serialization format used in configs and reports.

The packed format serves the batched word-metric routes: words as
zero-padded int16 letter rows with their lengths (``pack``), so that
distances between whole lists of words are one numpy pass
(``packed_distances``, ``distance_matrix``).  Tree segments [a, b] read
off those distances as Gromov products (``gromov_foot``, ``gromov_gap``).
"""

from __future__ import annotations

from itertools import chain
from operator import eq, neg

import numpy as np

from .errors import BudgetError, InputError

Word = tuple  # tuple of nonzero ints, freely reduced

IDENTITY: Word = ()

# Enumeration of free(2) words is capped here; the radius-12 ball already
# holds about a million words.
BALL_RADIUS_CAP = 12


def is_reduced(w) -> bool:
    """No letter 0 and no letter followed by its inverse."""
    return 0 not in w and not any(map(eq, w, map(neg, w[1:])))


def check_reduced(w) -> Word:
    if not is_reduced(w):
        raise InputError(f"word is not freely reduced: {w!r}")
    return tuple(w)


def multiply(u: Word, v: Word) -> Word:
    """Product of reduced words, cancelling at the junction only."""
    u = list(u)
    i = 0
    n = len(v)
    while u and i < n and u[-1] == -v[i]:
        u.pop()
        i += 1
    return tuple(u) + tuple(v[i:])


def inverse(w: Word) -> Word:
    return tuple(-x for x in reversed(w))


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Return ``(core, conjugator)`` with ``w = conjugator core conjugator^-1``
    and ``core`` cyclically reduced."""
    lo, hi = 0, len(w)
    while hi - lo >= 2 and w[lo] == -w[hi - 1]:
        lo += 1
        hi -= 1
    return tuple(w[lo:hi]), tuple(w[:lo])


def conjugacy_test(u: Word, v: Word) -> bool:
    """Free-group conjugacy: cyclic cores must be rotations of one another."""
    cu, _ = cyclic_reduce(check_reduced(u))
    cv, _ = cyclic_reduce(check_reduced(v))
    if len(cu) != len(cv):
        return False
    if not cu:
        return True
    doubled = cv + cv
    n = len(cu)
    return any(doubled[i:i + n] == cu for i in range(n))


def conjugacy_key(w: Word) -> Word:
    """Canonical form of the conjugacy class of the reduced word w: the
    least rotation of its cyclic core, ``()`` for the identity.  Two reduced
    words are conjugate exactly when their keys are equal."""
    core, _ = cyclic_reduce(w)
    if not core:
        return IDENTITY
    # the least rotation starts with the least letter
    least = min(core)
    return min(core[i:] + core[:i] for i, x in enumerate(core) if x == least)


def power(w: Word, n: int) -> Word:
    if n < 0:
        return power(inverse(w), -n)
    out: Word = IDENTITY
    for _ in range(n):
        out = multiply(out, w)
    return out


def ball(rank: int, radius: int, cap: int = BALL_RADIUS_CAP) -> list[Word]:
    """All reduced words of length <= radius, deterministic BFS order.

    Letters are ordered ``1, -1, 2, -2, ...`` so the listing is stable
    across runs.  Words appear by length, lexicographically within each
    length.
    """
    if radius < 0:
        raise InputError("radius must be >= 0")
    if radius > cap:
        raise BudgetError(f"ball radius {radius} exceeds cap {cap}")
    letters = []
    for k in range(1, rank + 1):
        letters.extend((k, -k))
    out: list[Word] = [IDENTITY]
    frontier: list[Word] = [IDENTITY]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            last = w[-1] if w else 0
            for x in letters:
                if x != -last:
                    nxt.append(w + (x,))
        out.extend(nxt)
        frontier = nxt
    return out


def common_prefix_length(u: Word, v: Word) -> int:
    n = min(len(u), len(v))
    i = 0
    while i < n and u[i] == v[i]:
        i += 1
    return i


def word_distance(u: Word, v: Word) -> int:
    """Distance in the Cayley tree: |u| + |v| - 2 lcp(u, v)."""
    return len(u) + len(v) - 2 * common_prefix_length(u, v)


_ORD_A = ord("a")

# Character of each letter: generator k is chr(ord('a') + k - 1), its inverse
# the upper case.  The letter 0 is no generator and has no key.  One alphabet
# serves both directions: parsing reads the inverse map.
_LETTER_CHARS = {x: (chr(_ORD_A + abs(x) - 1) if x > 0
                     else chr(_ORD_A + abs(x) - 1).upper())
                 for x in range(-26, 27) if x != 0}
_CHAR_LETTERS = {c: x for x, c in _LETTER_CHARS.items()}


def to_string(w: Word) -> str:
    """Serialize: generator k -> letter, inverse -> uppercase. Identity: ''."""
    try:
        return "".join(map(_LETTER_CHARS.__getitem__, w))
    except KeyError as exc:
        raise InputError(f"letter {exc.args[0]!r} has no string form") from None


def from_string(s: str) -> Word:
    """Parse the a/A serialization; '' is the identity ('e' is the fifth
    generator)."""
    try:
        letters = list(map(_CHAR_LETTERS.__getitem__, s))
    except KeyError as exc:
        raise InputError(f"bad word character {exc.args[0]!r}") from None
    return check_reduced(letters)


def as_word(w) -> Word:
    """A word from its string form or a letter tuple, checked reduced."""
    if isinstance(w, str):
        return from_string(w)
    return check_reduced(w)


# ---------------------------------------------------------------------------
# Packed word arrays
# ---------------------------------------------------------------------------

def pack(ws: list[Word]) -> tuple[np.ndarray, np.ndarray]:
    """Words as zero-padded int16 letter rows (at least one column) and
    their lengths: the packed format of the batched word-metric routes."""
    lens = np.fromiter(map(len, ws), dtype=np.int64, count=len(ws))
    width = max(int(lens.max(initial=0)), 1)
    pad = (0,) * width
    # row by row, with no list of padded rows held at once
    letters = np.fromiter(chain.from_iterable((w + pad)[:width] for w in ws),
                          dtype=np.int16, count=len(ws) * width)
    return letters.reshape(len(ws), width), lens


def packed_distances(a: tuple[np.ndarray, np.ndarray],
                     b: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Word-metric distances between the rows of two packed word arrays,
    |u| + |v| - 2 lcp(u, v), as int64."""
    (la, na), (lb, nb) = a, b
    k = min(la.shape[1], lb.shape[1])
    eq = (la[:, None, :k] == lb[None, :, :k]) & (la[:, None, :k] != 0)
    lcp = np.logical_and.accumulate(eq, axis=2).sum(axis=2)
    return na[:, None] + nb[None, :] - 2 * lcp


def distance_matrix(ws: list[Word]) -> np.ndarray:
    """All pairwise word-metric distances via packed letter arrays."""
    n = len(ws)
    letters, lens = packed = pack(ws)
    out = np.empty((n, n), dtype=np.float64)
    chunk = max(1, min(n, 8_000_000 // (n * letters.shape[1] + 1)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        out[lo:hi] = packed_distances((letters[lo:hi], lens[lo:hi]), packed)
    return out


def gromov_foot(dax, dbx, dab):
    """Projection parameter of x on the tree segment [a, b], for arrays."""
    return np.minimum(np.maximum(0.5 * (dax - dbx + dab), 0.0), dab)


def gromov_gap(dax, dbx, dab):
    """Distance from x to the tree segment [a, b]."""
    return 0.5 * (dax + dbx - dab)
