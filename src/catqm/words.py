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
``packed_ball`` builds a word ball in this format, level by level, and owns
the ball's order: ``ball`` is its ``unpack``.

The same rows multiply row by row (``packed_products``), or every row of
one array by every row of another (``grid_products``), cancelling at the
junction; ``unpack`` turns rows back into words.  Each word also has an
int64 code (decoded by ``unpack_codes``): its letters as digits of a
big-endian base-(2 rank + 1) number with nonzero digits, so distinct words
have distinct codes as long as no word is longer than
``code_capacity(rank)`` letters, and a code's digit count is its word's
length (``code_lengths``).

The code arithmetic works on code triples (own, anti, length), the codes
of w and of w^-1 and |w|, with no letter row formed: ``code_triples``
reads them off packed rows, ``code_products`` multiplies two arrays of
them row by row, ``mapped_codes`` applies a letter map to each digit, and
``class_codes`` keys the conjugacy class of each triple's word up to
inversion: the least rotation code of its cyclic core or of the inverse
core, and a sign saying which of the two gave it.
"""

from __future__ import annotations

from itertools import chain
from operator import eq, neg

import numpy as np

from .errors import BudgetError, InputError, checked_number

Word = tuple  # tuple of nonzero ints, freely reduced

IDENTITY: Word = ()

# Enumeration of free(2) words is capped here; the radius-12 ball already
# holds about a million words.
BALL_RADIUS_CAP = 12

# Generators with a string form: a to z.
MAX_RANK = 26


def checked_rank(rank, what: str) -> int:
    """``rank`` itself if it is an int (not a bool) from 1 to ``MAX_RANK``:
    a rank past the alphabet has generators that no config, point or report
    can name.  Otherwise ``InputError``."""
    checked_number(rank, what, int)
    if rank > MAX_RANK:
        raise InputError(f"{what} must be at most {MAX_RANK}, got {rank!r}")
    return rank


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
    """All reduced words of length <= radius, in ``packed_ball`` order."""
    return unpack(packed_ball(rank, radius, cap))


def packed_ball(rank: int, radius: int, cap: int = BALL_RADIUS_CAP
                ) -> tuple[np.ndarray, np.ndarray]:
    """All reduced words of length <= radius as a packed array (``pack``),
    in deterministic BFS order.

    Letters are ordered ``1, -1, 2, -2, ...`` and each word's children
    follow it in that order, so the listing is stable across runs: words
    appear by length, lexicographically within each length.  Each level is
    one numpy pass over the last: every row repeated once per letter that
    does not cancel its last letter.
    """
    if radius < 0:
        raise InputError("radius must be >= 0")
    if radius > cap:
        raise BudgetError(f"ball radius {radius} exceeds cap {cap}")
    letters = np.array([x for k in range(1, rank + 1) for x in (k, -k)], dtype=np.int16)
    levels = [np.zeros((1, max(radius, 1)), dtype=np.int16)]
    for n in range(radius):
        last = levels[-1][:, n - 1]   # at n = 0, the identity's padding 0
        # parent-major, then letter order: nonzero lists in C order
        parent, letter = np.nonzero(letters[None, :] != -last[:, None])
        child = levels[-1][parent]
        child[:, n] = letters[letter]
        levels.append(child)
    lens = np.repeat(np.arange(len(levels), dtype=np.int64), [len(x) for x in levels])
    return np.concatenate(levels), lens


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
    generator).  Anything but a str is an ``InputError``, not a word read
    off its items."""
    if not isinstance(s, str):
        raise InputError(f"a word must be a string, got {s!r}")
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


def unpack(packed: tuple[np.ndarray, np.ndarray]) -> list[Word]:
    """The words of a packed array, as letter tuples: each run of rows of
    one length sliced as one block."""
    letters, lens = packed
    if not len(lens):
        return []
    cuts = (np.flatnonzero(lens[1:] != lens[:-1]) + 1).tolist()
    out: list[Word] = []
    for lo, hi in zip([0] + cuts, cuts + [len(lens)]):
        out += map(tuple, letters[lo:hi, :lens[lo]].tolist())
    return out


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


def packed_products(a: tuple[np.ndarray, np.ndarray],
                    b: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Row-by-row products u_i v_i of two packed word arrays with the same
    number of rows, cancelling at the junction only, as ``multiply`` does."""
    (la, na), (lb, nb) = a, b
    wa, wb = la.shape[1], lb.shape[1]
    # rows read through flat indices: cheaper than two-axis fancy indexing
    ra, rb = np.arange(len(na))[:, None] * wa, np.arange(len(nb))[:, None] * wb
    la, lb = la.ravel(), lb.ravel()
    k = np.arange(min(wa, wb))
    # u read backwards from its last letter, against v read forwards
    back = na[:, None] - 1 - k
    tail = la[ra + np.maximum(back, 0)]
    cancel = (back >= 0) & (tail == -lb[rb + k])
    c = np.logical_and.accumulate(cancel, axis=1).sum(axis=1)
    keep = na - c
    lens = keep + nb - c
    col = np.arange(max(int(lens.max(initial=0)), 1))
    left = la[ra + np.minimum(col, wa - 1)]
    right = lb[rb + np.clip(col - (keep - c)[:, None], 0, wb - 1)]
    out = np.where(col < keep[:, None], left, right)
    out[col >= lens[:, None]] = 0
    return out, lens


def grid_products(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Every product u_i v_j of rows of ``a`` and ``b``, i-major."""
    (la, na), (lb, nb) = a, b
    return packed_products((np.repeat(la, len(nb), axis=0), np.repeat(na, len(nb))),
                           (np.tile(lb, (len(na), 1)), np.tile(nb, len(na))))


_INT64_MAX = int(np.iinfo(np.int64).max)


def code_capacity(rank: int) -> int:
    """The longest word length whose codes fit in an int64."""
    base, digits = 2 * rank + 1, 0
    while base ** (digits + 1) <= _INT64_MAX:
        digits += 1
    return digits


def _code_tables(rank: int) -> tuple[np.ndarray, np.ndarray]:
    """The digit of each letter x at column x + rank (k for generator k,
    rank + k for its inverse, 0 for padding), and the powers of the base up
    to ``code_capacity``."""
    digits = np.concatenate([np.arange(2 * rank, rank, -1), [0],
                             np.arange(1, rank + 1)]).astype(np.int64)
    powers = (2 * rank + 1) ** np.arange(code_capacity(rank) + 1, dtype=np.int64)
    return digits, powers


def code_triples(packed, rank: int):
    """The code triple (own, anti, length) of each packed row w: the int64
    codes of w and of w^-1, and |w|.  A code is injective: the letters as
    the digits of a big-endian base-(2 rank + 1) number, each digit
    nonzero, so the identity is 0.  Rows longer than
    ``code_capacity(rank)`` raise ``BudgetError``."""
    letters, lens = packed
    width = int(lens.max(initial=0))
    if width > code_capacity(rank):
        raise BudgetError(f"words longer than {code_capacity(rank)} letters "
                          f"have no int64 code at rank {rank}")
    digits, powers = _code_tables(rank)
    columns = letters[:, :width] + rank
    # big-endian over the padded width, then the padding's zero digits
    # shifted out; w^-1 = (-w_n, ..., -w_1) reads the negated digits
    # least significant first
    own = digits[columns] @ powers[:width][::-1] // powers[width - lens]
    anti = digits[::-1][columns] @ powers[:width]
    return own, anti, lens


def code_products(left, right, rank: int):
    """Row-by-row products u_i v_i of two arrays of code triples
    (``code_triples``), cancelling at the junction only, as ``multiply``
    does: the triples of the products, with no letter row formed.

    The cancellation c is lcp(u^-1, v).  The leading t digits of anti(u)
    and of own(v) agree for every t <= c and for no t beyond it, so c is
    the number of t <= min(|u|, |v|) at which they agree.  With b the base,
    own(uv) = own(u) div b^c * b^(|v|-c) + own(v) mod b^(|v|-c), and
    anti(uv) = anti(v) div b^c * b^(|u|-c) + anti(u) mod b^(|u|-c); every
    term is below b^|uv|, so a product whose word has an int64 code is
    formed without overflow."""
    (own_u, anti_u, len_u), (own_v, anti_v, len_v) = left, right
    _, powers = _code_tables(rank)
    reach = np.minimum(len_u, len_v)
    c = np.zeros_like(len_u)
    for t in range(1, int(reach.max(initial=0)) + 1):
        c += (t <= reach) & (anti_u // powers[np.maximum(len_u - t, 0)]
                             == own_v // powers[np.maximum(len_v - t, 0)])
    cut, keep_u, keep_v = powers[c], powers[len_u - c], powers[len_v - c]
    return (own_u // cut * keep_v + own_v % keep_v,
            anti_v // cut * keep_u + anti_u % keep_u,
            len_u + len_v - 2 * c)


def mapped_codes(triple, letter_maps: np.ndarray, rank: int):
    """The code triple of each row's word under its own letter map, read
    digit by digit with no letter row formed: row i of ``letter_maps``
    holds the image of letter x at column x + rank (0 for the padding
    column), as the rows of ``algebra.FiniteExtension.letter_table`` do.  A
    letter map commutes with inversion, so anti maps the same way."""
    own, anti, lens = triple
    digits, powers = _code_tables(rank)
    # digit d stands for the letter at column ``column[d]``
    column = np.argsort(digits)
    rows = np.arange(len(lens))
    rest = np.stack([own, anti])
    mapped = np.zeros_like(rest)
    # least significant digit first, one division by the base per place
    for place in range(int(lens.max(initial=0))):
        rest, digit = np.divmod(rest, 2 * rank + 1)
        mapped += digits[letter_maps[rows, column[digit]] + rank] * powers[place]
    return mapped[0], mapped[1], lens


def code_lengths(codes: np.ndarray, rank: int) -> np.ndarray:
    """The length of the word of each code: its number of digits."""
    _, powers = _code_tables(rank)
    # a code of n digits is at least the repunit 1...1 of n digits
    return np.searchsorted((powers[1:] - 1) // (2 * rank), codes, side="right")


def unpack_codes(codes: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """The packed words of int64 codes (``code_triples``)."""
    digits, powers = _code_tables(rank)
    base = 2 * rank + 1
    lens = code_lengths(codes, rank)
    exponents = lens[:, None] - 1 - np.arange(max(int(lens.max(initial=0)), 1))
    place = codes[:, None] // powers[np.maximum(exponents, 0)] % base
    letter_of = np.zeros(base, dtype=np.int16)
    letter_of[digits] = np.arange(-rank, rank + 1)
    return np.where(exponents >= 0, letter_of[place], 0).astype(np.int16), lens


def _least_rotations(codes, lens, powers) -> np.ndarray:
    """Least code over the rotations of each word.  Rotating an n-digit
    code c left by one digit gives (c mod b^(n-1)) b + c div b^(n-1), so
    n - 1 such steps visit every rotation; a shorter word's further steps
    repeat its own rotations."""
    top = powers[np.maximum(lens - 1, 0)]
    best = rotated = codes
    for _ in range(1, int(lens.max(initial=0))):
        high, low = np.divmod(rotated, top)
        rotated = low * powers[1] + high
        best = np.minimum(best, rotated)
    return best


def class_codes(triple, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """(key, sign) for each word w given by its code triple
    (``code_triples``): key is the least rotation code of the cyclic core
    of w or of w^-1, whichever is smaller, and sign is +1 when w's own core
    gave it, -1 otherwise.  Two words share a key exactly when they are
    conjugate or each is conjugate to the other's inverse."""
    own, anti, lens = triple
    _, powers = _code_tables(rank)
    # w = c u c^-1 with u cyclically reduced and w^-1 = c u^-1 c^-1: |c| is
    # the common prefix of w and w^-1, read as their equal leading digits
    trim = np.zeros_like(lens)
    for t in range(1, int(lens.max(initial=0)) // 2 + 1):
        split = powers[np.maximum(lens - t, 0)]
        trim += (t <= lens // 2) & (own // split == anti // split)
    core = lens - 2 * trim
    cut, keep = powers[trim], powers[core]
    both = _least_rotations(np.concatenate([own // cut % keep, anti // cut % keep]),
                            np.concatenate([core, core]), powers)
    own, anti = both[:len(lens)], both[len(lens):]
    return np.minimum(own, anti), np.where(own <= anti, 1, -1)
