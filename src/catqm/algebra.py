"""Quasimorphisms as values: subword-counting evaluators on free groups,
their exact homogenizations, and the restriction / group-action / transfer /
orbit-averaging operations on a concrete finite extension.

The shipped extension instance is the rank-2 free group extended by the
order-2 letter swap a <-> b, the smallest case where every operation has
content.  Conjugation by the section element restricts to the letter-swap
automorphism on the base, which makes the extension's hypotheses hold by
construction.

Each word is checked once, at each public entry: a counting word when its
quasimorphism is built (its string forms are kept), an argument when an
evaluator is called.  The operations built on top (group action, orbit
average, transfer) pass words down without checking them again.

The defect certificate ``extension_defect`` is the supremum of
|phi(gh) - phi(g) - phi(h)| over all pairs of an extension ball, computed
in whole-array passes over packed words (``words.pack``).  The pairs'
products come from ``words.packed_products``, with each right factor
twisted by the left factor's letter map (a row of
``FiniteExtension.letter_table``), in chunks of pairs; ``np.unique`` over
their int64 codes (``words.packed_codes``) gives the distinct elements.
When phi claims homogeneity (``Quasimorphism.homogeneous``) it is a class
function, odd, and phi(g) = phi(g^N)/N with g^N in the base, so the
defect takes one value on each orbit of (g, h) -> (h, g), (h^-1, g^-1),
(g^-1, h^-1), and phi is evaluated once per free-group conjugacy class of
g^N up to inversion (``words.packed_class_codes``): the certificate visits
one pair per orbit and shares each value, with its sign, over the class.
Otherwise it visits every pair and evaluates phi once per element.  Either
way the supremum is the one over the whole grid.

Every quasimorphism evaluates whole packed word arrays,
``Quasimorphism.packed``, and every consumer calls that one route.  The
counting chain (``homogeneous_brooks_qm`` and the operations on top of
it) fills it with numpy kernels, any other evaluator with a loop that
calls it once per row.  Both agree bit for bit with the scalar evaluator:
a Brooks count and a sum of counts are integers, exact in float64, and
the transfer's one division by N is the same correctly rounded operation
on both, so its values lie in (1/N)Z as computed (half-integers on the
swap extension).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetError, InputError
from .words import (
    Word,
    IDENTITY,
    as_word,
    inverse as word_inverse,
    multiply as word_multiply,
    power as word_power,
)
from . import words as W


@dataclass(frozen=True)
class Quasimorphism:
    """An evaluator with provenance: name, and whether it claims
    homogeneity (evaluator(e) = 0 and phi(g^n) = n phi(g)).

    A homogeneous quasimorphism is a class function with phi(g^-1) =
    -phi(g), and on a finite extension of index N it satisfies phi(g) =
    phi(g^N)/N.  ``extension_defect`` relies on these three identities, and
    shares one evaluation between elements they relate.

    ``packed(words, sigmas=None)`` evaluates whole rows at once: it takes
    a packed word array ``(letters, lens)`` (``words.pack``) and, for a
    quasimorphism on an extension, each row's sigma (None: every row in the
    base), and returns a float64 array bit-equal to calling the evaluator
    row by row.  Its rows are not checked: they come from the library's own
    packed passes.  The counting chain passes its numpy kernels; left None,
    it becomes a loop that calls phi on each row's word, or on
    ``GElement(word, sigma)`` when sigmas are given."""
    name: str
    evaluator: Callable
    homogeneous: bool = False
    packed: Callable | None = None

    def __post_init__(self):
        if self.packed is None:
            object.__setattr__(self, "packed", _row_loop(self))

    def __call__(self, g):
        return self.evaluator(g)


def _row_loop(phi: Quasimorphism) -> Callable:
    """The ``Quasimorphism.packed`` route of a quasimorphism with no
    kernel: one scalar call of phi per row, so a count of scalar calls
    sees every evaluation."""
    def packed(words, sigmas=None) -> np.ndarray:
        rows = W.unpack(words)
        if sigmas is not None:
            rows = map(GElement, rows, sigmas.tolist())
        return np.fromiter(map(phi, rows), np.float64, len(words[1]))
    return packed


def _starts_before(text: str, pattern: str, stop: int) -> int:
    """Occurrences of pattern in text, overlaps allowed, that start before
    index stop."""
    count = 0
    i = text.find(pattern)
    while 0 <= i < stop:
        count += 1
        i = text.find(pattern, i + 1)
    return count


def _counting_word(w) -> Word:
    """The counting word w, checked reduced and nontrivial."""
    w = as_word(w)
    if not w:
        raise InputError("counting word must be nontrivial")
    return w


def brooks_qm(w) -> Quasimorphism:
    """Occurrences of w in the reduced word g minus occurrences of w^-1,
    overlaps allowed."""
    w = _counting_word(w)
    pattern, anti = W.to_string(w), W.to_string(word_inverse(w))

    def evaluator(g) -> float:
        s = W.to_string(as_word(g))
        return float(_starts_before(s, pattern, len(s))
                     - _starts_before(s, anti, len(s)))

    return Quasimorphism(f"brooks({pattern})", evaluator)


def _on_base(evaluate: Callable) -> Callable:
    """A ``Quasimorphism.packed`` evaluator on base words only: a row with
    sigma != 0 is refused."""
    def packed(words, sigmas=None) -> np.ndarray:
        if sigmas is not None and np.any(sigmas):
            raise InputError("a quasimorphism of the base group takes base "
                             "words only")
        return evaluate(words)
    return packed


def _cyclic_counts(words, sides: np.ndarray) -> np.ndarray:
    """For each packed row, the starts i < |core| of its cyclic core with
    core[(i + k) mod |core|] = pattern[k] for every k, minus the same count
    for the inverse pattern, as float64.  ``sides[k]`` holds column k of the
    pattern and of its inverse, shape (2, 1)."""
    letters, lens = words
    rows, width = letters.shape
    flat = letters.ravel()
    at = np.arange(0, rows * width, width)[:, None]
    # w = c u c^-1: |c| is the run of leading t with w[t] = -w[len - 1 - t]
    # while at least two letters remain between them
    t = np.arange(width // 2)
    ends = (lens - 1)[:, None] - t
    inward = (ends > t) & (letters[:, :width // 2] == -flat[at + ends])
    trim = np.logical_and.accumulate(inward, axis=1).sum(axis=1)
    core = lens - 2 * trim
    # the core read periodically, far enough for a pattern at every start,
    # so a pattern longer than the core wraps round it more than once
    reach = int(core.max(initial=0))
    span = np.arange(reach + len(sides) - 1)
    window = flat[at + trim[:, None] + span % np.maximum(core, 1)[:, None]]
    hit = (span[:reach] < core[:, None])[:, None, :]
    for k, side in enumerate(sides):
        hit = hit & (window[:, None, k:k + reach] == side)
    counts = hit.sum(axis=2)
    return (counts[:, 0] - counts[:, 1]).astype(np.float64)


def homogeneous_brooks_qm(w) -> Quasimorphism:
    """Exact homogenization of the counting quasimorphism.

    Powers of g eventually repeat the cyclic core, so the per-power limit of
    the count is the number of occurrence start positions inside one period
    of the bi-infinite periodic word.  Conjugation invariance is automatic:
    the value depends only on the core up to rotation.  One packed kernel
    (``_cyclic_counts``) computes it; the scalar evaluator runs it on a
    one-row pack.
    """
    w = _counting_word(w)
    sides = np.array([w, word_inverse(w)]).T[:, :, None]

    def evaluator(g) -> float:
        return float(_cyclic_counts(W.pack([as_word(g)]), sides)[0])

    return Quasimorphism(f"hom-brooks({W.to_string(w)})", evaluator,
                         homogeneous=True,
                         packed=_on_base(lambda words: _cyclic_counts(words, sides)))


def word_length_qm() -> Quasimorphism:
    """Word length; a quasimorphism but not homogeneous (conjugation-heavy
    words break it), useful as a negative control."""
    return Quasimorphism("word-length", lambda g: float(len(as_word(g))))


# ---------------------------------------------------------------------------
# Finite extensions of free groups by letter permutations
# ---------------------------------------------------------------------------

Perm = tuple  # perm[i] = image of generator i+1, 1-based values


def _perm_compose(p: Perm, q: Perm) -> Perm:
    return tuple(p[q[i] - 1] for i in range(len(p)))


def _perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v - 1] = i + 1
    return tuple(out)


@dataclass(frozen=True)
class GElement:
    """Element of the extension: a base word and a permutation index."""
    word: Word
    sigma: int

    def is_base(self) -> bool:
        return self.sigma == 0


class FiniteExtension:
    """Free group of the given rank extended by a finite group of letter
    permutations, with the tautological section."""

    def __init__(self, rank: int, perms: list[Perm]):
        ident = tuple(range(1, rank + 1))
        if not perms or ident != tuple(perms[0]):
            raise InputError("perms[0] must be the identity permutation")
        self.rank = rank
        self.perms = [tuple(p) for p in perms]
        self.N = len(perms)
        for p in self.perms:
            if tuple(sorted(p)) != ident:
                raise InputError(f"{p} is not a permutation of 1..{rank}")
        index = {p: i for i, p in enumerate(self.perms)}
        if len(index) != self.N:
            raise InputError("duplicate permutations")
        try:
            self._mul = [[index[_perm_compose(p, q)] for q in self.perms]
                         for p in self.perms]
        except KeyError as exc:
            raise InputError(f"permutations not closed under composition: "
                             f"{exc.args[0]} is missing") from None
        self.mul_table = np.array(self._mul)
        self._inv = [index[_perm_inverse(p)] for p in self.perms]
        self._letters = frozenset(range(-rank, rank + 1)) - {0}
        # conjugation by a section element is exactly its letter map,
        # k -> p[k-1] and -k -> -p[k-1]; row sigma of letter_table maps the
        # packed letter x (column x + rank, 0 for padding) the same way
        images = np.array(self.perms, dtype=np.int16)
        self.letter_table = np.concatenate(
            [-images[:, ::-1], np.zeros((self.N, 1), np.int16), images], axis=1)
        self._letter_maps = [
            {x: y for x, y in zip(range(-rank, rank + 1), row) if x}.__getitem__
            for row in self.letter_table.tolist()]

    # -- group operations ---------------------------------------------------
    def identity(self) -> GElement:
        return GElement(IDENTITY, 0)

    def section(self, sigma: int) -> GElement:
        return GElement(IDENTITY, sigma)

    def embed(self, w) -> GElement:
        return GElement(self.apply_auto(0, as_word(w)), 0)

    def apply_auto(self, sigma: int, w: Word) -> Word:
        """The letter map of perms[sigma] on w; every letter of w must be a
        generator of this rank or its inverse."""
        if sigma == 0 and self._letters.issuperset(w):
            return w
        try:
            return tuple(map(self._letter_maps[sigma], w))
        except KeyError as exc:
            raise InputError(f"letter {exc.args[0]!r} is not a generator of "
                             f"rank {self.rank}") from None

    def multiply(self, a: GElement, b: GElement) -> GElement:
        return GElement(word_multiply(a.word, self.apply_auto(a.sigma, b.word)),
                        self._mul[a.sigma][b.sigma])

    def inverse(self, a: GElement) -> GElement:
        s = self._inv[a.sigma]
        return GElement(self.apply_auto(s, word_inverse(a.word)), s)

    def power(self, a: GElement, n: int) -> GElement:
        if n < 0:
            return self.power(self.inverse(a), -n)
        if n == 0:
            return self.identity()
        out = a
        for _ in range(n - 1):
            out = self.multiply(out, a)
        return out

    def conjugate_by_section(self, sigma: int, h: Word) -> Word:
        """section(sigma)^-1 (h, id) section(sigma), landing in the base."""
        s_inv = self._inv[sigma]
        return self.apply_auto(s_inv, as_word(h))

    def generators(self) -> list[GElement]:
        gens = []
        for k in range(1, self.rank + 1):
            gens.append(GElement((k,), 0))
            gens.append(GElement((-k,), 0))
        for s in range(1, self.N):
            gens.append(self.section(s))
            inv = self._inv[s]
            if inv != s:
                gens.append(self.section(inv))
        return gens

    def ball(self, radius: int) -> list[GElement]:
        """BFS ball in the generating set (base letters and sections)."""
        gens = self.generators()
        seen = {self.identity(): 0}
        order = [self.identity()]
        frontier = [self.identity()]
        for _ in range(radius):
            nxt = []
            for g in frontier:
                for s in gens:
                    cand = self.multiply(g, s)
                    if cand not in seen:
                        seen[cand] = 0
                        order.append(cand)
                        nxt.append(cand)
            frontier = nxt
        return order

    def describe(self) -> dict:
        return {"rank": self.rank, "index": self.N,
                "perms": [list(p) for p in self.perms]}


def swap_extension() -> FiniteExtension:
    """Rank-2 free group extended by the a <-> b letter swap."""
    return FiniteExtension(2, [(1, 2), (2, 1)])


# ---------------------------------------------------------------------------
# Operations on quasimorphisms over an extension
# ---------------------------------------------------------------------------

def _conjugated(ext: FiniteExtension, sigma: int, words):
    """``conjugate_by_section(sigma, .)`` on every row of a packed word
    array: one row of ``letter_table``, that of sigma^-1."""
    letters, lens = words
    return ext.letter_table[ext._inv[sigma]][letters + ext.rank], lens


def sigma_act(ext: FiniteExtension, sigma: int, phi: Quasimorphism) -> Quasimorphism:
    """Pull back along conjugation by the section of sigma:
    (sigma . phi)(h) = phi(section^-1 h section)."""
    return Quasimorphism(f"sigma{sigma}.{phi.name}",
                         lambda h: phi(ext.conjugate_by_section(sigma, h)),
                         homogeneous=phi.homogeneous,
                         packed=_on_base(lambda words: phi.packed(
                             _conjugated(ext, sigma, words))))


def orbit_average(ext: FiniteExtension, phi: Quasimorphism) -> Quasimorphism:
    """Sum of the whole orbit; invariant under every sigma because acting
    permutes the summands."""
    acted = [sigma_act(ext, s, phi) for s in range(ext.N)]
    return Quasimorphism(f"avg.{phi.name}",
                         lambda h: sum(f(h) for f in acted),
                         homogeneous=phi.homogeneous,
                         packed=_on_base(lambda words: sum(f.packed(words)
                                                           for f in acted)))


def check_sigma_invariance(ext: FiniteExtension, phi: Quasimorphism,
                           radius: int = 3, tolerance: float = 0.0) -> list[dict]:
    """Every (word, sigma) of the word ball of this radius, in ball order
    and then ascending sigma, where phi moves under the action by more than
    the tolerance."""
    ws = W.ball(ext.rank, radius)
    words = W.pack(ws)
    base = phi.packed(words)
    # row s - 1 holds sigma = s; transposed, nonzero lists ball order first
    moved = np.array([phi.packed(_conjugated(ext, s, words))
                      for s in range(1, ext.N)]).reshape(ext.N - 1, len(ws))
    rows, sigmas = np.nonzero((np.abs(moved - base) > tolerance).T)
    return [{"word": W.to_string(ws[i]), "sigma": s + 1,
             "value": float(base[i]), "moved": float(moved[s, i])}
            for i, s in zip(rows.tolist(), sigmas.tolist())]


def transfer_extend(ext: FiniteExtension, phi: Quasimorphism) -> Quasimorphism:
    """Extend an invariant quasimorphism to the whole extension by
    g -> phi(g^N)/N; g^N always lands in the base because the quotient has
    exponent dividing N.  Invariance is checked on the radius-3 ball."""
    bad = check_sigma_invariance(ext, phi, radius=3)
    if bad:
        raise InputError(f"not invariant under the extension action: {bad[0]}")
    N = ext.N

    def evaluator(g) -> float:
        if isinstance(g, GElement):
            gg = g
        else:
            gg = ext.embed(g)
        p = ext.power(gg, N)
        if not p.is_base():
            raise InputError("power did not land in the base group")
        return phi(p.word) / N

    def packed(words, sigmas=None) -> np.ndarray:
        if sigmas is None:
            sigmas = np.zeros(len(words[1]), dtype=np.int64)
        power, power_sigmas = _packed_powers(ext, words, sigmas)
        if np.any(power_sigmas):
            raise InputError("power did not land in the base group")
        return phi.packed(power) / N

    return Quasimorphism(f"transfer.{phi.name}", evaluator,
                         homogeneous=phi.homogeneous, packed=packed)


@dataclass(frozen=True)
class RestrictionReport:
    words_checked: int
    max_restriction_gap: float
    defects: dict                # radius -> sampled defect over extension pairs
    growth: float


def restriction_check(ext: FiniteExtension, transferred: Quasimorphism,
                      averaged: Quasimorphism, word_radius: int = 6,
                      pair_radii: tuple = (4, 6)) -> RestrictionReport:
    """The transfer of an orbit average must restrict to the average on the
    base (exactly, for homogeneous inputs), and its sampled defect over
    extension pairs must stay finite and radius-stable."""
    ws = W.ball(ext.rank, word_radius)
    words = W.pack(ws)
    gap = float(np.abs(transferred.packed(words) - averaged.packed(words))
                .max(initial=0.0))
    defects = {}
    for radius in pair_radii:
        defects[radius] = extension_defect(ext, transferred, radius)
    radii = sorted(defects)
    growth = defects[radii[-1]] - defects[radii[0]] if len(radii) > 1 else 0.0
    return RestrictionReport(len(ws), gap, defects, growth)


# Rows per packed pass, of orbit pairs or of distinct elements: large enough
# that the numpy calls amortize, small enough that a pass's arrays stay near
# a megabyte, so the certificate's peak memory does not grow with the ball.
_PAIR_CHUNK = 1 << 12


def _chunks(n: int):
    return (slice(lo, lo + _PAIR_CHUNK) for lo in range(0, n, _PAIR_CHUNK))


def _orbit_representatives(ext: FiniteExtension, elements: list) -> tuple:
    """Index pairs (i, j), one per orbit of the pairs of ``elements`` under
    (g, h) -> (h, g), (h^-1, g^-1), (g^-1, h^-1): the lexicographically
    least pair of each orbit, in row-major order.  ``elements`` must be
    closed under inverses."""
    index = {g: i for i, g in enumerate(elements)}
    inv = np.array([index[ext.inverse(g)] for g in elements])
    n = len(elements)
    j = np.arange(n)
    first, second = [], []
    # blocks of rows of the grid, so that no n^2 array is held at once
    step = max(1, _PAIR_CHUNK // n)
    for top in range(0, n, step):
        i = np.arange(top, min(n, top + step))[:, None]
        # (i, j) with i <= j already beats (j, i); the other two pairs of its
        # orbit swap into each other, the lesser of them being (lo, hi)
        lo = np.minimum(inv[i], inv[j])
        hi = np.maximum(inv[i], inv[j])
        rows, cols = np.nonzero((i <= j) & ((i < lo) | ((i == lo) & (j <= hi))))
        first.append(rows + top)
        second.append(cols)
    return np.concatenate(first), np.concatenate(second)


def _twisted_products(ext: FiniteExtension, left, right, sigmas):
    """The words u sigma(v) of the extension products (u, sigma)(v, tau), row
    by row for packed u and v, with ``sigmas`` giving each row's sigma."""
    letters, lens = right
    return W.packed_products(
        left, (ext.letter_table[sigmas[:, None], letters + ext.rank], lens))


def _packed_powers(ext: FiniteExtension, words, sigmas):
    """g^N = g ... g, as ``FiniteExtension.power`` forms it, for packed
    words g with the given sigmas: the packed words and sigmas of the
    powers."""
    power, power_sigmas = words, sigmas
    for _ in range(ext.N - 1):
        power = _twisted_products(ext, power, words, power_sigmas)
        power_sigmas = ext.mul_table[power_sigmas, sigmas]
    return power, power_sigmas


def _power_classes(ext: FiniteExtension, codes, sigmas):
    """``words.packed_class_codes`` of g^N, which lies in the base, for the
    elements g given by their word codes and sigmas."""
    power, _ = _packed_powers(ext, W.unpack_codes(codes, ext.rank), sigmas)
    return W.packed_class_codes(power, ext.rank)


def extension_defect(ext: FiniteExtension, phi: Quasimorphism, radius: int) -> float:
    """Defect of phi over all pairs of the extension ball: the supremum of
    |phi(gh) - phi(g) - phi(h)|, exactly, not sampled.

    When ``phi.homogeneous`` is set, phi is a class function on the
    extension, odd (phi(g^-1) = -phi(g)), and phi(g) = phi(g^N)/N, where
    g^N lies in the base for every g.  Then phi(hg) = phi(gh), so the defect
    D satisfies D(g, h) = D(h, g) = D(h^-1, g^-1) = D(g^-1, h^-1), and the
    BFS ball is closed under inverses: one pair per orbit of these maps
    reaches every value of the full grid, and the supremum over the
    representatives is the supremum over the grid.  phi is evaluated once
    per free-group conjugacy class of g^N up to inversion
    (``words.packed_class_codes``), and the value is shared with its sign.
    Without the flag, every pair is visited and phi is evaluated once per
    element.

    Products are formed in packed passes of ``_PAIR_CHUNK`` pairs and keyed
    by ``words.packed_codes``; nothing outlives the call.  The codes of g^N
    must fit in an int64, so 2 radius N may not exceed
    ``words.code_capacity(rank)`` (radius 6 at rank 2 with N = 2).
    """
    if 2 * radius * ext.N > W.code_capacity(ext.rank):
        raise BudgetError(f"extension defect radius {radius} exceeds the int64 "
                          f"word codes of rank {ext.rank}, index {ext.N}")
    elements = ext.ball(radius)
    n = len(elements)
    letters, lens = packed = W.pack([g.word for g in elements])
    sigmas = np.array([g.sigma for g in elements])
    if phi.homogeneous:
        first, second = _orbit_representatives(ext, elements)
    else:
        first, second = np.indices((n, n)).reshape(2, -1)
    # the ball's elements, then one product per pair, keyed by (code, sigma)
    # as code N + sigma: N b^(2 radius) <= b^(2 radius N) fits
    keys = [W.packed_codes(packed, ext.rank) * ext.N + sigmas]
    for part in _chunks(len(first)):
        i, j = first[part], second[part]
        products = _twisted_products(ext, (letters[i], lens[i]),
                                     (letters[j], lens[j]), sigmas[i])
        keys.append(W.packed_codes(products, ext.rank) * ext.N
                    + ext.mul_table[sigmas[i], sigmas[j]])
    distinct, which = np.unique(np.concatenate(keys), return_inverse=True)
    element_codes, element_sigmas = distinct // ext.N, distinct % ext.N
    if phi.homogeneous:
        classes, signs = np.concatenate(
            [_power_classes(ext, element_codes[part], element_sigmas[part])
             for part in _chunks(len(distinct))], axis=1)
    else:
        classes, signs = distinct, np.ones(len(distinct), dtype=np.int64)
    # phi once per class, on its first element, in one packed pass
    _, reps, of = np.unique(classes, return_index=True, return_inverse=True)
    values = phi.packed(W.unpack_codes(element_codes[reps], ext.rank),
                        element_sigmas[reps])
    values = (values[of] * (signs * signs[reps][of]))[which]
    vg, vp = values[:n], values[n:]
    return float(np.abs(vp - vg[first] - vg[second]).max())


def homogeneity_suite(phi: Quasimorphism, elements, n_max: int,
                      conjugators=(), tolerance: float = 1e-9) -> list[dict]:
    """Check phi(g^n) = n phi(g) and conjugation invariance on samples."""
    out = []
    for g in elements:
        g = as_word(g)
        base = phi(g)
        for n in range(2, n_max + 1):
            v = phi(word_power(g, n))
            if abs(v - n * base) > tolerance:
                out.append({"kind": "power", "g": W.to_string(g), "n": n,
                            "value": v, "expected": n * base})
                break
        for h in conjugators:
            h = as_word(h)
            conj = word_multiply(h, word_multiply(g, word_inverse(h)))
            v = phi(conj)
            if abs(v - base) > tolerance:
                out.append({"kind": "conjugacy", "g": W.to_string(g),
                            "h": W.to_string(h), "value": v, "expected": base})
                break
    return out
