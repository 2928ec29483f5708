"""Experiment orchestration: configs, subcommands, reports, witness replay.

Reports separate a deterministic ``body`` from volatile ``meta`` (wall
clock): identical config and seed produce byte-identical body JSON.  Every
refutation or found witness is stored self-contained under ``witnesses`` so
``replay`` can re-evaluate it against nothing but the config echo: each
witness kind has one replay, which re-runs the function that produced the
witness from the witness's own fields and compares the results.  Unknown
kinds fail closed.

Each ``run_*`` returns one ``Cell``: its report section, its violations and
its witnesses.  The helpers that gather part of a cell's evidence write into
the cell they are given.  ``run`` is the only place that joins cells: it
tags each violation with its subcommand and concatenates the witnesses in
``_RUNNERS`` order.
"""

from __future__ import annotations

import json
import math
import time
from typing import NamedTuple

import numpy as np

from . import words as W
from .actions import FactorPair, GroupModel, Translation, WordShift, act, group_from_json
from .algebra import (
    brooks_qm,
    check_sigma_invariance,
    homogeneity_suite,
    homogeneous_brooks_qm,
    orbit_average,
    restriction_check,
    swap_extension,
    transfer_extend,
    word_length_qm,
)
from .contraction import (
    CertBudget,
    ConstantLedger,
    certify_contracting,
    check_dichotomy,
    check_reverse_triangle,
    check_stability,
    check_thin_triangle,
    check_variation,
    phi_dichotomy,
    phi_near_collinearity,
    phi_thin_triangle,
    phi_variation,
    projection_diameter_under_ball,
)
from .errors import BudgetError, CatqmError, ConfigError, InputError, checked_number
from .expressway import (
    ExpresswaySystem,
    LambdaSamples,
    check_lambda_properties,
    check_witness_confinement,
    defect_estimate,
    homogenize,
    independence_matrix,
    modified_length,
)
from .rank_one import (
    half_flat_control,
    independence_test,
    rank_one_test,
    schottky_exponent,
)
from .samplers import (
    dd_triples_random,
    ft_quads_random,
    halfplane_thin_configs,
    halfplane_variation_configs,
    random_point,
    random_words,
    rng_for,
)
from .spaces import space_from_json, check_dd, check_ft, tree_point, vertex
from .wpd import (
    build_family,
    conjugate_power_test,
    equiv_search,
    wpd_count,
)

SCHEMA = "catqm-report/1"
CONFIG_SCHEMA = "catqm-config/1"

SUBCOMMANDS = ("axioms", "contract", "qm", "rank1", "schottky", "wpd",
               "equiv", "algebra", "all")

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_CONFIG = 2


class Budgets(NamedTuple):
    ball_radius: int = 5
    ball_samples: int = 64
    n_max: int = 6
    power_max: int = 5
    word_len_max: int = 4
    enum_margin: float = 2.0
    candidate_cap: int = 20000
    center_radius: float = 4.0
    grid_max: int = 8
    sample_count: int = 200
    defect_radius: int = 3
    equiv_k: float = 2.0
    wpd_c: float = 2.0
    schottky_e: float = 1.0
    schottky_cap: int = 8
    family_count: int = 2

    def validate(self):
        """Each int field (one with an int default) must be a positive
        integer and each float field a positive finite number; bools are
        neither."""
        for name, value in zip(self._fields, self):
            kinds = int if type(self._field_defaults[name]) is int else (int, float)
            checked_number(value, f"budget {name}", kinds, error=ConfigError)

    def scaled(self, factor: float) -> "Budgets":
        """Every budget times ``factor``, int fields rounded (at least 1)."""
        if not 0 < factor < math.inf:
            raise ConfigError(f"budget scale must be positive and finite, got {factor}")
        data = {}
        for name, value in zip(self._fields, self):
            value *= factor
            data[name] = (max(1, round(value)) if type(self._field_defaults[name]) is int
                          and value < math.inf else value)
        out = Budgets(**data)
        out.validate()
        return out


class ExperimentConfig:
    def __init__(self, space, group: GroupModel, sigma_word: W.Word, basepoint, C: float,
                 B: float, budgets: Budgets, seed: int, tolerance: float,
                 independence_words: list | None = None,
                 companion_word: W.Word | None = None, raw: dict | None = None):
        self.space, self.group, self.sigma_word, self.basepoint = space, group, sigma_word, basepoint
        self.C, self.B, self.budgets, self.seed, self.tolerance = C, B, budgets, seed, tolerance
        self.independence_words = [] if independence_words is None else independence_words
        self.companion_word, self.raw = companion_word, {} if raw is None else raw

    @property
    def ledger(self) -> ConstantLedger:
        return ConstantLedger(C=self.C, B=self.B)

    @property
    def search_radius(self) -> int:
        """Group-ball radius of the wpd and equiv searches."""
        return min(self.budgets.ball_radius + 1, 6)

    def cert_budget(self) -> CertBudget:
        return CertBudget(center_radius=self.budgets.center_radius,
                          ball_samples=self.budgets.ball_samples)

    def system(self, word: W.Word | None = None) -> ExpresswaySystem:
        """The expressway system of ``word`` (default: the base word)."""
        return ExpresswaySystem(
            self.space, self.group,
            self.sigma_word if word is None else word, self.basepoint,
            ledger=self.ledger, margin=self.budgets.enum_margin,
            enum_radius=self.budgets.ball_radius,
            candidate_cap=self.budgets.candidate_cap)


class Cell:
    """One subcommand's result: its report section, its untagged
    violations and its witnesses."""

    def __init__(self, section: dict | None = None, violations: list | None = None,
                 witnesses: list | None = None):
        self.section = {} if section is None else section
        self.violations = [] if violations is None else violations
        self.witnesses = [] if witnesses is None else witnesses


def _misfit(space, action, rank: int) -> str | None:
    """Why a rank-``rank`` group's action (or a factor of it) does not fit
    the space, or None: an action acts only on its own space kind, a free
    group wider than its tree would move the basepoint off the tree, and a
    translation of another dimension acts on no point of the space."""
    if action.space_kind != space.kind:
        return f"a {type(action).__name__} action does not act on {space.kind} points"
    if isinstance(action, FactorPair):
        return (_misfit(space.left, action.left, rank)
                or _misfit(space.right, action.right, rank))
    if isinstance(action, WordShift) and space.kind == "tree" and rank > space.rank:
        return f"a free group of rank {rank} is wider than the tree it acts on"
    if (isinstance(action, Translation) and space.kind == "euclidean"
            and len(action.vector) != space.dim):
        return f"translations of dim {len(action.vector)} do not act on R^{space.dim}"
    return None


def _config_word(value, group: GroupModel, what: str) -> W.Word:
    """A word of the config: a string over the group's letters."""
    if not isinstance(value, str):
        raise ConfigError(f"{what} must be a string, got {value!r}")
    word = W.from_string(value)
    if any(abs(x) > group.rank for x in word):
        raise ConfigError(f"{what} {value!r} has a letter outside rank {group.rank}")
    return word


def config_from_json(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict) or data.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"config schema must be {CONFIG_SCHEMA!r}")
    try:
        space = space_from_json(data["space"])
        group = group_from_json(data["group"])
        misfit = _misfit(space, group.identity_action, group.rank)
        if misfit:
            raise ConfigError(misfit)
        sigma = _config_word(data["sigma_word"], group, "sigma_word")
        if "basepoint" in data and data["basepoint"] != "default":
            basepoint = space.validate_point(space.point_from_json(data["basepoint"]))
        else:
            basepoint = space.basepoint()
        constants = data.get("constants", {})
        budgets = Budgets(**data.get("budgets", {}))
        budgets.validate()
        companion, seed = data.get("companion_word"), data.get("seed", 0)
        if type(seed) is not int:   # a bool is no seed
            raise ConfigError(f"seed must be an int, got {seed!r}")
        independence = data.get("independence_words", [])
        if not isinstance(independence, list):
            raise ConfigError(f"independence_words must be a list, got {independence!r}")
        return ExperimentConfig(
            space=space, group=group, sigma_word=sigma, basepoint=basepoint,
            C=float(checked_number(constants.get("C", 1.0), "constants C")),
            B=float(checked_number(constants.get("B", 1.0), "constants B")),
            budgets=budgets, seed=seed,
            tolerance=float(checked_number(data.get("tolerance", 1e-6), "tolerance",
                                           zero_ok=True)),
            independence_words=[_config_word(w, group, f"independence_words[{k}]")
                                for k, w in enumerate(independence)],
            companion_word=(None if companion is None
                            else _config_word(companion, group, "companion_word")),
            raw=data)
    except (KeyError, TypeError, ValueError, AttributeError, InputError) as exc:
        raise ConfigError(f"malformed config: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return config_from_json(data)


def _companion(cfg: ExperimentConfig) -> W.Word:
    if cfg.companion_word is not None:
        return cfg.companion_word
    # default companion: the base word with the first two generators swapped
    swap = {1: 2, 2: 1}
    return tuple((swap.get(x, x) if x > 0 else -swap.get(-x, -x))
                 for x in reversed(cfg.sigma_word))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

# Configurations per block of the tree axiom passes: a block's arrays stay
# under a megabyte whatever the tree's rank; on the rank-2 tree each pass is
# one block.
_AXIOM_CELLS = 1 << 16


def _blocks(n: int, per_row: int):
    """Slices of range(n) of at most ``_AXIOM_CELLS // per_row`` rows."""
    step = max(1, _AXIOM_CELLS // per_row)
    return (slice(lo, lo + step) for lo in range(0, n, step))


def _tree_axiom_violations(space, C: float, tolerance: float | None,
                           ft_radius: int) -> tuple[list, list]:
    """``check_dd`` over every ([e, v], x, x') with |v| ≤ 3 and |x|, |x'| ≤ 2,
    and ``check_ft`` over every (e, v, a', v·u) with |v| ≤ ``ft_radius`` and
    |a'|, |u| ≤ 1, each in (v, x, x') or (v, a', u) order: the identity
    anchoring loses nothing, since both checks are invariant under the group
    action.

    Between vertices every distance is an integer word length, so each
    family is one Gromov pass over packed balls (``words.packed_ball``) with
    exact results.  dd: the feet t = ``gromov_foot(|x|, d(v, x), |v|)`` from
    one ``packed_distances`` pass; they are chain vertices of [e, v], so
    |p − p'| is |t − t'| exactly.  ft: the ends v·u from one
    ``packed_products`` pass, and the deviation is the larger
    ``gromov_gap`` of a' (from one ``packed_distances`` pass) and v·u (at
    distance |u| from v), the two ends that ``check_ft`` reads.  Only the
    violating rows become points and go through the checkers, so the entries
    are the per-configuration ones."""
    eps = space.tol if tolerance is None else tolerance
    e = vertex("")

    def points(packed, rows):   # the vertices of the given rows
        return [tree_point(w) for w in W.unpack((packed[0][rows], packed[1][rows]))]

    near, segs = W.packed_ball(space.rank, 2), W.packed_ball(space.rank, 3)
    n = len(near[1])
    rhs = W.packed_distances(near, near) + C
    rows = []
    for blk in _blocks(len(segs[1]), n * n):
        v = segs[0][blk], segs[1][blk]
        t = W.gromov_foot(near[1], W.packed_distances(v, near), v[1][:, None])
        k, i, j = np.nonzero(np.abs(t[:, :, None] - t[:, None, :]) >= rhs + eps)
        rows += zip((space.geodesic(e, w) for w in points(v, k)),
                    points(near, i), points(near, j))
    dd = check_dd(space, rows, C, tolerance)

    moves, ball = W.packed_ball(space.rank, 1), W.packed_ball(space.rank, ft_radius)
    m, u_len = len(moves[1]), moves[1]
    allowed = C + np.maximum(u_len[:, None], u_len[None, :])
    rows = []
    for blk in _blocks(len(ball[1]), m * m):
        v = ball[0][blk], ball[1][blk]
        ends = W.grid_products(v, moves)
        gap_a = W.gromov_gap(u_len, W.packed_distances(v, moves), v[1][:, None])
        gap_b = W.gromov_gap(ends[1].reshape(-1, m), u_len, v[1][:, None])
        bad = np.maximum(gap_a[:, :, None], gap_b[:, None, :]) >= allowed + eps
        k, i, j = np.nonzero(bad)
        rows += zip([e] * len(k), points(v, k), points(moves, i), points(ends, k * m + j))
    return dd, check_ft(space, rows, C, tolerance)


def run_axioms(cfg: ExperimentConfig) -> Cell:
    space = cfg.space
    budgets = cfg.budgets
    if space.kind == "tree":
        dd, ft = _tree_axiom_violations(space, cfg.C, cfg.tolerance,
                                        min(4, budgets.ball_radius))
    else:
        dd = check_dd(space, dd_triples_random(space, cfg.seed, budgets.sample_count),
                      cfg.C, cfg.tolerance)
        ft = check_ft(space, ft_quads_random(space, cfg.seed, budgets.sample_count),
                      cfg.C, cfg.tolerance)
    violations = dd + ft

    rng = rng_for(cfg.seed, "axioms-extra")
    triangle_bad = 0
    idem_bad = 0
    for _ in range(min(200, budgets.sample_count)):
        x, y, z = (random_point(space, rng) for _ in range(3))
        if space.distance(x, z) > space.distance(x, y) + space.distance(y, z) + cfg.tolerance:
            triangle_bad += 1
        if space.distance(x, y) > 0.25:
            seg = space.geodesic(x, y)
            p1 = space.project(z, seg)
            p2 = space.project(p1.point, seg)
            if space.distance(p1.point, p2.point) > cfg.tolerance + 1e-6:
                idem_bad += 1
    if triangle_bad:
        violations.append({"check": "triangle-inequality", "count": triangle_bad})
    if idem_bad:
        violations.append({"check": "projection-idempotence", "count": idem_bad})
    section = {
        "dd_violations": len(dd),
        "ft_violations": len(ft),
        "triangle_violations": triangle_bad,
        "idempotence_violations": idem_bad,
        "C": cfg.C,
    }
    return Cell(section, violations)


def _lemma_violation(name: str, outcome) -> dict:
    return {"lemma": name, "value": outcome.value, "bound": outcome.bound,
            "witness": outcome.witness}


def _tally(counts: dict, name: str, skipped, violated) -> None:
    """Bucket one lemma: ``skipped`` and ``violated`` are boolean masks over
    its configurations, and every configuration in neither holds."""
    skips, bad = int(np.count_nonzero(skipped)), int(np.count_nonzero(violated))
    counts[name] = {"holds": len(skipped) - skips - bad, "skipped": skips,
                    "violated": bad}


def _lemma_suite(space, ledger, tol: float, triples, dichotomies,
                 variations) -> tuple[dict, list]:
    """Tally the contraction lemmas over the given configurations; the
    violations are listed in the order the configurations are visited."""
    suites = ((triples, (("thin_triangle", check_thin_triangle),
                         ("near_collinearity", check_reverse_triangle))),
              (dichotomies, (("dichotomy", check_dichotomy),)),
              (variations, (("variation", check_variation),)))
    statuses: dict = {}
    violations = []
    for configs, checks in suites:
        for config in configs:
            for name, check in checks:
                outcome = check(space, *config, ledger, tol)
                statuses.setdefault(name, []).append(outcome.status)
                if outcome.status == "violated":
                    violations.append(_lemma_violation(name, outcome))
    counts: dict = {}
    for name, status in statuses.items():
        _tally(counts, name, np.equal(status, "skipped"), np.equal(status, "violated"))
    return counts, violations


def _tree_lemma_tallies(space, ledger, tol: float, radius: int
                        ) -> tuple[dict, list]:
    """``_lemma_suite`` over the exhaustive tree families, a fixed at the
    identity: triples (e, b, c) of ``W.ball(rank, radius)`` with b ≠ e, and
    at radius ``min(3, radius)`` the dichotomy configurations (x not
    starting with v[0], y = v·t with t not starting with v[-1]⁻¹) and the
    variation pairs (|b| ≥ 2, p[0] ≠ b[0], q a proper extension of p).

    Every point of these families is a vertex of the ball, so all the
    geometry comes from its integer distance matrix D, exactly in binary
    floats: the projection parameter of x on [a, b] is
    (D[a,x] + D[a,b] − D[b,x]) / 2 clamped to [0, D[a,b]], and the
    distance of x to [a, b] is (D[a,x] + D[b,x] − D[a,b]) / 2.  Hypotheses
    and conclusions are numpy masks with the checkers' comparisons
    (``space.tol`` in the hypotheses, ``tol`` in the conclusions), so the
    tallies equal the per-configuration route.  Only the rows that violate,
    and the dichotomy rows that reach ``segment_distance``, go through the
    checkers, in the order ``_lemma_suite`` visits them, so the violation
    entries are the same too.
    """
    B, C = ledger.B, ledger.C
    hit = C + space.tol      # _projection_hits: the foot is this close
    words = W.ball(space.rank, radius)
    index = {w: i for i, w in enumerate(words)}
    pts = [tree_point(w) for w in words]
    D = space.pairwise_distances(pts)
    e = pts[0]
    counts: dict = {}
    violations: list = []

    def foot(a, b, x):   # projection parameter of x on [a, b]
        return W.gromov_foot(D[a, x], D[b, x], D[a, b])

    def gap(a, b, x):    # distance from x to [a, b]
        return W.gromov_gap(D[a, x], D[b, x], D[a, b])

    # triangles (e, b, c), b ≠ e
    n = len(words)
    b, c = np.repeat(np.arange(1, n), n), np.tile(np.arange(n), n - 1)
    ab, bc, ac = D[0, b], D[b, c], D[0, c]
    skipped = ~(ab - foot(0, b, c) <= hit)
    thin_bad = ~skipped & ~(gap(0, c, b) < phi_thin_triangle(B, C) + C + tol)
    near_bad = ~skipped & ~((ac <= ab + bc + tol) & (
        ac >= ab + bc - (phi_near_collinearity(B, C) + C) - tol))
    _tally(counts, "thin_triangle", skipped, thin_bad)
    _tally(counts, "near_collinearity", skipped, near_bad)
    for r in np.nonzero(thin_bad | near_bad)[0]:
        for name, bad, check in (("thin_triangle", thin_bad, check_thin_triangle),
                                 ("near_collinearity", near_bad, check_reverse_triangle)):
            if bad[r]:
                violations.append(_lemma_violation(
                    name, check(space, e, pts[b[r]], pts[c[r]], ledger, tol)))

    depth = min(3, radius)
    upto = [[w for w in words if len(w) <= k] for k in range(depth + 1)]
    small = upto[depth]
    # dichotomy: segment [e, v], x behind e, y = v·t behind v
    rows = [(index[v], index[x], index[v + t])
            for v in small[1:]
            for x in small if not x or x[0] != v[0]
            for t in upto[depth - len(v)] if not t or t[0] != -v[-1]]
    if rows:
        v, x, y = np.array(rows).T
        skipped = ~(foot(0, v, x) <= hit) | ~(D[0, v] - foot(0, v, y) <= hit)
        # short segments hold outright; the others need segment_distance
        far = np.nonzero(~skipped & ~(D[0, v] < phi_dichotomy(B, C) + 2.0 * C + tol))[0]
        outcomes = [check_dichotomy(space, space.geodesic(e, pts[v[r]]),
                                    pts[x[r]], pts[y[r]], ledger, tol) for r in far]
        bad = np.zeros(len(rows), dtype=bool)
        bad[far] = [o.status == "violated" for o in outcomes]
        _tally(counts, "dichotomy", skipped, bad)
        violations += [_lemma_violation("dichotomy", o) for o in outcomes
                       if o.status == "violated"]

    # variation: [e, b] against [p, q], q a proper extension of p
    extensions: dict = {}
    for q in small:
        for k in range(1, len(q)):
            extensions.setdefault(q[:k], []).append(index[q])
    rows = [(index[b], index[p], q)
            for b in small if len(b) >= 2
            for p in small[1:] if p[0] != b[0]
            for q in extensions.get(p, ())]
    if rows:
        b, p, q = np.array(rows).T
        d0 = gap(p, q, 0)
        # the vertices of [e, b], padded with b.  check_variation also
        # samples the edge midpoints.  Along an edge the distance to a tree
        # segment is affine, so a midpoint's value is the mean of its ends'
        # and falls below d0 - tol only if one of the ends does: the
        # vertices decide the hypothesis.
        chain = np.array([[index[words[i][:k]] for i in b] for k in range(depth + 1)])
        skipped = (d0 < 1.0) | (gap(p, q, chain) < d0 - tol).any(axis=0)
        live = ~skipped
        bound = (1.0 - B / d0[live]) * D[0, b[live]] - phi_variation(B, C)
        bad = np.zeros(len(rows), dtype=bool)
        bad[live] = ~(gap(p, q, b)[live] - d0[live] >= bound - tol)
        _tally(counts, "variation", skipped, bad)
        violations += [_lemma_violation("variation", check_variation(
            space, space.geodesic(e, pts[b[r]]),
            space.geodesic(pts[p[r]], pts[q[r]]), ledger, tol))
            for r in np.nonzero(bad)[0]]
    return counts, violations


def _tree_lemma_suite(cfg: ExperimentConfig, cell: Cell) -> None:
    """The tree lemma tallies at radius ``min(4, ball_radius)``, plus
    endpoint stability: 25 perturbations of [e, a^k] certified at the
    stability scale."""
    space = cfg.space
    radius = min(4, cfg.budgets.ball_radius)
    counts, violations = _tree_lemma_tallies(space, cfg.ledger, cfg.tolerance,
                                             radius)
    # endpoint stability on a deterministic family
    far = "a" * min(5, radius + 2)
    base = space.geodesic(vertex(""), vertex(far))
    budget = cfg.cert_budget()
    certs = [check_stability(space, base, vertex(u),
                             act(space, cfg.group.from_word(far), vertex(v)),
                             D=2.0, ledger=cfg.ledger, budget=budget)
             for u in W.ball(cfg.group.rank, 1) for v in W.ball(cfg.group.rank, 1)]
    _tally(counts, "stability", [False] * len(certs), [c.refuted for c in certs])
    cell.section["lemma_suite"] = counts
    cell.violations += violations + [{"lemma": "stability", "witness": c.to_json(space)}
                                     for c in certs if c.refuted]


def _refutation(space, seg, witness: dict) -> dict:
    """A contraction-refutation witness ball with the ends of the segment it
    refutes, which ``_replay_contraction`` reads back."""
    return {**witness, "segment": [space.point_to_json(seg.start), space.point_to_json(seg.end)]}


def _sigma_certificate(cfg: ExperimentConfig, sys_obj: ExpresswaySystem,
                       cell: Cell) -> None:
    """Contraction certificate of the base segment at scale B; a refutation
    is a violation and a witness that carries its segment."""
    cert = certify_contracting(cfg.space, sys_obj.sigma_segment, cfg.B,
                               cfg.cert_budget())
    data = cell.section["sigma_certificate"] = cert.to_json(cfg.space)
    if cert.refuted:
        cell.violations.append({"check": "sigma-contraction", "witness": data["witness"]})
        cell.witnesses.append(_refutation(cfg.space, sys_obj.sigma_segment, data["witness"]))


def _half_flat(cfg: ExperimentConfig, sweep: list, cell: Cell) -> None:
    """Flat negative control: every scale in the sweep must refute
    contraction along an orbit segment of the base word.  The segment is
    long enough that the widest refuting shadow 2(h-1), h = max B/2 + 2,
    fits inside it."""
    space, x0 = cfg.space, cfg.basepoint
    g = cfg.group.from_word(cfg.sigma_word)
    step = space.distance(x0, act(space, g, x0))
    if step <= 0:
        raise ConfigError("flat control needs a moving generator")
    k = max(2, math.ceil((2.0 * (max(sweep) / 2.0 + 2.0) + 10.0) / step))
    seg = space.geodesic(x0, act(space, cfg.group.power(g, k), x0))
    certs = half_flat_control(space, seg, sweep, cfg.cert_budget())
    cell.section["half_flat"] = [{"B": c.B, "refuted": c.refuted} for c in certs]
    cell.violations += [{"check": "half-flat-control", "B": c.B}
                        for c in certs if not c.refuted]
    cell.witnesses += [_refutation(space, seg, c.to_json(space)["witness"])
                       for c in certs if c.refuted]


def run_contract(cfg: ExperimentConfig) -> Cell:
    space = cfg.space
    cell = Cell({"ledger": cfg.ledger.table()})
    if space.kind == "tree":
        _sigma_certificate(cfg, cfg.system(), cell)
        _tree_lemma_suite(cfg, cell)
    elif space.kind == "half-plane":
        count = cfg.budgets.sample_count
        cell.section["lemma_suite"], cell.violations = _lemma_suite(
            space, cfg.ledger, cfg.tolerance, halfplane_thin_configs(space, cfg.seed, count), (),
            halfplane_variation_configs(space, cfg.seed, count))
    else:
        # flat spaces are the negative control: contraction must refute
        _half_flat(cfg, [cfg.B, 10.0, 100.0], cell)
    return cell


def run_qm(cfg: ExperimentConfig) -> Cell:
    space = cfg.space
    sys_obj = cfg.system()
    cell = Cell({"system": sys_obj.describe()})
    _sigma_certificate(cfg, sys_obj, cell)

    x0 = sys_obj.basepoint
    lam_table = []
    phi_table_rows = []
    worst_conf = 0.0
    for n in range(1, cfg.budgets.n_max + 1):
        g = cfg.group.from_word(W.power(cfg.sigma_word, n))
        gx0 = act(space, g, x0)
        fwd = modified_length(sys_obj, x0, gx0)
        bwd = modified_length(sys_obj, gx0, x0)
        lam_table.append({"n": n, "forward": fwd.value, "back": bwd.value,
                          "expressways": fwd.expressways})
        # the direct edge is always a path, so lambda never exceeds d
        d = space.distance(x0, gx0)
        for direction, res in (("forward", fwd), ("back", bwd)):
            if res.value > d + cfg.tolerance:
                cell.violations.append({"check": "lambda-upper-bound", "n": n,
                                        "direction": direction, "lambda": res.value,
                                        "distance": d})
        phi_table_rows.append({"n": n, "phi": bwd.value - fwd.value})
        for res, a, b in ((fwd, x0, gx0), (bwd, gx0, x0)):
            ok, dev = check_witness_confinement(sys_obj, res, a, b)
            worst_conf = max(worst_conf, dev)
            if not ok:
                cell.violations.append({"check": "witness-confinement", "n": n,
                                        "deviation": dev, "bound": sys_obj.ledger.D})
            cell.witnesses.append(res.to_json(space) | {
                "a": space.point_to_json(a), "b": space.point_to_json(b)})
    cell.section["lambda_table"] = lam_table
    cell.section["phi_table"] = phi_table_rows
    cell.section["confinement_max_deviation"] = worst_conf

    # interface properties of the modified length
    rng = rng_for(cfg.seed, "lambda-props")
    if space.kind == "tree":
        sample_words = random_words(cfg.group.rank, cfg.seed, 12, 5)
        pts = [vertex(w) for w in sample_words]
        pairs = tuple((pts[i], pts[i + 1]) for i in range(0, len(pts) - 1, 2))
        moves = tuple((a, b, act(space, cfg.group.from_word((1,)), a),
                       act(space, cfg.group.from_word((2,)), b))
                      for a, b in pairs[:4])
        gs = tuple(random_words(cfg.group.rank, cfg.seed + 1, 4, 3))
        mid = act(space, cfg.group.from_word(W.power(cfg.sigma_word, 2)), x0)
        far = act(space, cfg.group.from_word(W.power(cfg.sigma_word, 4)), x0)
        samples = LambdaSamples(pairs, moves, gs, ((x0, mid, far),))
    else:
        pairs = tuple((random_point(space, rng), random_point(space, rng))
                      for _ in range(6))
        samples = LambdaSamples(pairs, (), (), ())
    lam_violations = check_lambda_properties(sys_obj, samples, cfg.tolerance)
    cell.section["lambda_property_violations"] = lam_violations
    cell.violations += [{"check": "lambda-property", **v} for v in lam_violations]

    # defect, homogenization, independence
    if sys_obj.is_exact_tree():
        left = right = W.packed_ball(cfg.group.rank, cfg.budgets.defect_radius)
    else:
        ws = random_words(cfg.group.rank, cfg.seed, 12, 3)
        left, right = W.pack(ws[:6]), W.pack(ws[6:])
    report = defect_estimate(sys_obj, left, right)
    cell.section["defect"] = {"value": report.value, "pairs": report.pairs_checked,
                              "argmax": None if report.pair is None else
                              [W.to_string(report.pair[0]), W.to_string(report.pair[1])]}

    # The tree closed form is exact at any power.  Elsewhere phi is only good
    # up to the powers the table above checks: past them the candidate ball
    # saturates.  The independence testers are squares, so off the tree they
    # homogenize at half that power.
    exact = sys_obj.is_exact_tree()
    power = min(16, 4 * cfg.budgets.n_max) if exact else cfg.budgets.n_max
    tester_power = 8 if exact else max(1, cfg.budgets.n_max // 2)
    hom_rows = []
    for word in [cfg.sigma_word] + random_words(cfg.group.rank, cfg.seed + 2, 3, 3):
        value, err = homogenize(sys_obj, word, power, defect_bound=report.value)
        hom_rows.append({"g": W.to_string(word), "value": value, "error": err})
    cell.section["homogenized"] = hom_rows

    indep_words = cfg.independence_words or [cfg.sigma_word]
    try:
        systems = [sys_obj if w == cfg.sigma_word else cfg.system(w) for w in indep_words]
        testers = [W.power(w, 2) for w in indep_words]
        matrix, rank = independence_matrix(systems, testers, n_max=tester_power)
        cell.section["independence"] = {"words": [W.to_string(w) for w in indep_words],
                                        "matrix": matrix.tolist(), "rank": rank}
        if rank < len(systems):
            cell.violations.append({"check": "independence-rank", "rank": rank,
                                    "expected": len(systems)})
    except ConfigError as exc:
        cell.section["independence"] = {"skipped": str(exc)}
    return cell


def run_rank1(cfg: ExperimentConfig) -> Cell:
    space = cfg.space
    budget = cfg.cert_budget()
    cell = Cell()
    x0 = cfg.basepoint
    g = cfg.group.from_word(cfg.sigma_word)
    if space.kind in ("euclidean",) or (space.kind == "product"
                                        and "euclidean" in (space.left.kind, space.right.kind)):
        _half_flat(cfg, [0.1, cfg.B, 10.0], cell)
        result = rank_one_test(space, cfg.group, g, x0, cfg.B,
                               min(3, cfg.budgets.n_max), budget)
        cell.section["rank_one"] = {"certified": result.certified}
        if result.certified:
            cell.violations.append({"check": "flat-rank-one-control",
                                    "detail": "flat axis must refute rank 1"})
        return cell

    # tree orbit points sit on a line spaced |sigma| apart, so the true
    # Hausdorff scale is half the spacing
    B_scale = max(cfg.B, len(cfg.sigma_word) / 2.0 + 0.5 if space.kind == "tree" else 5.0)
    result = rank_one_test(space, cfg.group, g, x0, B_scale,
                           cfg.budgets.n_max, budget)
    if result.certified:
        cell.section["rank_one"] = {
            "certified": True, "B": B_scale,
            "growth_floor": result.growth_floor,
            "worst_orbit_deviation": max(e.orbit_to_geodesic for e in result.evidence),
            "worst_geodesic_deviation": max(e.geodesic_to_orbit for e in result.evidence)}
    else:
        cell.section["rank_one"] = {"certified": False, "B": B_scale,
                                    "n": result.n, "reason": result.reason}
        cell.violations.append({"check": "rank-one", "B": B_scale,
                                "witness": result.witness})
    companion = _companion(cfg)
    profile = independence_test(space, cfg.group, g,
                                cfg.group.from_word(companion), x0,
                                cfg.budgets.grid_max,
                                threshold=3.0 * B_scale)
    cell.section["independence_profile"] = {
        "companion": W.to_string(companion),
        "values": list(profile.values),
        "tail_increasing": profile.tail_increasing,
        "passed": profile.passed}
    if not profile.passed:
        cell.violations.append({"check": "independence-profile",
                                "values": list(profile.values)})
    return cell


def run_schottky(cfg: ExperimentConfig) -> Cell:
    g = cfg.group.from_word(cfg.sigma_word)
    h = cfg.group.from_word(_companion(cfg))
    try:
        result = schottky_exponent(cfg.space, cfg.group, g, h,
                                   cfg.budgets.schottky_e,
                                   cfg.budgets.word_len_max, cfg.basepoint,
                                   n_cap=cfg.budgets.schottky_cap)
    except BudgetError as exc:
        return Cell({"schottky": {"N": None, "tried": sorted(exc.partial)}},
                    [{"check": "schottky-exponent", "detail": "no exponent within budget"}])
    table = {w: list(v) for w, v in sorted(result.displacements.items())}
    return Cell({"schottky": {"N": result.N, "E": result.E,
                              "word_len_max": result.word_len_max, "words": len(table)}},
                witnesses=[{"kind": "schottky-displacements", "N": result.N,
                            "E": result.E, "g": W.to_string(g.word),
                            "h": W.to_string(h.word), "table": table}])


def run_wpd(cfg: ExperimentConfig) -> Cell:
    space = cfg.space
    cell = Cell()
    g = cfg.group.from_word(cfg.sigma_word)
    x0 = cfg.basepoint
    M = 1
    target = max(12.0, 3.0 * cfg.budgets.wpd_c)
    while space.distance(x0, act(space, cfg.group.power(g, M), x0)) < target and M < 64:
        M += 1
    radius = cfg.search_radius
    zero = wpd_count(space, cfg.group, g, 0.0, M, radius, x0)
    cell.section["count_c0"] = zero.to_json()
    if zero.count != 1 or zero.matching != (W.IDENTITY,):
        cell.violations.append({"check": "wpd-free-action", "matching": zero.to_json()})
    bigger = wpd_count(space, cfg.group, g, cfg.budgets.wpd_c, M, radius + 2, x0)
    # the ball lists words by length (W.ball, GroupModel.ball), so the
    # radius-r matches are the grown count's matches of length <= r, in order
    matching = tuple(w for w in bigger.matching if len(w) <= radius)
    small = bigger._replace(radius=radius, matching=matching, count=len(matching))
    cell.section["count_small"] = small.to_json()
    cell.section["count_small_radius_grown"] = bigger.to_json()
    stable = small.count == bigger.count
    cell.section["radius_stable"] = stable
    if not stable:
        cell.violations.append({"check": "wpd-stability", "small": small.count,
                                "grown": bigger.count})
    cell.witnesses.append(small.to_json() | {"x0": space.point_to_json(x0)})
    return cell


def run_equiv(cfg: ExperimentConfig) -> Cell:
    space = cfg.space
    cell = Cell()
    g = cfg.sigma_word
    conj = W.multiply(W.multiply((1,), g), (-1,))
    K = cfg.budgets.equiv_k
    power_max = cfg.budgets.power_max

    found = equiv_search(space, cfg.group, g, conj, K, power_max,
                         cfg.search_radius, cfg.basepoint)
    cell.section["conjugate_search"] = None if found is None else found.to_json()
    if found is None:
        cell.violations.append({"check": "equiv-conjugate",
                                "detail": "conjugate orbits must match"})
    else:
        cell.witnesses.append(found.to_json() | {
            "g": W.to_string(g), "h": W.to_string(conj), "K": K})

    reversed_found = equiv_search(space, cfg.group, g, W.inverse(g), K,
                                  power_max, cfg.search_radius, cfg.basepoint)
    cell.section["inverse_search"] = (None if reversed_found is None
                                      else reversed_found.to_json())
    if reversed_found is not None:
        cell.violations.append({"check": "equiv-inverse",
                                "detail": "reversed orbit matched unexpectedly",
                                "witness": reversed_found.to_json()})

    powers = cell.section["conjugate_power"] = {
        "g_vs_conjugate": conjugate_power_test(g, conj, power_max),
        "g_vs_inverse": conjugate_power_test(g, W.inverse(g), power_max)}
    if powers["g_vs_conjugate"] is None:
        cell.violations.append({"check": "conjugate-power", "detail": "missed conjugacy"})
    if powers["g_vs_inverse"] is not None:
        cell.violations.append({"check": "conjugate-power",
                                "detail": "false positive on the inverse"})

    try:
        family = build_family(g, _companion(cfg), cfg.budgets.family_count,
                              N=2, power_max=power_max)
        cell.section["family"] = family.to_json()
    except BudgetError as exc:
        cell.section["family"] = {"members": [W.to_string(w) for w in exc.partial]}
        cell.violations.append({"check": "family-budget", "detail": str(exc)})
    return cell


def run_algebra(cfg: ExperimentConfig) -> Cell:
    cell = Cell()
    ext = swap_extension()
    w = cfg.sigma_word if len(cfg.sigma_word) >= 2 else W.from_string("aab")
    base = homogeneous_brooks_qm(w)
    cell.section["extension"] = ext.describe()
    cell.section["base"] = base.name

    averaged = orbit_average(ext, base)
    inv = check_sigma_invariance(ext, averaged, radius=3)
    cell.section["average_invariant"] = not inv
    if inv:
        cell.violations.append({"check": "orbit-average-invariance", "witness": inv[0]})

    transferred = transfer_extend(ext, averaged)
    report = restriction_check(ext, transferred, averaged,
                               word_radius=min(6, cfg.budgets.ball_radius + 2),
                               pair_radii=(3, 4))
    cell.section["restriction"] = {
        "words_checked": report.words_checked,
        "max_gap": report.max_restriction_gap,
        "defects": {str(k): v for k, v in sorted(report.defects.items())},
        "growth": report.growth}
    if report.max_restriction_gap > cfg.tolerance:
        cell.violations.append({"check": "restriction-gap",
                                "gap": report.max_restriction_gap})
    if report.growth > 1.0:
        cell.violations.append({"check": "defect-growth", "growth": report.growth})

    hom = homogeneity_suite(base, random_words(2, cfg.seed, 8, 4), n_max=4,
                            conjugators=[(1,), (2, 1)], tolerance=cfg.tolerance)
    cell.section["homogeneity_violations"] = hom
    if hom:
        cell.violations.append({"check": "homogeneity", "witness": hom[0]})

    raw = brooks_qm(w)
    raw_hom = homogeneity_suite(raw, [(1, 1, 2)], n_max=3,
                                conjugators=[(1,)], tolerance=cfg.tolerance)
    cell.section["raw_brooks_conjugacy_breaks"] = bool(raw_hom)
    length_breaks = homogeneity_suite(word_length_qm(), [(1, 2, -1)], n_max=2,
                                      tolerance=cfg.tolerance)
    cell.section["word_length_breaks"] = bool(length_breaks)
    if not length_breaks:
        cell.violations.append({"check": "negative-control",
                                "detail": "word length looked homogeneous"})
    return cell


_RUNNERS = {
    "axioms": run_axioms,
    "contract": run_contract,
    "qm": run_qm,
    "rank1": run_rank1,
    "schottky": run_schottky,
    "wpd": run_wpd,
    "equiv": run_equiv,
    "algebra": run_algebra,
}


def run(subcommand: str, cfg: ExperimentConfig) -> tuple[dict, int]:
    """Execute a subcommand; returns (report, exit code)."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    started = time.monotonic()
    names = list(_RUNNERS) if subcommand == "all" else [subcommand]
    results = {}
    violations = []
    witnesses = []
    status = "ok"
    code = EXIT_OK
    try:
        for name in names:
            cell = _RUNNERS[name](cfg)
            results[name] = cell.section
            violations += [{"subcommand": name, **v} for v in cell.violations]
            witnesses += cell.witnesses
        if violations:
            status, code = "violation", EXIT_VIOLATION
    except CatqmError as exc:
        status, code = "error", EXIT_CONFIG
        results["error"] = {"type": type(exc).__name__, "message": str(exc)}
    body = {
        "schema": SCHEMA,
        "subcommand": subcommand,
        "config": cfg.raw,
        "results": results,
        "violations": violations,
        "witnesses": witnesses,
        "status": status,
    }
    report = {"meta": {"wall_clock_s": time.monotonic() - started,
                       "tool": "catqm"},
              "body": body}
    return report, code


def canonical_body(report: dict) -> str:
    return json.dumps(report["body"], sort_keys=True)


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------

def replay(report_or_path) -> bool:
    """Re-evaluate every witness in a report; True iff each reproduces its
    claimed quantity within tolerance."""
    if isinstance(report_or_path, str):
        with open(report_or_path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    else:
        report = report_or_path
    body = report.get("body", report) if isinstance(report, dict) else report
    if not isinstance(body, dict) or body.get("schema") != SCHEMA:
        raise ConfigError(f"report schema must be {SCHEMA!r}")
    cfg = config_from_json(body.get("config"))
    witnesses = body.get("witnesses", [])
    if not isinstance(witnesses, list):
        raise ConfigError("report witnesses must be a list")
    return all(_replay_one(cfg, witness) for witness in witnesses)


def _replay_contraction(cfg: ExperimentConfig, w: dict, tol: float) -> bool:
    # every certificate samples its balls at the config's ball_samples
    if w["samples"] != cfg.budgets.ball_samples:
        return False
    space = cfg.space
    seg = space.geodesic(*map(space.point_from_json, w["segment"]))
    diam = projection_diameter_under_ball(space, seg, space.point_from_json(w["center"]),
                                          w["radius"], w["samples"])
    return abs(diam - w["diameter"]) <= tol * max(1.0, w["diameter"])


def _replay_lambda(cfg: ExperimentConfig, w: dict, tol: float) -> bool:
    space = cfg.space
    again = modified_length(cfg.system(), space.point_from_json(w["a"]),
                            space.point_from_json(w["b"]))
    step = lambda s: (s["edge"], s["translate"],
                      space.point_key(space.point_from_json(s["point"])))
    return (abs(again.value - w["value"]) <= tol
            and (again.expressways, again.candidates) == (w["expressways"], w["candidates"])
            and list(map(step, again.to_json(space)["path"])) == list(map(step, w["path"])))


def _replay_equiv(cfg: ExperimentConfig, w: dict, tol: float) -> bool:
    found = equiv_search(cfg.space, cfg.group, w["g"], w["h"], w["K"],
                         cfg.budgets.power_max, cfg.search_radius, cfg.basepoint)
    return (found is not None
            and (W.to_string(found.gamma), found.m, found.n) == (w["gamma"], w["m"], w["n"])
            and abs(found.hausdorff - w["hausdorff"]) <= tol)


def _replay_schottky(cfg: ExperimentConfig, w: dict, tol: float) -> bool:
    if not isinstance(w["table"], dict):
        return False
    try:
        again = schottky_exponent(cfg.space, cfg.group, w["g"], w["h"], w["E"],
                                  cfg.budgets.word_len_max, cfg.basepoint, n_cap=w["N"])
    except BudgetError:
        return False
    table = again.displacements
    return (again.N == w["N"] and table.keys() == w["table"].keys()
            and all(table[k][0] == length and abs(table[k][1] - disp) <= tol
                    for k, (length, disp) in w["table"].items()))


def _replay_wpd(cfg: ExperimentConfig, w: dict, tol: float) -> bool:
    # the whole count again, so a listed word that moves too far and an
    # omitted match both fail
    again = wpd_count(cfg.space, cfg.group, w["g"], w["c"], w["M"], w["radius"],
                      cfg.space.point_from_json(w["x0"])).to_json()
    return again["matching"] == w["matching"] and again["count"] == w["count"]


# One replay per witness kind: each re-runs the producer of its witness from
# the witness's own fields and the config echo, and compares the results.
_REPLAYS = {
    "contraction-refutation": _replay_contraction,
    "lambda-witness": _replay_lambda,
    "equiv-witness": _replay_equiv,
    "schottky-displacements": _replay_schottky,
    "wpd-matches": _replay_wpd,
}


def _replay_one(cfg: ExperimentConfig, witness: dict) -> bool:
    # unknown kinds, and witnesses that lack a field their replay reads or
    # hold one of the wrong type, fail closed so schema drift is caught
    if not isinstance(witness, dict):
        return False
    try:
        check = _REPLAYS.get(witness.get("kind"))
        return check is not None and check(cfg, witness, max(cfg.tolerance, 1e-6))
    except (KeyError, TypeError, ValueError, InputError):
        return False
