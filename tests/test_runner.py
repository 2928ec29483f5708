import copy
import dataclasses
import hashlib
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from catqm import runner
from catqm import words as W
from catqm.actions import act
from catqm.cli import main as cli_main
from catqm.errors import ConfigError, NumericError
from catqm.expressway import tree_phi_exact
from catqm.runner import (
    Budgets,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_VIOLATION,
    canonical_body,
    config_from_json,
    load_config,
    replay,
    run,
)

from catqm.spaces import check_dd, check_ft, tree_point
from catqm.wpd import wpd_count

from oracles import (
    dd_triples_tree_exhaustive,
    ft_quads_tree_exhaustive,
    tree_dichotomy_configs,
    tree_triples_exhaustive,
    tree_variation_configs,
)

REPO = Path(__file__).resolve().parents[1]
TREE_CONFIG = REPO / "configs" / "tree_aab.json"
EUCLID_CONFIG = REPO / "configs" / "euclidean_control.json"
HALFPLANE_CONFIG = REPO / "configs" / "half_plane.json"


def small_tree_config(**overrides):
    data = json.loads(TREE_CONFIG.read_text())
    data["budgets"].update({"ball_radius": 4, "n_max": 3, "sample_count": 40,
                            "defect_radius": 2, "power_max": 3})
    data.update(overrides)
    return config_from_json(data)


def test_load_shipped_configs():
    for path in (TREE_CONFIG, EUCLID_CONFIG, HALFPLANE_CONFIG):
        cfg = load_config(str(path))
        assert cfg.budgets.ball_radius > 0


def test_budget_validation():
    with pytest.raises(ConfigError):
        Budgets(ball_radius=0).validate()
    scaled = Budgets().scaled(2.0)
    assert scaled.ball_radius == 10
    with pytest.raises(ConfigError):
        Budgets().scaled(-1)


@pytest.mark.parametrize("scale", ["nan", "inf", "1e308"])
def test_cli_budget_scale_must_be_finite(scale):
    # nan ended in a ValueError traceback, inf and 1e308 in an OverflowError
    assert cli_main(["wpd", "--config", str(TREE_CONFIG),
                     "--budget-scale", scale]) == EXIT_CONFIG


@pytest.mark.parametrize("name,value", [
    ("n_max", float("inf")),
    ("equiv_k", float("nan")),
    ("center_radius", float("inf")),
    ("n_max", 2.5),
    ("n_max", 3.0),
    ("n_max", True),
    ("equiv_k", True),
    ("equiv_k", "2"),
])
def test_budgets_must_be_finite_numbers_of_their_type(tmp_path, name, value):
    # "n_max": Infinity ended qm in a TypeError traceback, and "equiv_k": NaN
    # let equiv report that conjugate orbits do not match
    data = json.loads(TREE_CONFIG.read_text())
    data["budgets"][name] = value
    with pytest.raises(ConfigError):
        config_from_json(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli_main(["equiv", "--config", str(bad)]) == EXIT_CONFIG


def test_budgets_scale_by_their_declared_type():
    scaled = Budgets(center_radius=3, n_max=3).scaled(0.5)
    assert scaled.center_radius == 1.5
    assert scaled.n_max == 2       # round half to even, as before
    assert Budgets(n_max=3).scaled(0.1).n_max == 1
    with pytest.raises(ConfigError):
        Budgets().scaled(1e308)


def test_malformed_config_rejected():
    with pytest.raises(ConfigError):
        config_from_json({"schema": "nope"})
    with pytest.raises(ConfigError):
        config_from_json({"schema": "catqm-config/1"})   # missing fields
    with pytest.raises(ConfigError):
        config_from_json(["schema", "catqm-config/1"])


def test_unknown_subcommand():
    with pytest.raises(ConfigError):
        run("frobnicate", small_tree_config())


def test_qm_report_structure_and_exit():
    report, code = run("qm", small_tree_config())
    assert code == EXIT_OK
    body = report["body"]
    assert body["schema"] == "catqm-report/1"
    assert body["status"] == "ok"
    assert body["results"]["qm"]["phi_table"][0]["phi"] == 1.0
    assert "wall_clock_s" in report["meta"]


@pytest.mark.parametrize("path", [TREE_CONFIG, HALFPLANE_CONFIG, EUCLID_CONFIG],
                         ids=lambda p: p.stem)
def test_qm_finishes_on_every_shipped_config(path):
    report, code = run("qm", load_config(str(path)))
    status = report["body"]["status"]
    assert status in ("ok", "violation")
    assert code == {"ok": EXIT_OK, "violation": EXIT_VIOLATION}[status]
    assert replay(report) is True
    if path != TREE_CONFIG:
        # the tester a^2 at power 8 is a^16, past the saturated candidate
        # ball, where the matrix read [[0.5]]; at power n_max // 2 it reads
        # hom(a^2)
        assert report["body"]["results"]["qm"]["independence"]["matrix"] == [[2.0]]


def test_qm_half_plane_homogenizes_within_the_phi_table_powers():
    # seed 602 draws "BAA"; its 16th power loses the matrix determinant to
    # rounding, so homogenizing at power 16 ended in a NumericError
    cfg = load_config(str(HALFPLANE_CONFIG))
    cfg.seed = 602
    report, code = run("qm", cfg)
    assert report["body"]["status"] == "ok" and code == EXIT_OK
    rows = report["body"]["results"]["qm"]["homogenized"]
    assert "BAA" in [r["g"] for r in rows]
    assert rows[0] == {"g": "a", "value": 1.0, "error": rows[0]["error"]}


def test_zero_cost_shortcuts_count_in_qm():
    # sigma = "a" has L = 1, so each shortcut costs L - 1 = 0; a graph that
    # drops zero-weight entries read lambda(x0, a x0) = 3 and phi(a) = -2
    data = json.loads(TREE_CONFIG.read_text())
    data.update(sigma_word="a", independence_words=["a"])
    cfg = config_from_json(data)
    report, code = run("qm", cfg)
    assert code == EXIT_OK and replay(report) is True
    qm = report["body"]["results"]["qm"]
    sys_obj = cfg.system()
    x0 = sys_obj.basepoint
    ax0 = act(cfg.space, cfg.group.from_word("a"), x0)
    first = qm["lambda_table"][0]
    assert first["n"] == 1
    assert first["forward"] <= cfg.space.distance(x0, ax0)
    for row in qm["phi_table"]:
        n = row["n"]
        assert row["phi"] == tree_phi_exact(sys_obj, W.power((1,), n)) == n



def test_qm_reports_a_modified_length_above_the_distance(monkeypatch):
    # the direct edge is always a path, so lambda <= d; a modified length
    # that reads d + 1 is a violation, not an ok table row
    real = runner.modified_length

    def inflated(sys_obj, a, b):
        return dataclasses.replace(real(sys_obj, a, b),
                                   value=sys_obj.space.distance(a, b) + 1.0)

    monkeypatch.setattr(runner, "modified_length", inflated)
    cfg = small_tree_config()
    report, code = run("qm", cfg)
    assert code == EXIT_VIOLATION
    bounds = [v for v in report["body"]["violations"]
              if v["check"] == "lambda-upper-bound"]
    assert [(v["n"], v["direction"]) for v in bounds] == [
        (n, direction) for n in range(1, cfg.budgets.n_max + 1)
        for direction in ("forward", "back")]
    assert all(v["lambda"] == v["distance"] + 1.0 for v in bounds)

# sha256 prefixes of the shipped bodies of every (config, subcommand) cell;
# speed-ups and refactors must not move them
BODY_DIGESTS = {
    "tree_aab": {"axioms": "c227c14c269809f4", "contract": "4c1fead6747f3ff3",
                 "qm": "7130102d54bf113a", "rank1": "54180b09add20ca7",
                 "schottky": "d96b5a9daa7dd2de", "wpd": "35d3aa2e28f6582a",
                 "equiv": "4839ccbae3faadb0", "algebra": "1453283777f5f657"},
    "half_plane": {"axioms": "fc6e87b9c5f07d45", "contract": "58df55816eb66236",
                   "qm": "27a5a7270ecbc68f", "rank1": "e41915bc117e7f50",
                   "schottky": "5d08fe875d2ed97b", "wpd": "06a3a8081fe94773",
                   "equiv": "03581ca998f6fee0", "algebra": "88003144f6847510"},
    "euclidean_control": {"axioms": "b1fb0105b8aa9dc8", "contract": "83c169746f433bcd",
                          "qm": "c8b9617d6165e66e", "rank1": "ccd31b32c8a52e90",
                          "schottky": "8a9d574a9be7c94e", "wpd": "ea3c53a3483483ce",
                          "equiv": "02fde7e443507d1c", "algebra": "742526805c9de1bb"},
}


def _assert_body_pinned(config, subcommand):
    report, _ = run(subcommand, load_config(str(REPO / "configs" / f"{config}.json")))
    digest = hashlib.sha256(canonical_body(report).encode("utf-8")).hexdigest()
    assert digest.startswith(BODY_DIGESTS[config][subcommand])
    assert replay(report) is True


@pytest.mark.parametrize("subcommand", sorted(BODY_DIGESTS["tree_aab"]))
def test_tree_bodies_are_pinned(subcommand):
    _assert_body_pinned("tree_aab", subcommand)


@pytest.mark.parametrize("config,subcommand", [
    (config, sub) for config in ("half_plane", "euclidean_control")
    for sub in sorted(BODY_DIGESTS[config])])
def test_off_tree_bodies_are_pinned(config, subcommand):
    _assert_body_pinned(config, subcommand)


@pytest.mark.parametrize("path", [TREE_CONFIG, HALFPLANE_CONFIG, EUCLID_CONFIG],
                         ids=lambda p: p.stem)
def test_all_joins_the_cells_in_runner_order(path):
    # run is the one place that joins cells: all is the single-cell runs
    # concatenated, each violation tagged with its own subcommand
    cfg = load_config(str(path))
    report, code = run("all", cfg)
    cells = {name: run(name, cfg) for name in runner._RUNNERS}
    bodies = {name: cell[0]["body"] for name, cell in cells.items()}
    for name, body in bodies.items():
        assert all(v["subcommand"] == name for v in body["violations"])
    assert report["body"]["results"] == {name: body["results"][name]
                                         for name, body in bodies.items()}
    assert report["body"]["violations"] == [v for body in bodies.values()
                                            for v in body["violations"]]
    assert report["body"]["witnesses"] == [w for body in bodies.values()
                                           for w in body["witnesses"]]
    assert code == max(c for _, c in cells.values())


def test_catqm_errors_end_in_error_status_with_partial_results(monkeypatch):
    def numeric_failure(cfg):
        raise NumericError("no convergence")

    monkeypatch.setitem(runner._RUNNERS, "axioms", lambda cfg: runner.Cell({"done": 1}))
    monkeypatch.setitem(runner._RUNNERS, "contract", numeric_failure)
    report, code = run("all", small_tree_config())
    body = report["body"]
    assert code == EXIT_CONFIG
    assert body["status"] == "error"
    assert body["results"] == {
        "axioms": {"done": 1},
        "error": {"type": "NumericError", "message": "no convergence"}}


def test_other_exceptions_propagate(monkeypatch):
    def bug(cfg):
        raise RuntimeError("bug")

    monkeypatch.setitem(runner._RUNNERS, "axioms", bug)
    with pytest.raises(RuntimeError):
        run("axioms", small_tree_config())


def test_determinism_same_seed():
    r1, _ = run("qm", small_tree_config())
    r2, _ = run("qm", small_tree_config())
    assert canonical_body(r1) == canonical_body(r2)


def test_seed_changes_are_visible_but_stable():
    r1, _ = run("axioms", small_tree_config(seed=1))
    r2, _ = run("axioms", small_tree_config(seed=1))
    assert canonical_body(r1) == canonical_body(r2)


def test_replay_round_trip(tmp_path):
    report, code = run("qm", small_tree_config())
    assert code == EXIT_OK
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert replay(str(path)) is True


def _bump(field):
    def corrupt(witness):
        witness[field] += 0.25
    return corrupt


def _bump_first_displacement(witness):
    witness["table"][min(witness["table"])][1] += 0.25


def _list_a_far_mover(witness):
    # "aaa" moves the basepoint of tree_aab by 3 > c = 2
    witness["matching"].append("aaa")
    witness["count"] += 1


def _omit_a_match(witness):
    # "BAba" is one of the 9 elements that move the Euclidean basepoint and
    # its far orbit point by at most c; listing the other 8 is incomplete
    witness["matching"].remove("BAba")
    witness["count"] -= 1


def _empty_the_table(witness):
    witness["table"] = {}


def _truncate_the_path(witness):
    # the remaining step costs 0 and uses no expressway, so a replay that
    # only re-adds the listed steps accepts it
    witness.update(path=witness["path"][:1], value=0.0, expressways=0)


def _relabel_the_expressway(witness):
    # value and expressway count kept: only the path itself is wrong
    step = next(s for s in witness["path"] if s["edge"] == "expressway")
    step.update(edge="free", translate=None)


def _claim_an_unpersistent_match(witness):
    # [x0, aab x0] and AA [x0, aaabA x0] are 2-close, but the match does not
    # persist at (2, 2), so equiv_search never returns it
    witness.update(gamma="AA", m=1, n=1, hausdorff=2.0)


# (id, kind, config, subcommand, corruption): one cell that emits each kind
CORRUPTIONS = [
    ("contraction-refutation", "contraction-refutation", EUCLID_CONFIG, "contract",
     _bump("diameter")),
    ("lambda-witness", "lambda-witness", None, "qm", _bump("value")),
    ("equiv-witness", "equiv-witness", TREE_CONFIG, "equiv", _bump("hausdorff")),
    ("schottky-displacements", "schottky-displacements", TREE_CONFIG, "schottky",
     _bump_first_displacement),
    ("wpd-matches", "wpd-matches", TREE_CONFIG, "wpd", _list_a_far_mover),
    ("wpd-matches-omitted", "wpd-matches", EUCLID_CONFIG, "wpd", _omit_a_match),
    ("schottky-emptied", "schottky-displacements", TREE_CONFIG, "schottky",
     _empty_the_table),
    ("lambda-truncated", "lambda-witness", TREE_CONFIG, "qm", _truncate_the_path),
    ("lambda-relabelled", "lambda-witness", TREE_CONFIG, "qm", _relabel_the_expressway),
    ("equiv-not-persistent", "equiv-witness", TREE_CONFIG, "equiv",
     _claim_an_unpersistent_match),
]


@pytest.mark.parametrize("kind,config,subcommand,corrupt",
                         [c[1:] for c in CORRUPTIONS], ids=[c[0] for c in CORRUPTIONS])
def test_replay_detects_corruption(tmp_path, kind, config, subcommand, corrupt):
    cfg = small_tree_config() if config is None else load_config(str(config))
    report, _ = run(subcommand, cfg)
    assert replay(report) is True
    bad = copy.deepcopy(report)
    corrupt(next(w for w in bad["body"]["witnesses"] if w.get("kind") == kind))
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert replay(str(path)) is False


@pytest.mark.parametrize("edit", [
    lambda w: w.update(count=w["count"] + 5),
    lambda w: w.update(matching=[], count=0),
    lambda w: w.update(matching=[]),
], ids=["count", "emptied", "emptied-count-kept"])
def test_replay_checks_the_wpd_match_count(edit):
    # replay once read only the listed words, so a wrong count or an empty
    # list replayed True; the identity matches for every c >= 0
    report, _ = run("wpd", load_config(str(TREE_CONFIG)))
    (witness,) = report["body"]["witnesses"]
    assert witness["matching"] == [""] and witness["count"] == 1
    edit(witness)
    assert replay(report) is False


@pytest.mark.parametrize("candidates", [float("nan"), "x", None, 999],
                         ids=["nan", "string", "null", "999"])
def test_replay_checks_the_lambda_candidates(candidates):
    # candidates was never compared, so any value replayed True.  On the tree
    # it counts the occurrences of the base letters on the widened geodesic:
    # n forward along sigma^n and none back
    report, _ = run("qm", load_config(str(TREE_CONFIG)))
    witnesses = [w for w in report["body"]["witnesses"] if w["kind"] == "lambda-witness"]
    assert [w["candidates"] for w in witnesses] == [c for n in range(1, 7) for c in (n, 0)]
    assert replay(report) is True
    for witness in witnesses:
        witness["candidates"] = candidates
    assert replay(report) is False


@pytest.mark.parametrize("key,value", [
    ("space", []), ("group", "free"), ("constants", None),
    ("seed", float("inf")), ("seed", True), ("seed", 1e300),
], ids=["space-not-an-object", "group-not-an-object", "constants-not-an-object",
        "seed-infinite", "seed-bool", "seed-float"])
def test_config_load_failures_are_config_errors(tmp_path, capsys, key, value):
    # a space, group or constants that is not an object ended load in an
    # AttributeError traceback and "seed": Infinity in an OverflowError;
    # "seed": true loaded as 1 and 1e300 as a 301-digit integer
    data = json.loads(TREE_CONFIG.read_text())
    data[key] = value
    with pytest.raises(ConfigError):
        config_from_json(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli_main(["axioms", "--config", str(bad)]) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def test_any_int_seed_loads():
    data = json.loads(TREE_CONFIG.read_text())
    for seed in (-3, 0, 2 ** 70):
        data["seed"] = seed
        assert config_from_json(data).seed == seed


@pytest.mark.parametrize("path,basepoint", [
    (EUCLID_CONFIG, [float("nan"), 0.0]),
    (HALFPLANE_CONFIG, [0.0, -1.0]),
    (EUCLID_CONFIG, "12"),
    (HALFPLANE_CONFIG, [0.5, 2.0, 9.0]),
    (TREE_CONFIG, {"v": ["a", "b"]}),
    (TREE_CONFIG, {"v": {"a": 1}}),
    (TREE_CONFIG, {"v": "a", "edge": ["b"], "t": 0.5}),
], ids=["euclidean-nan", "half-plane-below-axis", "euclidean-string",
        "half-plane-three-coordinates", "tree-vertex-list", "tree-vertex-dict",
        "tree-edge-list"])
def test_config_basepoint_is_validated(tmp_path, path, basepoint):
    # a NaN basepoint once ended contract in a ValueError traceback, and a
    # basepoint below the real axis passed schottky with status ok; the
    # string "12" once ran as (1.0, 2.0), a third half-plane coordinate
    # was dropped, and a tree vertex ["a", "b"] loaded as "ab", {"a": 1} as
    # "a" and an edge ["b"] as the letter b
    data = json.loads(path.read_text())
    data["basepoint"] = basepoint
    with pytest.raises(ConfigError):
        config_from_json(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    for sub in ("contract", "schottky"):
        assert cli_main([sub, "--config", str(bad)]) == EXIT_CONFIG


@pytest.mark.parametrize("t", [True, False, "0.5", None, float("nan"), 1.5],
                         ids=["true", "false", "string", "null", "nan", "past-the-edge"])
def test_tree_edge_offset_must_be_a_number_in_the_edge(tmp_path, t):
    # true once loaded as the vertex ab and false as a
    data = json.loads(TREE_CONFIG.read_text())
    data["basepoint"] = {"v": "a", "edge": "b", "t": t}
    with pytest.raises(ConfigError):
        config_from_json(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli_main(["axioms", "--config", str(bad)]) == EXIT_CONFIG


def test_tree_edge_offset_loads():
    data = json.loads(TREE_CONFIG.read_text())
    data["basepoint"] = {"v": "a", "edge": "b", "t": 0.5}
    assert config_from_json(data).basepoint == tree_point((1,), 2, 0.5)


# loads a Euclidean config with the dim given as JSON in argv[1] and the
# default basepoint, under its own 1.5 GB address-space cap
_DIM_CHILD = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))
from catqm.errors import ConfigError
from catqm.runner import config_from_json
data = json.loads(sys.argv[2])
data["space"]["dim"], data["basepoint"] = json.loads(sys.argv[1]), "default"
try:
    config_from_json(data)
except ConfigError as exc:
    print("config error:", exc)
"""


@pytest.mark.parametrize("dim", [True, 2.5, 1e300, 0, -1, 65, "2"])
def test_euclidean_dim_is_checked_at_load(tmp_path, capsys, dim):
    # "dim": true loaded as a 1-dimensional space, and 2.5 and 1e300 were
    # config errors only through a TypeError message
    data = json.loads(EUCLID_CONFIG.read_text())
    data["space"]["dim"], data["basepoint"] = dim, "default"
    with pytest.raises(ConfigError, match="euclidean dim"):
        config_from_json(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli_main(["axioms", "--config", str(bad)]) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("dim", [2 ** 40, 2 ** 70])
def test_a_huge_euclidean_dim_is_a_config_error_before_allocation(dim):
    # 2^40 ended load in a MemoryError and 2^70 in an OverflowError, when
    # the default basepoint formed dim coordinates; run only in a child
    # with its own address-space cap
    proc = subprocess.run([sys.executable, "-c", _DIM_CHILD, json.dumps(dim),
                           EUCLID_CONFIG.read_text()],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("config error:") and "euclidean dim" in proc.stdout


NAN, INF = float("nan"), float("inf")
# (config, product space or None) for each space kind a config can declare;
# the product takes the half-plane config's group, which load does not act
# by, at the default basepoint
SPACE_KINDS = {
    "tree": (TREE_CONFIG, None),
    "half-plane": (HALFPLANE_CONFIG, None),
    "euclidean": (EUCLID_CONFIG, None),
    "product": (HALFPLANE_CONFIG, {"kind": "product", "left": {"kind": "half-plane"},
                                   "right": {"kind": "euclidean", "dim": 1}}),
}
# (id, config, product space, where in the config, key, bad value): each
# loaded before.  The tree, half-plane and Euclidean spaces already refused a
# negative or string dd_constant; the product did not.
BAD_NUMBERS = (
    [(f"{key}-{tag}", TREE_CONFIG, None, "constants", key, value)
     for key, good in (("C", "1"), ("B", "5"))
     for tag, value in (("nan", NAN), ("inf", INF), ("zero", 0.0), ("negative", -1.0),
                        ("string", good), ("bool", True))]
    + [(f"tolerance-{tag}", TREE_CONFIG, None, None, "tolerance", value)
       for tag, value in (("nan", NAN), ("inf", INF), ("negative", -1e-6),
                          ("string", "1e-6"), ("bool", True))]
    + [(f"{kind}-{key}-{tag}", *SPACE_KINDS[kind], "space", key, value)
       for kind in SPACE_KINDS for key in ("tolerance", "dd_constant")
       for tag, value in (("nan", NAN), ("inf", INF), ("negative", -1.0), ("string", "x"))
       if kind == "product" or key == "tolerance" or tag in ("nan", "inf")])


@pytest.mark.parametrize("path,space,where,key,value", [c[1:] for c in BAD_NUMBERS],
                         ids=[c[0] for c in BAD_NUMBERS])
def test_config_numbers_are_checked_at_load(tmp_path, capsys, path, space, where,
                                            key, value):
    # "B": NaN once ran contract to 12,512 violations of bound NaN beside a
    # certified certificate, a space "tolerance": "x" ended it in a TypeError
    # traceback with exit 1, and "tolerance": -1 reported dd/ft violations
    data = json.loads(path.read_text())
    if space is not None:
        data.update(space=copy.deepcopy(space), basepoint="default")
    config_from_json(data)
    (data if where is None else data[where])[key] = value
    with pytest.raises(ConfigError, match=f"{key} must be"):
        config_from_json(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli_main(["contract", "--config", str(bad)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("path", [TREE_CONFIG, HALFPLANE_CONFIG, EUCLID_CONFIG],
                         ids=lambda p: p.stem)
def test_wpd_small_count_equals_a_direct_count(path):
    # the radius-r count is read off the radius-(r + 2) count
    cfg = load_config(str(path))
    report, _ = run("wpd", cfg)
    small = report["body"]["results"]["wpd"]["count_small"]
    assert small["radius"] == cfg.search_radius
    g = cfg.group.from_word(cfg.sigma_word)
    direct = wpd_count(cfg.space, cfg.group, g, cfg.budgets.wpd_c, small["M"],
                       cfg.search_radius, cfg.basepoint)
    assert small == direct.to_json()


# (id, where in the config, key, value): each loaded and was misread.  An
# infinite or fractional tree rank and one past the alphabet loaded, a bool
# group rank read as 1, and a config word was read letter by letter from
# whatever iterated: "x" as letter 24 of the rank-2 group, a list of
# characters as their word, {} as the identity and a string of
# independence words as one word per character.
BAD_RANKS_AND_WORDS = [
    ("space-rank-inf", "space", "rank", INF),
    ("space-rank-fraction", "space", "rank", 2.5),
    ("space-rank-past-the-alphabet", "space", "rank", 27),
    ("group-rank-bool", "group", "rank", True),
    ("sigma-letter-outside-rank", None, "sigma_word", "x"),
    ("sigma-letter-of-the-tree-not-the-group", None, "sigma_word", "abc"),
    ("sigma-list", None, "sigma_word", ["a", "a", "b"]),
    ("companion-object", None, "companion_word", {}),
    ("companion-letter-outside-rank", None, "companion_word", "bbx"),
    ("independence-string", None, "independence_words", "x"),
    ("independence-letter-outside-rank", None, "independence_words", ["aab", "abc"]),
    ("independence-entry-not-a-string", None, "independence_words", ["aab", ["a"]]),
]


@pytest.mark.parametrize("where,key,value", [c[1:] for c in BAD_RANKS_AND_WORDS],
                         ids=[c[0] for c in BAD_RANKS_AND_WORDS])
def test_config_ranks_and_words_are_checked_at_load(tmp_path, capsys, where, key, value):
    data = json.loads(TREE_CONFIG.read_text())
    data["space"]["rank"] = 3
    config_from_json(data)
    (data if where is None else data[where])[key] = value
    with pytest.raises(ConfigError):
        config_from_json(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli_main(["axioms", "--config", str(bad)]) == EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


def test_a_free_group_wider_than_its_tree_is_a_config_error(tmp_path):
    # rank 3 on the rank-2 tree once counted words with the letter c (wpd,
    # exit 0) and stopped mid-search on one (equiv, exit 2)
    data = json.loads(TREE_CONFIG.read_text())
    data["group"]["rank"] = 3
    with pytest.raises(ConfigError, match="wider"):
        config_from_json(data)
    bad = tmp_path / "wide.json"
    bad.write_text(json.dumps(data))
    for sub in ("wpd", "equiv"):
        assert cli_main([sub, "--config", str(bad)]) == EXIT_CONFIG
    data["group"]["rank"] = 2
    assert config_from_json(data).group.rank == 2
    # a rank-1 group takes words over its one letter
    data.update(group={"kind": "free", "rank": 1}, sigma_word="aa", companion_word="a",
                independence_words=["aa", "a"])
    assert config_from_json(data).group.rank == 1


@pytest.mark.parametrize("witness", [
    {"kind": "lemma", "lemma": "thin_triangle", "value": 1.0, "bound": 0.5},
    {"lemma": "thin_triangle", "value": 1.0, "bound": 0.5},
], ids=["lemma-kind", "no-kind"])
def test_replay_fails_closed_on_unknown_kinds(witness):
    report, _ = run("wpd", load_config(str(TREE_CONFIG)))
    assert replay(report) is True
    report["body"]["witnesses"].append(witness)
    assert replay(report) is False


@pytest.mark.parametrize("edit", [
    lambda w: {k: v for k, v in w.items() if k != "x0"},
    lambda w: {**w, "kind": ["wpd-matches"]},
    lambda w: {**w, "radius": "6"},
    lambda w: "wpd-matches",
], ids=["missing-field", "kind-is-a-list", "field-of-the-wrong-type", "not-an-object"])
def test_replay_fails_closed_on_malformed_witnesses(edit):
    # each ended in a traceback with exit 1, the code of a mismatch
    report, _ = run("wpd", load_config(str(TREE_CONFIG)))
    witnesses = report["body"]["witnesses"]
    witnesses[0] = edit(witnesses[0])
    assert replay(report) is False


@pytest.mark.parametrize("path", [TREE_CONFIG, HALFPLANE_CONFIG, EUCLID_CONFIG],
                         ids=lambda p: p.stem)
def test_replay_fails_closed_on_a_malformed_schottky_table(tmp_path, path):
    # a table that is not an object ended replay in an AttributeError
    # traceback with exit 1, the code of a mismatch
    report, _ = run("schottky", load_config(str(path)))
    (witness,) = report["body"]["witnesses"]
    for table in ([], "x", None):
        witness["table"] = table
        assert replay(report) is False
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(report))
        proc = subprocess.run([sys.executable, "-m", "catqm.cli", "replay", str(bad)],
                              capture_output=True, text=True)
        assert proc.returncode == EXIT_VIOLATION, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout.strip() == "replay: MISMATCH"


def test_replay_refuses_a_schottky_witness_with_a_nan_E():
    # with E = NaN no displacement fell short of its bound, so N = 2 passed
    # vacuously and the edited witness replayed True
    report, _ = run("schottky", load_config(str(TREE_CONFIG)))
    (witness,) = report["body"]["witnesses"]
    assert replay(report) is True
    witness["E"] = NAN
    assert replay(report) is False


@pytest.mark.parametrize("samples", [65, 7])
def test_replay_refuses_contraction_samples_the_config_did_not_produce(samples):
    # every certificate samples its balls at the config's ball_samples (64);
    # another count was replayed as given, building that many points
    report, _ = run("contract", load_config(str(EUCLID_CONFIG)))
    witnesses = [w for w in report["body"]["witnesses"]
                 if w["kind"] == "contraction-refutation"]
    assert witnesses and {w["samples"] for w in witnesses} == {64}
    assert replay(report) is True
    witnesses[0]["samples"] = samples
    assert replay(report) is False


@pytest.mark.parametrize("edit", [
    lambda r: r["body"].pop("config"),
    lambda r: r["body"].update(witnesses=5),
    lambda r: r.update(body=[r["body"]]),
], ids=["no-config", "witnesses-not-a-list", "body-not-an-object"])
def test_malformed_report_is_a_replay_error(tmp_path, edit):
    report, _ = run("wpd", load_config(str(TREE_CONFIG)))
    edit(report)
    with pytest.raises(ConfigError):
        replay(report)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert cli_main(["replay", str(path)]) == EXIT_CONFIG


def test_replay_empty_witness_list_vacuous():
    report, _ = run("qm", small_tree_config())
    report["body"]["witnesses"] = []
    assert replay(report) is True


def test_cli_end_to_end(tmp_path):
    out = tmp_path / "report.json"
    code = cli_main(["axioms", "--config", str(TREE_CONFIG),
                     "--out", str(out)])
    assert code == 0
    body = json.loads(out.read_text())["body"]
    assert body["results"]["axioms"]["dd_violations"] == 0


def test_cli_missing_config():
    assert cli_main(["qm", "--config", "/nonexistent.json"]) == EXIT_CONFIG


def test_cli_malformed_config(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli_main(["qm", "--config", str(bad)]) == EXIT_CONFIG


def test_cli_seed_override_changes_echo(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli_main(["wpd", "--config", str(TREE_CONFIG), "--out", str(out1)]) == 0
    assert cli_main(["wpd", "--config", str(TREE_CONFIG), "--seed", "99",
                     "--out", str(out2)]) == 0
    b1 = json.loads(out1.read_text())["body"]
    b2 = json.loads(out2.read_text())["body"]
    assert b1["config"]["seed"] != b2["config"]["seed"]


def test_cli_budget_scale(tmp_path):
    out = tmp_path / "scaled.json"
    code = cli_main(["wpd", "--config", str(TREE_CONFIG),
                     "--budget-scale", "0.5", "--out", str(out)])
    assert code == 0


def test_cli_budget_scale_echoes_the_budgets_it_ran_with(tmp_path):
    out = tmp_path / "scaled.json"
    assert cli_main(["wpd", "--config", str(TREE_CONFIG),
                     "--budget-scale", "0.5", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    echo = report["body"]["config"]["budgets"]
    assert Budgets(**echo) == load_config(str(TREE_CONFIG)).budgets.scaled(0.5)
    assert echo["ball_radius"] == 2 and echo["wpd_c"] == 1.0
    assert report["body"]["results"]["wpd"]["count_small"]["c"] == 1.0
    # the echoed config reproduces the body, and its witnesses replay
    again, _ = run("wpd", config_from_json(report["body"]["config"]))
    assert canonical_body(again) == canonical_body(report)
    assert replay(str(out)) is True


def test_euclidean_axioms_exit_zero():
    cfg = load_config(str(EUCLID_CONFIG))
    cfg.C = 0.0
    report, code = run("axioms", cfg)
    assert code == EXIT_OK


@pytest.mark.parametrize("argv", [
    ["qm"],
    ["qm", "report.json", "--config", str(TREE_CONFIG)],
    ["replay"],
    ["replay", "report.json", "--config", str(TREE_CONFIG)],
], ids=["cell-without-config", "cell-with-a-positional", "replay-without-report",
        "replay-with-a-cell-option"])
def test_cli_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as stop:
        cli_main(argv)
    assert stop.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "catqm.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "replay" in proc.stdout


# -- tree lemma tallies: distance-matrix masks against the per-config checkers

# Ledgers small or negative enough that rows violate, hypotheses flip and
# conclusions land on their tolerance boundaries: (B, C) = (-1, 1) puts the
# thin-triangle bound and the near-collinearity defect exactly on the values
# 0 and 2, (-6, 0.5) sends every dichotomy row through segment_distance and
# refutes it, (-0.25, 0) splits the variation rows and puts some on their
# bound, and a C just under 1 flips the projection hypotheses that sit at
# distance 1.  Only B and C are read, so the ledger's own positivity check
# does not apply.
FORCING_LEDGERS = [(-1.0, 0.0), (-1.0, 1.0), (-1.5, 1.0), (-6.0, 0.5),
                   (-0.25, 0.0), (-0.75, 1.0 - 5e-10), (-5.0, 0.5)]


def _per_config_tallies(space, ledger, tol, radius):
    small = min(3, radius)
    triples = list(tree_triples_exhaustive(space, radius))
    dichotomies = list(tree_dichotomy_configs(space, small))
    variations = list(tree_variation_configs(space, small))
    checks = (("thin_triangle", "check_thin_triangle", triples),
              ("near_collinearity", "check_reverse_triangle", triples),
              ("dichotomy", "check_dichotomy", dichotomies),
              ("variation", "check_variation", variations))
    # the statuses the checkers return within the one suite run, recorded
    # by a wrapper around each
    statuses = {attr: [] for _, attr, _ in checks}
    with pytest.MonkeyPatch.context() as mp:
        for attr, log in statuses.items():
            def record(*args, check=getattr(runner, attr), log=log):
                outcome = check(*args)
                log.append(outcome.status)
                return outcome
            mp.setattr(runner, attr, record)
        got = runner._lemma_suite(space, ledger, tol, triples, dichotomies, variations)
    # the buckets against a count of those statuses that shares no code
    # with the tally
    for name, attr, configs in checks:
        counts = Counter(statuses[attr])
        assert got[0][name] == {s: counts[s] for s in ("holds", "skipped", "violated")}
        assert len(statuses[attr]) == len(configs)
    return got


@pytest.mark.parametrize("radius", [3, 4])
def test_tree_lemma_tallies_match_the_per_config_route(radius):
    cfg = load_config(str(TREE_CONFIG))
    got = runner._tree_lemma_tallies(cfg.space, cfg.ledger, cfg.tolerance, radius)
    assert got == _per_config_tallies(cfg.space, cfg.ledger, cfg.tolerance, radius)
    counts, violations = got
    assert violations == []
    n = len(W.ball(2, radius))
    assert sum(counts["thin_triangle"].values()) == (n - 1) * n


def test_tree_lemma_tallies_match_where_rows_violate():
    space = load_config(str(TREE_CONFIG)).space
    seen = {}
    for B, C in FORCING_LEDGERS:
        ledger = SimpleNamespace(B=B, C=C)
        for tol in (1e-6, 0.0):
            got = runner._tree_lemma_tallies(space, ledger, tol, 3)
            assert got == _per_config_tallies(space, ledger, tol, 3), (B, C, tol)
            for name, bucket in got[0].items():
                for status, n in bucket.items():
                    seen[name, status] = seen.get((name, status), 0) + n
    # every lemma both holds and is violated somewhere
    for name in ("thin_triangle", "near_collinearity", "dichotomy", "variation"):
        assert seen[name, "violated"] > 0 and seen[name, "holds"] > 0, name
    assert seen["thin_triangle", "skipped"] > 0


# -- tree axioms: vertex projections against the per-config checkers

# C = 1 violates nothing; with tolerance 0, C = 0, -1 and -2 give 1,197,
# 3,701 and 8,513 dd violations and 3,545, 4,025 and 4,025 ft violations,
# so both masks decide rows on each side of their bound.
@pytest.mark.parametrize("tolerance", [None, 0.0], ids=["space-tol", "tol-0"])
@pytest.mark.parametrize("C", [1.0, 0.0, -0.5, -1.0, -2.0])
def test_tree_axioms_match_the_per_config_checkers(C, tolerance):
    space = load_config(str(TREE_CONFIG)).space
    dd, ft = runner._tree_axiom_violations(space, C, tolerance, 4)
    assert dd == check_dd(space, dd_triples_tree_exhaustive(space, 3, 2), C, tolerance)
    assert ft == check_ft(space, ft_quads_tree_exhaustive(space, 4), C, tolerance)
