"""Per-layer metrics from a traced pass.

Metric names follow ``<key>.<field>``.  ``<key>`` is a wrapped function
(``spaces.tree.project``, ``actions.GroupModel.ball``), a layer
(``contraction``, ``spaces.half-plane``) or one of the benchmark's own op
spans (``runner.contract``).  The fields are:

- ``calls``: exact call count;
- ``s``: inclusive seconds;
- ``self_s``: self seconds, the time not spent in wrapped calls it made;
- ``us``: mean inclusive microseconds per call.

A few metrics combine these or read counters the tracer's hooks keep; they
are listed in ``DERIVED``.  The names to report come from ``BENCHMARK.json``,
so an unknown name is an error rather than a silent zero.
"""

from __future__ import annotations

FIELDS = ("calls", "s", "self_s", "us")

LEMMA_CHECKS = ("check_thin_triangle", "check_reverse_triangle",
                "check_dichotomy", "check_variation", "check_stability")


def _stat(summary: dict, key: str) -> list:
    return summary["stats"].get(key, [0, 0.0, 0.0])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _lemma(summary: dict, index: int) -> float:
    return sum(_stat(summary, f"contraction.{c}")[index] for c in LEMMA_CHECKS)


DERIVED = {
    "contraction.lemma_checks.calls": lambda s: _lemma(s, 0),
    "contraction.lemma_checks.s": lambda s: _lemma(s, 1),
    "contraction.projections_per_ball": lambda s: _ratio(
        s["counters"].get("contraction.ball_projections", 0),
        _stat(s, "contraction.projection_diameter_under_ball")[0]),
    "expressway.useful_ratio": lambda s: _ratio(
        s["counters"].get("expressway.expressways_used", 0),
        s["counters"].get("expressway.candidates", 0)),
    "algebra.qm_evals": lambda s: _stat(s, "algebra.Quasimorphism.__call__")[0],
    "algebra.extension_defect.pairs_per_s": lambda s: _ratio(
        s["counters"].get("algebra.extension_defect.pairs", 0),
        _stat(s, "algebra.extension_defect")[1]),
}

# Counters the hooks keep, reported as they are.
COUNTERS = ("expressway.candidates", "expressway.expressways_used",
            "expressway.defect_estimate.pairs", "algebra.extension_defect.pairs")


def metric(summary: dict, name: str, extra: dict | None = None) -> float:
    """Value of one per-layer metric; KeyError for a name it cannot read.

    ``extra`` holds metrics the benchmark measures itself, outside the
    traced pass (``runner.replay.s``, ``trace.overhead_s``).
    """
    if extra and name in extra:
        return float(extra[name])
    if name in DERIVED:
        return float(DERIVED[name](summary))
    if name in COUNTERS:
        return float(summary["counters"].get(name, 0))
    key, _, field = name.rpartition(".")
    if field not in FIELDS:
        raise KeyError(name)
    if key in summary["stats"]:
        calls, incl, own = summary["stats"][key]
        return float({"calls": calls, "s": incl, "self_s": own,
                      "us": _ratio(incl * 1e6, calls)}[field])
    if key in summary["layers"] and field in ("s", "self_s"):
        incl, own = summary["layers"][key]
        return float(incl if field == "s" else own)
    raise KeyError(name)
