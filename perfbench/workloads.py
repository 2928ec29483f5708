"""The benchmark's workloads: which catqm operations one pass runs.

An operation is either one report cell, ``catqm SUBCOMMAND --config
configs/NAME.json``, or the finite-extension defect certificate computed
through the public ``catqm.algebra`` API.  Cells are run one by one, never
through ``catqm all``: ``all`` stops at the first crash, so on the half-plane
and Euclidean configs it would hide every cell after ``qm``.
"""

from __future__ import annotations

from dataclasses import dataclass

SEVEN = ("axioms", "contract", "qm", "rank1", "schottky", "wpd", "equiv")
SUBCOMMANDS = SEVEN + ("algebra",)

# The certificate value the paper's construction gives at every radius the
# benchmark computes.
CERTIFICATE_VALUE = 2.0
CERTIFICATE_WORD = "aab"
CHECK_RADIUS = 4


@dataclass(frozen=True)
class Op:
    """One operation of a pass: a report cell, or the extension defect
    certificate at ``radius`` when ``subcommand`` is None."""
    config: str | None
    subcommand: str | None = None
    radius: int | None = None

    @property
    def name(self) -> str:
        if self.subcommand is None:
            return f"extension_defect/r{self.radius}"
        return f"{self.config}/{self.subcommand}"


def cells(configs, subcommands) -> list[Op]:
    return [Op(c, s) for c in configs for s in subcommands]


WORKLOADS: dict[str, list[Op]] = {
    # the paper's main model: the free group acting on its Cayley tree
    "tree": cells(["tree_aab"], SEVEN),
    # golden-section geometry and the ball route of the expressway code
    "curved_flat": cells(["half_plane", "euclidean_control"], SEVEN),
    # the extension-defect pair grid; no geometry
    "algebra": cells(["tree_aab"], ["algebra"]) + [Op(None, radius=5)],
}


def configs_of(workload: str) -> list[str]:
    """Config stems a workload loads, in first-use order."""
    out: list[str] = []
    for op in WORKLOADS[workload]:
        if op.config is not None and op.config not in out:
            out.append(op.config)
    return out
