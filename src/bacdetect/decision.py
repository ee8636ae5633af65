"""Three-family change detection and the continue/change recommendation.

``FAMILIES`` defines the three tests.  The upper-tail and lower-tail mean
tests use the maxP family statistic (an "all points" alternative), the
variance test uses medP ("at least half the points").  Bonferroni splits
the overall level between the three families, whatever their dependence:
a family is significant at alpha / 3 and marginally significant up to
2 * alpha / 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .permutation import (
    FamilyTestResult,
    PermutationConfig,
    PointwiseTest,
    westfall_young,
)
from .roughness import QuantileGrid, default_grid

OVERALL_DETECTED = "improvement_detected"
OVERALL_MARGINAL = "improvement_marginal"
OVERALL_NONE = "no_improvement"

RECOMMEND_CONTINUE = "continue"
RECOMMEND_CHANGE = "clean_or_change_tool"
RECOMMEND_STOP = "stop_if_finest"

REPORT_SCHEMA = "bacdetect-report-v1"

# name -> (pointwise test, family statistic, verdicts if significant / not,
# tested domain of a grid).  upper tail, s in [0, tau]: H1 mu_prev(s) >
# mu_curr(s), the peaks are flattened; lower tail, s in [1 - tau, 1]: H1
# mu_prev(s) < mu_curr(s), the valleys are filled; variance, whole grid
# (None): H1 sigma^2_prev(s) > sigma^2_curr(s), the surface gets more even
FAMILIES = {
    "upper_tail": (PointwiseTest(kind="mean", direction="greater"), "maxP",
                   ("lowered", "not_lowered"), QuantileGrid.upper_tail_mask),
    "lower_tail": (PointwiseTest(kind="mean", direction="less"), "maxP",
                   ("raised", "not_raised"), QuantileGrid.lower_tail_mask),
    "variance": (PointwiseTest(kind="variance"), "medP", ("reduced", "not_reduced"),
                 lambda grid: None),
}


def family_args(name, perm, grid, pooled=False):
    """``(test, kind, cfg, domain)`` for ``westfall_young`` on ``name`` over ``grid``.

    ``cfg`` is ``perm`` itself: every family draws the same relabelings,
    as the Bonferroni split holds whatever the dependence between them.
    """
    test, kind, _, domain = FAMILIES[name]
    return replace(test, pooled=pooled), kind, perm, domain(grid)


@dataclass
class DecisionConfig:
    alpha: float = 0.1
    perm: PermutationConfig = field(default_factory=PermutationConfig)
    grid: QuantileGrid = field(default_factory=default_grid)
    pooled: bool = False
    # by default a marginal detection still counts as "continue"
    marginal_continues: bool = True
    finest_tool: bool = False

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise ValueError("alpha must lie in (0, 1)")


@dataclass
class FamilyOutcome:
    result: FamilyTestResult
    verdict: str

    def to_dict(self):
        return {
            "statistic_kind": self.result.stat_kind,
            "observed_stat": _sig6(self.result.observed_stat),
            "corrected_p": _sig6(self.result.corrected_p),
            "n_permutations_used": self.result.n_used,
            "degenerate_points": self.result.degenerate_points,
            "verdict": self.verdict,
        }

    @classmethod
    def from_dict(cls, d, where=""):
        """Read back ``to_dict``; ``where`` prefixes field names in errors."""
        return cls(
            result=FamilyTestResult(
                observed_stat=_field(d, "observed_stat", "a number", where),
                corrected_p=_field(d, "corrected_p", "a number", where),
                stat_kind=_field(d, "statistic_kind", "a string", where),
                n_used=_field(d, "n_permutations_used", "an integer", where),
                degenerate_points=_field(d, "degenerate_points", "an integer", where),
            ),
            verdict=_field(d, "verdict", "a string", where),
        )


@dataclass
class DecisionRecord:
    stage_prev: str
    stage_curr: str
    families: dict  # family name -> FamilyOutcome, in FAMILIES order
    overall: str
    recommendation: str
    provenance: dict

    def to_dict(self):
        return {
            "schema": REPORT_SCHEMA,
            "stage_prev": self.stage_prev,
            "stage_curr": self.stage_curr,
            "families": {k: v.to_dict() for k, v in self.families.items()},
            "overall": self.overall,
            "recommendation": self.recommendation,
            "provenance": dict(self.provenance),
            "tool": {"name": "bacdetect", "version": __version__},
        }

    @classmethod
    def from_dict(cls, d):
        _field(d, "schema", repr(REPORT_SCHEMA))
        return cls(
            stage_prev=_field(d, "stage_prev", "a string"),
            stage_curr=_field(d, "stage_curr", "a string"),
            families={name: FamilyOutcome.from_dict(d["families"][name],
                                                    f"families.{name}.")
                      for name in FAMILIES},
            overall=_field(d, "overall", "a string"),
            recommendation=_field(d, "recommendation", "a string"),
            provenance=dict(_field(d, "provenance", "an object")),
        )


# the JSON types a report's fields are read back as, and the one schema
# this version reads
_JSON_TYPES = {
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "an object": lambda v: isinstance(v, dict),
    repr(REPORT_SCHEMA): lambda v: v == REPORT_SCHEMA,
}


def _field(d, key, json_type, where=""):
    """``d[key]``, which must be ``json_type``, a key of ``_JSON_TYPES``."""
    v = d[key]
    if not _JSON_TYPES[json_type](v):
        raise TypeError(f"{where}{key} must be {json_type}, not {v!r}")
    return v


def _sig6(x):
    """p-values and statistics are stored with 6 significant digits."""
    return float(f"{float(x):.6g}")


def band_p_value(p, alpha):
    """Band a corrected p-value: 'significant', 'marginal', or 'none'.

    Bands are closed on the right: p = alpha/3 is significant and
    p = 2*alpha/3 is still marginal.
    """
    if p <= alpha / 3.0:
        return "significant"
    if p <= 2.0 * alpha / 3.0:
        return "marginal"
    return "none"


def _verdict(family, band):
    positive, negative = FAMILIES[family][2]
    if band == "significant":
        return positive
    if band == "marginal":
        return f"{positive}_marginal"
    return negative


def combine_families(p_upper, p_lower, p_variance, alpha):
    """Overall verdict from the three corrected p-values alone."""
    bands = [band_p_value(p, alpha) for p in (p_upper, p_lower, p_variance)]
    if "significant" in bands:
        return OVERALL_DETECTED
    if "marginal" in bands:
        return OVERALL_MARGINAL
    return OVERALL_NONE


def recommend(overall, cfg):
    if overall == OVERALL_DETECTED:
        return RECOMMEND_CONTINUE
    if overall == OVERALL_MARGINAL and cfg.marginal_continues:
        return RECOMMEND_CONTINUE
    return RECOMMEND_STOP if cfg.finest_tool else RECOMMEND_CHANGE


def decide(prev, curr, cfg):
    """Run the three family tests and assemble the decision record.

    Both samples must be evaluated on ``cfg.grid``; its tau sets the tails.
    """
    if not all(np.array_equal(s.grid.points, cfg.grid.points) for s in (prev, curr)):
        raise ValueError("stage samples are not evaluated on the configured grid")
    outcomes = {}
    p_values = []
    for name in FAMILIES:
        res = westfall_young(prev.curves, curr.curves,
                             *family_args(name, cfg.perm, cfg.grid, cfg.pooled))
        p_values.append(res.corrected_p)
        band = band_p_value(res.corrected_p, cfg.alpha)
        outcomes[name] = FamilyOutcome(result=res, verdict=_verdict(name, band))
    overall = combine_families(*p_values, cfg.alpha)
    provenance = {
        "seed": cfg.perm.seed,
        "n_permutations": cfg.perm.n_permutations,
        "tau": cfg.grid.tau,
        "alpha": cfg.alpha,
        "m": cfg.grid.m,
        "s_max": cfg.grid.s_max,
    }
    return DecisionRecord(
        stage_prev=prev.stage_id,
        stage_curr=curr.stage_id,
        families=outcomes,
        overall=overall,
        recommendation=recommend(overall, cfg),
        provenance=provenance,
    )
