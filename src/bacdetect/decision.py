"""Three-family change detection and the continue/change recommendation.

The upper-tail and lower-tail mean tests use the maxP family statistic
(an "all points" alternative), the variance test uses medP ("at least
half the points").  The three families are treated as independent, so
Bonferroni splits the overall level: a family is significant at
alpha / 3 and marginally significant up to 2 * alpha / 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

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

_FAMILY_VERDICTS = {
    "upper_tail": ("lowered", "not_lowered"),
    "lower_tail": ("raised", "not_raised"),
    "variance": ("reduced", "not_reduced"),
}


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

    @property
    def significant_threshold(self):
        return self.alpha / 3.0

    @property
    def marginal_threshold(self):
        return 2.0 * self.alpha / 3.0


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
    def from_dict(cls, d):
        return cls(
            result=FamilyTestResult(
                observed_stat=d["observed_stat"],
                corrected_p=d["corrected_p"],
                stat_kind=d["statistic_kind"],
                n_used=d["n_permutations_used"],
                degenerate_points=d["degenerate_points"],
            ),
            verdict=d["verdict"],
        )


@dataclass
class DecisionRecord:
    stage_prev: str
    stage_curr: str
    upper_tail: FamilyOutcome
    lower_tail: FamilyOutcome
    variance: FamilyOutcome
    overall: str
    recommendation: str
    provenance: dict

    def families(self):
        return {"upper_tail": self.upper_tail, "lower_tail": self.lower_tail,
                "variance": self.variance}

    def to_dict(self):
        return {
            "schema": "bacdetect-report-v1",
            "stage_prev": self.stage_prev,
            "stage_curr": self.stage_curr,
            "families": {k: v.to_dict() for k, v in self.families().items()},
            "overall": self.overall,
            "recommendation": self.recommendation,
            "provenance": dict(self.provenance),
            "tool": {"name": "bacdetect", "version": _version()},
        }

    @classmethod
    def from_dict(cls, d):
        fams = d["families"]
        return cls(
            stage_prev=d["stage_prev"],
            stage_curr=d["stage_curr"],
            upper_tail=FamilyOutcome.from_dict(fams["upper_tail"]),
            lower_tail=FamilyOutcome.from_dict(fams["lower_tail"]),
            variance=FamilyOutcome.from_dict(fams["variance"]),
            overall=d["overall"],
            recommendation=d["recommendation"],
            provenance=dict(d["provenance"]),
        )


def _sig6(x):
    """p-values and statistics are stored with 6 significant digits."""
    return float(f"{float(x):.6g}")


def _version():
    from . import __version__

    return __version__


def test_upper_tail(prev, curr, cfg):
    """Mean test for the upper tail: are the peaks being flattened?

    H1: mu_prev(s) > mu_curr(s) for all s <= tau, maxP-combined,
    Westfall-Young corrected.
    """
    test = PointwiseTest(kind="mean", direction="greater", pooled=cfg.pooled)
    # the families must not share permutation streams: seed, seed ^ 1, seed ^ 2
    return westfall_young(prev, curr, test, "maxP", cfg.perm, cfg.grid.upper_tail_mask())


def test_lower_tail(prev, curr, cfg):
    """Mean test for the lower tail: are the valleys being filled?

    H1: mu_prev(s) < mu_curr(s) for all s >= 1 - tau.  The grid's s_max
    already excludes the extreme-depth valley pixels.
    """
    test = PointwiseTest(kind="mean", direction="less", pooled=cfg.pooled)
    perm = replace(cfg.perm, seed=cfg.perm.seed ^ 1)
    return westfall_young(prev, curr, test, "maxP", perm, cfg.grid.lower_tail_mask())


def test_variance(prev, curr, cfg):
    """Variance test over the whole grid: is the surface getting more even?

    H1: sigma^2_prev(s) > sigma^2_curr(s) for at least half the grid,
    medP-combined.
    """
    test = PointwiseTest(kind="variance")
    perm = replace(cfg.perm, seed=cfg.perm.seed ^ 2)
    return westfall_young(prev, curr, test, "medP", perm, None)


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
    positive, negative = _FAMILY_VERDICTS[family]
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
    results = {
        "upper_tail": test_upper_tail(prev, curr, cfg),
        "lower_tail": test_lower_tail(prev, curr, cfg),
        "variance": test_variance(prev, curr, cfg),
    }
    outcomes = {}
    for name, res in results.items():
        band = band_p_value(res.corrected_p, cfg.alpha)
        # store 6-significant-digit values so save -> load is the identity
        rounded = replace(res, observed_stat=_sig6(res.observed_stat),
                          corrected_p=_sig6(res.corrected_p))
        outcomes[name] = FamilyOutcome(result=rounded, verdict=_verdict(name, band))
    overall = combine_families(
        results["upper_tail"].corrected_p,
        results["lower_tail"].corrected_p,
        results["variance"].corrected_p,
        cfg.alpha,
    )
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
        upper_tail=outcomes["upper_tail"],
        lower_tail=outcomes["lower_tail"],
        variance=outcomes["variance"],
        overall=overall,
        recommendation=recommend(overall, cfg),
        provenance=provenance,
    )
