"""Surface-quality change detection from bearing area curves."""

__version__ = "0.4.0"

from .calibration import (
    CalibrationError,
    SphereFit,
    calibrate_stage,
    fit_sphere,
    subtract_baseline,
)
from .decision import DecisionConfig, DecisionRecord, decide
from .permutation import (
    FamilyTestResult,
    PermutationConfig,
    PointwiseTest,
    westfall_young,
)
from .roughness import (
    BearingAreaCurve,
    QuantileGrid,
    StageSample,
    build_stage_sample,
    compute_sa,
    default_grid,
    evaluate_on_grid,
    extract_bac,
    median_sa,
)
from .simulation import (
    SimConfig,
    SimResult,
    estimate_type2,
    l2_distance_pct,
    perturbation,
    sample_gp_groups,
    se_kernel,
)
from .statcore import f_sf, student_t_sf
from .surface_io import (
    HeightMatrix,
    StageRecord,
    SurfaceDataError,
    load_report,
    load_stage,
    save_report,
)
