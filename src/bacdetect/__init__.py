"""Surface-quality change detection from bearing area curves."""

__version__ = "0.1.0"

from .calibration import (
    CalibrationError,
    SphereFit,
    calibrate_stage,
    fit_sphere,
    subtract_baseline,
    subtract_plane,
)
from .decision import (
    DecisionConfig,
    DecisionRecord,
    decide,
    test_lower_tail,
    test_upper_tail,
    test_variance,
)
from .permutation import (
    FamilyTestResult,
    PermutationConfig,
    PointwiseTest,
    family_stat,
    westfall_young,
    westfall_young_all,
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
from .statcore import (
    PointwisePValues,
    f_sf,
    pointwise_mean_test,
    pointwise_variance_test,
    student_t_sf,
)
from .surface_io import (
    HeightMatrix,
    StageRecord,
    SurfaceDataError,
    load_report,
    load_stage,
    save_report,
)
