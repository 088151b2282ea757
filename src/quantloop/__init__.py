"""quantloop: simulation and analysis of PI control loops whose input and
output signals pass through an integer quantizer."""

from .analysis import (
    CycleReport,
    EntryRegion,
    Interval,
    Verdict,
    amplitude2_pairs,
    cycle_error_band,
    detect_cycle,
    detect_cycle_approx,
    in_entry_region,
    minimal_invariant_pairs,
    predict_cycle,
    steps_to_switch,
    verify_band,
    verify_capture,
    verify_control_lock,
)
from .campaign import (
    CampaignSpec,
    RmsRow,
    analyze_trajectory,
    load_scenario,
    rms_quantized_error,
    run_scenario,
    run_table1,
)
from .dynamics import (
    Disturbance,
    Lasso,
    LoopConfig,
    ModePromotionWarning,
    Trajectory,
    TrajectoryRecord,
    TuningWarning,
    read_trajectory_csv,
    shift_trajectory,
    simulate,
    simulate_shifted,
    write_trajectory_csv,
)
from .numerics import (
    SQRT2_MINUS_1,
    Scalar,
    format_scalar,
    frac_part,
    int_part,
    parse_scalar,
    round_half_away,
    rounding_error,
    sign,
)
from .reachability import (
    AttractorClass,
    CellResult,
    GridResult,
    GridSpec,
    attraction_region,
    classify_trajectory,
    grid_values,
    sweep,
)

__version__ = "0.1.0"
