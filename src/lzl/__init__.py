"""Exact engines for the one-visibility localization and one-proximity games.

Modules: graphs (representation, generators, vertex-mask kernels), iso (profiles,
h-index, bound rules), prox (contamination dynamics and the exact prox
solver), zeta (localization fixpoint solver and policy simulator),
strategies (tree, pathwidth, domination, separator strategies and lifts),
gridsweep (the five-panel grid sweep), cli (command-line surface).
"""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    cartesian_product,
    diameter,
    distances,
    generate,
    is_c4_free,
    max_degree,
    parse_graph,
    serialize_graph,
    subdivide,
)
from .iso import (
    BoundsReport,
    IsoProfile,
    assemble_bounds,
    grid_profile_oracle,
    h_index,
    h_index_graph,
    iso_peak,
    iso_profile,
    kary_bound_report,
    peak_to_h_lower,
    prox_lower_bounds,
)
from .prox import (
    ProbeSchedule,
    prox_number,
    prox_solve,
    prox_winnable,
    run_schedule,
)
from .zeta import (
    Policy,
    SchedulePolicy,
    observe,
    simulate_policy,
    zeta_number,
    zeta_winnable,
)
from .strategies import (
    LevelDecomposition,
    PathDecomposition,
    balanced_separator_brute,
    brute_pathwidth,
    level_decomposition,
    lift_prox_to_zeta,
    midway_vertex,
    min_dominating_set,
    normalize_path_decomposition,
    strat_domination,
    strat_pathwidth,
    strat_separator,
    strat_tree_depth,
    strat_tree_levels,
    strat_tree_log,
    validate_path_decomposition,
)
from .gridsweep import (
    ForcedRegionIndex,
    clip_schedule,
    f_eval,
    five_panel_schedule,
    forced_region,
    grid_strategy,
    m_of_n,
    natural_step,
    panel_schedule,
    probe_set,
    spread_step,
)
