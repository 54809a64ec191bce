"""Generalized analytic continuation toolkit.

Simple pole series on the unit circle, finite-window right-limit searches,
constructive Diophantine shift sequences with polynomial balancedness
certificates, rotation/kneading coefficient streams, and natural-boundary
probes, plus a recipe-driven CLI (``rrl-lab``).
"""

from .boundary import ArcProbeResult, arc_l1_growth
from .circle import CirclePoint, roots_of_unity, turn_to_complex
from .diophantine import (
    BalancedSet,
    CPoly,
    balance_completion,
    dirichlet_approx,
    factorial_shifts,
    is_eps_balanced,
    moment_sequence,
    pigeonhole_shift,
    poly_from_roots,
    q_poly,
)
from .dynamics import (
    FEIGENBAUM_C,
    RealZeroResult,
    UnimodalMap,
    feigenbaum_product,
    hecke_outer_eval,
    hecke_stream,
    itinerary,
    kneading_determinant,
    kneading_sequence,
    occurrence_times,
    smallest_real_zero,
    thue_morse,
)
from .errors import (
    CapExceeded,
    DuplicatePoint,
    InsufficientDepth,
    NotARoot,
    PoleCollision,
    ResonantGamma,
    RrlLabError,
    ValidationError,
)
from .psp import (
    PoleMeasure,
    fourier_psp,
    moments,
    psp_eval,
    taylor_inner,
    uniform_roots_measure,
)
from .right_limits import (
    Clusters,
    ShiftReport,
    outer_sum,
    outer_tail_bound,
    renascent_shift_search,
    report_to_csv,
    verify_rrl_on_psp,
    window_cluster,
)
from .streams import CoeffStream, preperiodic

__version__ = "0.1.0"
