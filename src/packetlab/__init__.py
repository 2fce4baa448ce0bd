"""Angular wave packets on the circle in a truncated mode basis.

Quantum states on the circle (and the bounded-below number/phase analogue)
with every angular uncertainty measure, closed-form circular squeezed
states, the squeezed-state condition as a matrix pencil, and numerical
demonstrations that minimum-uncertainty packets require quantized mean
values of the conjugate momentum.
"""

from .errors import (
    ConvergenceError,
    IncompatibleFamilyError,
    IntegerWindingError,
    ModulusZeroWarning,
    OutOfRangeError,
    PacketLabError,
    SingularPencilError,
    TailMassError,
    UndersampledError,
    WindowMismatchError,
    ZeroNormError,
)
from .states import (
    AngularState,
    GridFunction,
    ModeWindow,
    WindowKind,
    default_grid_size,
    from_grid,
    grid_angles,
    normalize,
    random_state,
    state_from_json,
    state_to_json,
    to_grid,
)
from .operators import OperatorId, OperatorMatrix, build
from .bessel import bessel_i_ratios
from .moments import (
    MomentReport,
    Relation,
    RelationMargin,
    delta_phi_p,
    moments,
    relation_margins,
)
from .css import CssParams, css_moments, css_state
from .pencil import (
    PencilProblem,
    PencilSolution,
    QuantizationScan,
    circle_problem,
    eigenvector_at,
    oscillator_problem,
    quantization_scan,
    smallest_singular_pair,
    solve_pencil,
    uncertainty_floor,
)
from .variational import (
    FTable,
    ModulusProfile,
    PhaseProfile,
    delta_l_of,
    extrapolate_to_flat,
    extrapolate_to_zero,
    f_table,
    linear_phase,
    mean_l_of,
    minimize_phase,
    modulus_profile,
    random_smooth_modulus,
    read_f_table,
    uniform_modulus,
    vonmises_modulus,
    half_winding_modulus,
)

__version__ = "0.1.0"
