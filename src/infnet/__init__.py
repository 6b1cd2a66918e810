"""infnet: influence networks, emergent 1+1D geometry, and checkerboard propagation.

Event posets with embedded observer chains quantify one another by
forward/backward projection; coordinated chain pairs carve out a flat
1+1-dimensional subspace with a Minkowski-analogue scalar, boosts arrive as
chain-pair rescalings, free particles zig-zag at the invariant speed, and a
two-component transfer-matrix propagator sums their histories.
"""

from .network import (
    GENERAL,
    RESTRICTED,
    ChainRef,
    CycleError,
    DegreeViolationError,
    DuplicateEdgeError,
    FinalizedError,
    InfluenceNetwork,
    NetworkError,
    NotFinalizedError,
    UnknownChainError,
    UnknownEventError,
    Violation,
)
from .projection import (
    ChainInterval,
    EventCoordinate,
    backward_project,
    chain_interval_length,
    forward_project,
    project_interval,
    quantify_event,
)
from .geometry import (
    Decomposition,
    IntervalQuantification,
    MissingProjectionError,
    NotBetweenError,
    PairQuantification,
    UncoordinatedChainsError,
    decompose,
    distance,
    is_between,
    is_coordinated,
    minkowski_scalar,
    quantify_interval,
)
from .transforms import (
    Boost,
    FrameRelation,
    LightlikeBoostError,
    SpacelikeIntervalError,
    beta_gamma,
    interval_length,
    lorentz_boost,
    pair_transform,
)
from .freeparticle import (
    SpacetimePath,
    build_free_particle_fixture,
    consistent_orderings,
    enumerate_sequences,
    observer_spans,
    sample_sequences,
    sequence_to_path,
    zigzag_interval_pairs,
)
from .checkerboard import (
    Spinor,
    SpinorField,
    TransferMatrices,
    one_step_probability_total,
    path_amplitude,
    path_sum_kernel,
    propagate,
    step_field,
    zitterbewegung_trace,
)
from .kinematics import (
    COMPTON_STEP_METERS,
    COMPTON_TICK_SECONDS,
    Kinematics,
    RatePair,
    beta_consistency,
    kinematics_from_rates,
    rates_from_counts,
    transform_rates,
)

__version__ = "0.1.0"
