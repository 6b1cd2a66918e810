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

# The checkerboard names load on first access (PEP 562): checkerboard
# imports numpy, which the network, geometry and frame code never needs.
_CHECKERBOARD_NAMES = frozenset({
    "Spinor",
    "SpinorField",
    "TransferMatrices",
    "one_step_probability_total",
    "path_amplitude",
    "path_sum_kernel",
    "propagate",
    "step_field",
    "zitterbewegung_trace",
})


def __getattr__(name: str):
    if name == "checkerboard" or name in _CHECKERBOARD_NAMES:
        # import_module, not `from . import`: the latter's hasattr check
        # would call this function again.
        from importlib import import_module

        module = import_module(".checkerboard", __name__)
        return module if name == "checkerboard" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _CHECKERBOARD_NAMES)


__version__ = "0.1.0"
