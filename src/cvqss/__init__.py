"""Key-rate bounds and protocol simulation for continuous-variable quantum
secret sharing over Gaussian states."""

from .estimation import JointVariable
from .gaussian import (
    GaussianState,
    StateDiagnostics,
    UnphysicalStateError,
    symplectic_eigenvalues,
    validate,
)
from .keyrate import (
    EavesdroppingReport,
    KeyRateReport,
    SECURITY_THRESHOLD,
    ThresholdScheme,
    keyrate_eavesdropping,
    keyrate_qss,
)
from .simulation import (
    EmpiricalConditioning,
    ProtocolReport,
    UndersampledError,
    run_protocol,
)
from .states import (
    ChannelSpec,
    PartyLayout,
    build_three_mode_chain,
    build_kn_state,
    chain_topology,
    star_topology,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec",
    "EavesdroppingReport",
    "EmpiricalConditioning",
    "GaussianState",
    "JointVariable",
    "KeyRateReport",
    "PartyLayout",
    "ProtocolReport",
    "SECURITY_THRESHOLD",
    "StateDiagnostics",
    "ThresholdScheme",
    "UndersampledError",
    "UnphysicalStateError",
    "build_three_mode_chain",
    "build_kn_state",
    "chain_topology",
    "keyrate_eavesdropping",
    "keyrate_qss",
    "run_protocol",
    "star_topology",
    "symplectic_eigenvalues",
    "validate",
]
