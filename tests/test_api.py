"""The public API: ``cvqss.__all__`` is pinned, so an export or a removal is deliberate."""

import cvqss

PUBLIC_NAMES = {
    # gaussian
    "GaussianState", "StateDiagnostics", "UnphysicalStateError", "squeezed_vacuum",
    "symplectic_eigenvalues", "symplectic_form", "vacuum", "validate",
    # states
    "ChannelSpec", "PartyLayout", "build_three_mode_chain", "build_kn_state",
    "chain_topology", "star_topology",
    # estimation
    "JointVariable",
    # keyrate
    "EavesdroppingReport", "KeyRateReport", "SECURITY_THRESHOLD", "ThresholdScheme",
    "enumerate_structures", "keyrate_eavesdropping", "keyrate_qss",
    # simulation
    "EmpiricalConditioning", "ProtocolReport", "UndersampledError", "run_protocol",
}


def test_all_is_the_pinned_name_set():
    assert len(PUBLIC_NAMES) == 26
    assert set(cvqss.__all__) == PUBLIC_NAMES


def test_all_has_no_duplicates():
    assert len(cvqss.__all__) == len(set(cvqss.__all__))


def test_every_exported_name_resolves():
    assert [name for name in cvqss.__all__ if not hasattr(cvqss, name)] == []
