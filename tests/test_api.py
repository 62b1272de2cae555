"""The public API: ``cvqss.__all__`` is pinned, so an export or a removal is deliberate,
and the README's library example runs."""

from pathlib import Path

import cvqss

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = {
    # gaussian
    "GaussianState", "StateDiagnostics", "UnphysicalStateError", "symplectic_eigenvalues",
    "validate",
    # states
    "ChannelSpec", "PartyLayout", "build_three_mode_chain", "build_kn_state",
    "chain_topology", "star_topology",
    # estimation
    "JointVariable",
    # keyrate
    "EavesdroppingReport", "KeyRateReport", "SECURITY_THRESHOLD", "ThresholdScheme",
    "keyrate_eavesdropping", "keyrate_qss",
    # simulation
    "EmpiricalConditioning", "ProtocolReport", "UndersampledError", "run_protocol",
}


def test_all_is_the_pinned_name_set():
    assert len(PUBLIC_NAMES) == 22
    assert set(cvqss.__all__) == PUBLIC_NAMES


def test_all_has_no_duplicates():
    assert len(cvqss.__all__) == len(set(cvqss.__all__))


def test_every_exported_name_resolves():
    assert [name for name in cvqss.__all__ if not hasattr(cvqss, name)] == []


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    analytic, simulated = capsys.readouterr().out.splitlines()
    rate, positive = analytic.split()
    assert float(rate) > 0.0 and positive == "True"
    estimate, sign, error = simulated.split()
    assert sign == "+-" and abs(float(estimate) - float(rate)) < 5 * float(error)
