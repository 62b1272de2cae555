"""Acceptance suite: one test per release criterion, each at its pinned
tolerance. Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS line per criterion."""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

from cvqss import (
    ChannelSpec,
    PartyLayout,
    SECURITY_THRESHOLD,
    ThresholdScheme,
    build_three_mode_chain,
    build_kn_state,
    chain_topology,
    keyrate_eavesdropping,
    keyrate_qss,
    star_topology,
    symplectic_eigenvalues,
    validate,
)
from cvqss import simulation
from cvqss.cli import SWEEP_HEADER, main as cli_main
from helpers import (
    beamsplitter_transform,
    bisect_root,
    chain_expected_variances,
    cz_transform,
    product_vacuum,
    pure_loss,
    squeezed_vacuum,
    symplectic_form,
    tmsv_conditional_variance,
    two_mode_squeezed,
    vacuum,
    variance,
)

GOLDEN = Path(__file__).parent / "data" / "default_sweep_golden.csv"

#: Seed for the statistical-oracle runs; chosen once, then frozen.
ORACLE_SEED = 42
ORACLE_ROUNDS = 10**6


def _report(number: int, text: str) -> None:
    print(f"criterion {number}: PASS - {text}")


def _read_rows(path) -> list:
    with open(path, newline="") as handle:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(handle)]


@pytest.fixture(scope="module")
def sweep_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    assert cli_main(["sweep", "--output", str(out), "--quiet"]) == 0
    return out


@pytest.fixture(scope="module")
def sweep_rows(sweep_file):
    return _read_rows(sweep_file)


def test_criterion_1_symplectic_and_physicality():
    probe = vacuum(3)
    omega = symplectic_form(3)
    for weight in (-2.0, -0.5, 0.0, 1.0, 3.0):
        matrix = cz_transform(probe, "m0", "m1", weight).matrix
        assert np.abs(matrix @ omega @ matrix.T - omega).max() < 1e-12
    for transmissivity in (0.0, 0.17, 0.5, 0.85, 1.0):
        matrix = beamsplitter_transform(probe, "m0", "m2", transmissivity).matrix
        assert np.abs(matrix @ omega @ matrix.T - omega).max() < 1e-12

    builders = [vacuum(1), vacuum(3), squeezed_vacuum(1.15, "p"),
                squeezed_vacuum(2.0, "x")]
    for r in (0.0, 0.5, 1.15):
        for transmissivity in (1.0, 0.9, 0.85):
            builders.append(build_three_mode_chain(r, transmissivity)[0])
    spec = ChannelSpec(0.9, 0.0)
    builders.append(build_kn_state(4, 1.0, {f"B{i}": spec for i in range(1, 5)},
                                   star_topology(4))[0])
    builders.append(build_kn_state(3, 0.7, {f"B{i}": spec for i in range(1, 4)},
                                   chain_topology(3))[0])
    for state in builders:
        assert validate(state).min_symplectic_eigenvalue >= 0.5 - 1e-9

    for r in (0.0, 0.7, 1.15):
        state, _ = build_three_mode_chain(r, 1.0)
        nus = symplectic_eigenvalues(state.cov)
        assert np.abs(nus - 0.5).max() < 1e-9

    _report(1, "all transforms symplectic to 1e-12, all builder outputs "
               "bona fide, lossless resource pure to 1e-9")


def test_criterion_2_closed_form_oracles():
    for r in (0.0, 0.3, 1.0, 2.0):
        report = keyrate_eavesdropping(two_mode_squeezed(r), PartyLayout("A", ("B",)))
        assert report.v_x_conditional == pytest.approx(tmsv_conditional_variance(r),
                                                       abs=1e-12)

    for r in (0.0, 0.6, 1.3):
        for transmissivity in (0.0, 0.3, 0.85, 1.0):
            for excess in (0.0, 0.05):
                state = squeezed_vacuum(r, "p", label="a")
                out = pure_loss(state, "a", ChannelSpec(transmissivity, excess))
                for quad in ("x", "p"):
                    closed_form = (transmissivity * variance(state, "a", quad)
                                   + 0.5 * (1.0 - transmissivity) + excess)
                    assert variance(out, "a", quad) == pytest.approx(
                        closed_form, abs=1e-12)

    _report(2, "two-mode squeezed inference variance and attenuation closed "
               "forms hold to 1e-12")


def _oracle_fit(state, target_basis, estimators):
    """The dealer's ``target_basis`` fitted on ``estimators`` (party -> basis)
    by ``run_protocol``'s sampler and fit, from the rounds of ORACLE_ROUNDS
    that match that pattern (all revealed, the conjugate as check pattern)."""
    pattern = {"A": target_basis, **estimators}
    conjugate = {party: "p" if basis == "x" else "x" for party, basis in pattern.items()}
    _, (grams, _) = simulation._revealed_grams(state, (pattern, conjugate), ORACLE_ROUNDS,
                                               1.0, 0.5, ORACLE_SEED)
    (fit,) = simulation._fit(*grams, target_basis, np.arange(len(estimators))[None],
                             [list(estimators)])
    return fit


def test_criterion_3_statistical_oracle():
    start = time.monotonic()
    checks = []  # (label, empirical, analytic)

    for label, state, expected in [
        ("vacuum", product_vacuum(["A", "B"]), 0.5),
        ("tmsv(0.3)", two_mode_squeezed(0.3), tmsv_conditional_variance(0.3)),
        ("tmsv(1)", two_mode_squeezed(1.0), tmsv_conditional_variance(1.0)),
    ]:
        fit = _oracle_fit(state, "x", {"B": "x"})
        checks.append((label, fit.variance, expected))

    for r, transmissivity in [(0.5, 1.0), (1.15, 1.0), (1.0, 0.9)]:
        state, layout = build_three_mode_chain(r, transmissivity)
        expected = chain_expected_variances(r, transmissivity)
        x_map = {p: layout.announced_coordinate(p, "x")[1]
                 for p in layout.player_modes}
        p_map = {p: layout.announced_coordinate(p, "p")[1]
                 for p in layout.player_modes}
        tag = f"chain({r},{transmissivity})"
        for name, target_basis, estimators, value in [
            ("x|all", "x", x_map, expected["v_x_given_all"]),
            ("p|all", "p", p_map, expected["v_p_given_all"]),
            ("p|C", "p", {"C": p_map["C"]}, expected["v_p_given_c_only"]),
            ("p|B", "p", {"B": p_map["B"]}, expected["v_p_given_b_only"]),
        ]:
            fit = _oracle_fit(state, target_basis, estimators)
            checks.append((f"{tag} {name}", fit.variance, value))

    worst = 0.0
    for label, empirical, analytic in checks:
        deviation = abs(empirical - analytic) / analytic
        worst = max(worst, deviation)
        assert deviation < 0.01, f"{label}: {deviation:.3%} off"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0

    _report(3, f"{len(checks)} empirical conditional variances within 1% of "
               f"analytic at 1e6 rounds (worst {worst:.3%}, {elapsed:.1f}s)")


def test_criterion_4_sweep_curve_family(sweep_file, sweep_rows):
    golden_rows = _read_rows(GOLDEN)
    assert open(sweep_file).readline().strip() == SWEEP_HEADER
    assert open(GOLDEN).readline().strip() == SWEEP_HEADER
    assert len(sweep_rows) == len(golden_rows) == 244
    for fresh, golden in zip(sweep_rows, golden_rows):
        for column in SWEEP_HEADER.split(","):
            assert abs(fresh[column] - golden[column]) < 1e-9

    curves = {}
    for row in sweep_rows:
        curves.setdefault(row["T"], []).append((row["r"], row["K_qss"]))
    for points in curves.values():
        points.sort()
    transmissivities = sorted(curves, reverse=True)
    assert transmissivities == [1.0, 0.95, 0.9, 0.85]

    # (a) pointwise non-increasing as T decreases
    for upper, lower in zip(transmissivities, transmissivities[1:]):
        for (_, k_upper), (_, k_lower) in zip(curves[upper], curves[lower]):
            assert k_lower <= k_upper + 1e-12

    # (b) positive key at the feasible-squeezing point without loss
    k_feasible = dict(curves[1.0])[1.15]
    assert k_feasible > 0.0

    # (c) the zero crossing moves strictly right with increasing loss
    def crossing(points):
        for (r0, k0), (r1, k1) in zip(points, points[1:]):
            if k0 <= 0.0 < k1:
                return r0 + (r1 - r0) * (-k0) / (k1 - k0)
        raise AssertionError("curve never turns positive on the grid")

    crossings = [crossing(curves[t]) for t in transmissivities]
    for lossy in crossings[1:]:
        assert lossy > crossings[0]
    assert crossings == sorted(crossings)

    _report(4, f"golden sweep matches to 1e-9; curves ordered by loss; "
               f"K(1.15, T=1) = {k_feasible:.4f} > 0; zero crossings "
               f"{['%.3f' % c for c in crossings]}")


def test_criterion_5_bound_ordering(sweep_rows):
    for row in sweep_rows:
        assert row["K_qss"] <= row["K_eve"] + 1e-9

    scheme = ThresholdScheme(2, 2)
    for r in (0.0, 0.3, 0.8, 1.15, 1.5):
        for transmissivity in (1.0, 0.95, 0.9, 0.85):
            state, layout = build_three_mode_chain(r, transmissivity)
            combined = keyrate_qss(state, layout, scheme).combined_rate
            # Hand closed forms: B dishonest leaves C's p to bound the leak, and vice versa.
            expected = chain_expected_variances(r, transmissivity)
            dealer = 0.5 * math.exp(2.0 * r)
            bits = 0.5 * math.log2(dealer / expected["v_x_given_all"])
            worst_player = min(bits - math.log2(math.e * math.sqrt(dealer * expected[honest]))
                               for honest in ("v_p_given_c_only", "v_p_given_b_only"))
            assert combined == pytest.approx(worst_player, abs=1e-9)

    _report(5, "combined bound never exceeds the eavesdropping bound on the "
               "244-point grid; (2,2) equals the closed-form worst dishonest player "
               "to 1e-9")


def test_criterion_6_threshold_identity():
    r_star = 0.5 * math.acosh(0.5 * math.e)
    state = two_mode_squeezed(r_star)
    layout = PartyLayout("A", ("B",))
    report = keyrate_eavesdropping(state, layout)
    assert report.inference_product == pytest.approx(SECURITY_THRESHOLD, rel=1e-12)
    assert abs(report.rate) < 1e-10

    scheme = ThresholdScheme(2, 2)

    def gap(r):
        resource, layout_r = build_three_mode_chain(r, 1.0)
        return (keyrate_qss(resource, layout_r, scheme).inference_product
                - SECURITY_THRESHOLD)

    r_cross = bisect_root(gap, 0.05, 1.0)
    resource, layout_r = build_three_mode_chain(r_cross, 1.0)
    assert abs(keyrate_qss(resource, layout_r, scheme).combined_rate) < 1e-10

    _report(6, f"zero rate at the exp(-2) inference product (tuned r = "
               f"{r_star:.5f} and {r_cross:.5f}) to 1e-10")


def test_criterion_7_structure_enumeration():
    scheme = ThresholdScheme(3, 5)
    assert len(scheme.access_structures) == 10
    assert len(scheme.adversarial_structures) == 10

    for players in (2, 3):
        labels = [f"B{i}" for i in range(1, players + 1)]
        state = product_vacuum(["A"] + labels)
        layout = PartyLayout("A", tuple(labels))
        report = keyrate_qss(state, layout, ThresholdScheme(1, players))
        eavesdropping = keyrate_eavesdropping(state, layout)
        assert report.combined_rate == pytest.approx(eavesdropping.rate, abs=1e-12)

    # The empty collusion's information term is structurally the plain
    # eavesdropping one, also on correlated resources.
    state, layout = build_three_mode_chain(1.0, 0.9)
    report = keyrate_qss(state, layout, ThresholdScheme(1, 2))
    eavesdropping = keyrate_eavesdropping(state, layout)
    assert report.adversarial_holevo[()] == pytest.approx(
        eavesdropping.holevo_bound, abs=1e-12)

    _report(7, "(3,5) yields 10 + 10 structures; threshold-1 schemes reduce "
               "to the eavesdropping-only bound to 1e-12")


def test_criterion_8_determinism(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for out in (first, second):
        assert cli_main(["sweep", "--r-steps", "16", "--output", str(out),
                         "--quiet"]) == 0
    assert first.read_bytes() == second.read_bytes()

    simulate = ["simulate", "--rounds", "100000", "--seed", "7", "--r", "1.15",
                "--transmissivity", "1"]
    assert cli_main(simulate) == 0
    out_a = capsys.readouterr().out
    assert cli_main(simulate) == 0
    out_b = capsys.readouterr().out
    assert out_a == out_b
    assert out_a.strip().endswith("SECURE")

    _report(8, "sweep files byte-identical; simulate output byte-identical "
               "and SECURE at the reference point")
