"""The stacked sweep against the golden bytes and the per-point reference."""

import contextlib
import io
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import cvqss.keyrate as keyrate_module
from cvqss import (
    ChannelSpec,
    ThresholdScheme,
    build_kn_state,
    chain_topology,
    keyrate_eavesdropping,
    keyrate_qss,
    star_topology,
    validate,
)
from cvqss.cli import EXIT_CONFIG, EXIT_OK, SWEEP_HEADER, main
from cvqss.estimation import schur
from cvqss.keyrate import MAX_PLAYERS

from helpers import kn_state_loop, sweep_loop

GOLDEN = Path(__file__).parent / "data" / "default_sweep_golden.csv"
DEFAULT_TRANSMISSIVITIES = [1.0, 0.95, 0.9, 0.85]


def cli(argv) -> tuple:
    """Exit code and stdout of one in-process ``cvqss`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def json_rows(argv) -> list:
    code, out = cli(argv + ["--format", "json"])
    assert code == EXIT_OK
    keys = SWEEP_HEADER.split(",")
    return [tuple(row[key] for key in keys) for row in json.loads(out)["rows"]]


def test_default_sweep_is_the_golden_file_byte_for_byte():
    code, out = cli(["sweep"])
    assert code == EXIT_OK
    assert out.encode("utf-8") == GOLDEN.read_bytes()


def test_default_sweep_json_rows_equal_the_per_point_reference():
    expected = sweep_loop(2, 2, "chain", np.linspace(0.0, 1.5, 61), DEFAULT_TRANSMISSIVITIES)
    assert json_rows(["sweep"]) == expected


@st.composite
def sweeps(draw):
    n = draw(st.integers(2, 6))
    r_min = draw(st.sampled_from([0.0, 0.3]) | st.floats(0.0, 2.0))
    r_max = draw(st.sampled_from([r_min, 2.0]) | st.floats(r_min, 2.0))
    transmissivities = draw(st.lists(
        st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=1, max_size=2))
    return dict(
        n=n,
        k=draw(st.integers(1, n)),
        topology=draw(st.sampled_from(["chain", "star"])),
        grid=np.linspace(r_min, r_max, draw(st.integers(1, 2))),
        transmissivities=transmissivities,
        excess_noise=draw(st.sampled_from([0.0]) | st.floats(0.0, 0.2)),
        cz_weight=draw(st.sampled_from([1.0]) | st.floats(0.3, 1.5)),
    )


@seed(20261018)
@settings(max_examples=25, deadline=None)
@given(sweeps())
def test_stacked_sweep_equals_the_per_point_reference_bit_for_bit(case):
    argv = ["sweep", "--n", str(case["n"]), "--k", str(case["k"]),
            "--topology", case["topology"],
            "--r-min", repr(float(case["grid"][0])), "--r-max", repr(float(case["grid"][-1])),
            "--r-steps", str(len(case["grid"])),
            "--transmissivities", ",".join(map(repr, case["transmissivities"])),
            "--excess-noise", repr(case["excess_noise"]),
            "--cz-weight", repr(case["cz_weight"])]
    try:
        expected = sweep_loop(**case)
    except ValueError:
        with contextlib.redirect_stderr(io.StringIO()):
            assert cli(argv)[0] == EXIT_CONFIG
        return
    assert json_rows(argv) == expected


@pytest.mark.parametrize("n, k, steps", [(8, 4, 4), (10, 5, 2)], ids=["star-4-8", "star-5-10"])
def test_curves_spanning_two_chunks_equal_the_per_point_reference(n, k, steps):
    # Three points of a (4, 8) star's 70 access structures fill a chunk; a
    # (5, 10) star's 252 fill one alone. On both, the players of every point
    # form one class, so each side evaluates one row per point.
    argv = ["sweep", "--n", str(n), "--k", str(k), "--topology", "star", "--r-min", "0.4",
            "--r-max", "1.2", "--r-steps", str(steps), "--transmissivities", "1,0.5"]
    assert json_rows(argv) == sweep_loop(n, k, "star", np.linspace(0.4, 1.2, steps), [1.0, 0.5])


def test_stacked_kernel_equals_one_matrix_calls_across_row_blocks():
    # 330 estimator sets per covariance, so each covariance spans two blocks.
    factors = np.random.default_rng(7).standard_normal((3, 12, 12))
    stack = factors @ factors.transpose(0, 2, 1)
    idx = np.array(list(itertools.combinations(range(1, 12), 4)))
    variances, gains, dealer = schur(stack, 0, idx)
    for point, cov in enumerate(stack):
        alone = schur(cov, 0, idx)
        assert np.array_equal(variances[point], alone[0])
        assert np.array_equal(gains[point], alone[1])
        assert dealer[point] == alone[2]


def test_rows_at_chunk_edges_equal_one_point_sweeps():
    # At most 2 structures per side, so a 257-point curve is evaluated as
    # chunks of 128, 128 and 1 points.
    rows = json_rows(["sweep", "--r-steps", "257", "--transmissivities", "0.9"])
    assert len(rows) == 257
    for row in (rows[0], rows[127], rows[128], rows[256]):
        r = repr(row[0])
        alone = json_rows(["sweep", "--r-min", r, "--r-max", r, "--r-steps", "1",
                           "--transmissivities", "0.9"])
        assert alone == [row]


def test_one_state_readers_refuse_a_stack():
    # Six covariances of six rows each: reversing every axis would still broadcast.
    state, layout = build_kn_state(2, np.linspace(0.0, 1.0, 6), {"B1": ChannelSpec(0.9),
                                   "B2": ChannelSpec(0.9)}, chain_topology(2))
    assert state.cov.shape == (6, 6, 6)
    scheme = ThresholdScheme(2, 2)
    assert keyrate_module.key_rates(state, layout, scheme).combined.rate.shape == (6,)
    for read in (lambda: validate(state), lambda: state.variance("A", "x"),
                 lambda: state.covariance(("A", "x"), ("B1", "p")),
                 lambda: keyrate_eavesdropping(state, layout),
                 lambda: keyrate_qss(state, layout, scheme)):
        with pytest.raises(ValueError, match=r"expected one state, got a \(6, 6, 6\)"):
            read()


MIXED_CHANNELS = [ChannelSpec(0.6), ChannelSpec(0.9, 0.05), ChannelSpec(1.0)]
EDGE_CHANNELS = [ChannelSpec(0.0), ChannelSpec(1.0), ChannelSpec(0.0, 0.05),
                 ChannelSpec(1.0, 0.02), ChannelSpec(0.5, 0.05)]


@pytest.mark.parametrize("topology, channels, cz_weight, r", [
    pytest.param(chain_topology, MIXED_CHANNELS, 0.8, [0.0, 0.35, 1.1, 2.0], id="chain_topology"),
    pytest.param(star_topology, MIXED_CHANNELS, 0.8, [0.0, 0.35, 1.1, 2.0], id="star_topology"),
    pytest.param(star_topology, [ChannelSpec(0.8588)] * 14, 1.0, [0.4, 1.15, 1.376],
                 id="star-14"),
    # One matrix for all 16 gates puts p_A's variance an ulp off from r = 0.943 up.
    pytest.param(star_topology, [ChannelSpec(0.9)] * 16, 1.0, np.linspace(0.2, 1.5, 8),
                 id="star-16"),
    pytest.param(chain_topology, [ChannelSpec(0.95, 0.01)] * MAX_PLAYERS, 1.0, [0.3, 1.2],
                 id="chain-24"),
    pytest.param(star_topology, EDGE_CHANNELS, 1.0, [0.0, 0.7, 1.5], id="star-T0-T1-noise"),
    pytest.param(chain_topology, EDGE_CHANNELS, 0.8, [0.0, 0.7, 1.5], id="chain-T0-T1-noise"),
])
def test_stacked_state_equals_the_per_point_build_bit_for_bit(topology, channels, cz_weight, r):
    n, r = len(channels), np.array(r)
    specs = {f"B{i}": spec for i, spec in enumerate(channels, start=1)}
    state, _ = build_kn_state(n, r, specs, topology(n), cz_weight=cz_weight)
    dim = 2 * n + 2
    assert state.cov.shape == (len(r), dim, dim) and state.mean.shape == (dim,)
    for point, r_point in enumerate(r.tolist()):
        alone = kn_state_loop(r_point, specs, topology(n), cz_weight)
        assert np.array_equal(state.cov[point], alone.cov)
        assert np.array_equal(state.cov[point], build_kn_state(
            n, r_point, specs, topology(n), cz_weight=cz_weight)[0].cov)


def test_kernel_calls_per_sweep_do_not_grow_with_the_grid(monkeypatch):
    calls = []
    real_schur = keyrate_module.schur

    def counted(*args):
        calls.append(args[0].shape)
        return real_schur(*args)

    monkeypatch.setattr(keyrate_module, "schur", counted)
    counts = []
    for steps in (16, 61):
        calls.clear()
        assert cli(["sweep", "--r-steps", str(steps)])[0] == EXIT_OK
        assert all(shape == (steps, 6, 6) for shape in calls)
        counts.append(len(calls))
    # Four kernel calls per curve: access, honest complements, and all
    # players in x and in p.
    assert counts == [4 * len(DEFAULT_TRANSMISSIVITIES)] * 2


@pytest.mark.parametrize("n, k, steps, fmt", [
    pytest.param(4, 2, 200, "csv", id="4-2-200"),
    pytest.param(12, 6, 1, "csv", id="12-6-1"),
    pytest.param(4, 2, 50, "json", id="4-2-50-json"),
])
def test_sweep_memory_stays_flat_in_the_grid_size(tmp_path, n, k, steps, fmt):
    # 42 points of a (2, 4) star fill a chunk of 256 structure rows, while
    # one point of a (6, 12) star already has 924 access structures.
    def peak_beyond_output(steps):
        out = tmp_path / f"sweep{steps}.{fmt}"
        argv = ["sweep", "--n", str(n), "--k", str(k), "--topology", "star",
                "--r-steps", str(steps), "--transmissivities", "1", "--output", str(out),
                "--format", fmt, "--quiet"]
        tracemalloc.start()
        try:
            assert main(argv) == EXIT_OK
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - out.stat().st_size

    cli(["sweep", "--r-steps", "2"])  # parser and import caches
    small, large = peak_beyond_output(steps), peak_beyond_output(10 * steps)
    assert large <= 1.5 * small, (small, large)
