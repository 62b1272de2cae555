"""The stacked sweep against the golden bytes and the per-point reference."""

import contextlib
import io
import itertools
import json
import tracemalloc
from decimal import ROUND_HALF_EVEN, Decimal
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import cvqss.cli as cli_module
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
from cvqss.keyrate import MAX_PLAYERS, key_rates

from helpers import (
    chain_sweep_row,
    covariance,
    schur_loop,
    star_closed_forms,
    sweep_loop,
    variance,
)

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


#: Golden lines (1 is the header) whose cell in each column is not the exact
#: value correctly rounded to 12 significant digits: the doubles' rounding shows.
#: Both exact values lie within ~2e-15 relative of a rounding boundary, inside
#: the kernel's error: line 118's is 0.0898125973728516544 (printed ...728), and
#: line 191's 0.0252853282325499364 (printed ...326).
GOLDEN_CELLS_OFF_THE_ORACLE = {
    "K_eve": [191],
    "V_pa_given_honest_max": [118],
}


def test_golden_cells_off_the_chain_closed_form_are_pinned():
    # Every computed golden cell against the (2, 2) chain's closed forms at 60
    # digits, correctly rounded to {:.12g}'s 12 significant digits. The cells
    # that differ are pinned where they stand: one that moves, or one that
    # becomes exact, changes the set.
    lines = GOLDEN.read_text().splitlines()
    header = lines[0].split(",")
    grid = np.linspace(0.0, 1.5, 61).tolist()
    off = set()
    for number, line in enumerate(lines[1:], start=2):
        r, transmissivity = grid[(number - 2) % 61], DEFAULT_TRANSMISSIVITIES[(number - 2) // 61]
        cells = dict(zip(header, line.split(",")))
        assert (cells["r"], cells["T"]) == (f"{r:.12g}", f"{transmissivity:.12g}")
        for column, exact in chain_sweep_row(r, transmissivity).items():
            value = Decimal(mpmath.nstr(exact, 40))
            rounded = value.quantize(Decimal(1).scaleb(value.adjusted() - 11), ROUND_HALF_EVEN)
            if Decimal(cells[column]) != rounded:
                off.add((number, column))
    assert off == {(number, column) for column, numbers in GOLDEN_CELLS_OFF_THE_ORACLE.items()
                   for number in numbers}


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
def test_curves_spanning_two_chunks_equal_the_per_point_reference(n, k, steps, monkeypatch):
    # A (4, 8) star point holds 18^2 + 70 + 56 = 450 doubles and a (5, 10) star
    # point 22^2 + 252 + 210 = 946: a chunk of 1,350 holds three of the first and
    # one of the second. On both, the players of every point form one class, so
    # each side evaluates one row per point.
    monkeypatch.setattr(cli_module, "SWEEP_CHUNK_DOUBLES", 1350)
    argv = ["sweep", "--n", str(n), "--k", str(k), "--topology", "star", "--r-min", "0.4",
            "--r-max", "1.2", "--r-steps", str(steps), "--transmissivities", "1,0.5"]
    assert json_rows(argv) == sweep_loop(n, k, "star", np.linspace(0.4, 1.2, steps), [1.0, 0.5])


def test_stacked_kernel_equals_one_matrix_calls_across_row_blocks():
    # 330 estimator sets per covariance, so each covariance spans two blocks.
    factors = np.random.default_rng(7).standard_normal((3, 12, 12))
    stack = factors @ factors.transpose(0, 2, 1)
    idx = np.array(list(itertools.combinations(range(1, 12), 4)))
    # A stack solves for no gains; each point's one-covariance call does.
    variances, dealer, gains = schur(stack, 0, idx)
    assert gains is None
    for point, cov in enumerate(stack):
        alone = schur(cov, 0, idx)
        assert np.array_equal(variances[point], alone[0])
        assert dealer[point] == alone[1]
        assert alone[2].shape == idx.shape
        assert np.array_equal(alone[2], schur_loop(cov, 0, idx)[1])


def test_rows_at_curve_and_chunk_edges_equal_one_point_sweeps(monkeypatch):
    # A (2, 2) chain point holds 6^2 + 1 + 2 = 39 doubles, so chunks of 128 points
    # split the default grid's 244 as 128 and 116 across its four 61-point curves:
    # curve edges at 60/61, 121/122 and 182/183, and the chunk edge at 127/128,
    # inside the third curve.
    monkeypatch.setattr(cli_module, "SWEEP_CHUNK_DOUBLES", 128 * 39)
    rows = json_rows(["sweep"])
    assert len(rows) == 244
    for index in (60, 61, 121, 122, 127, 128, 243):
        r, transmissivity = map(repr, rows[index][:2])
        alone = json_rows(["sweep", "--r-min", r, "--r-max", r, "--r-steps", "1",
                           "--transmissivities", transmissivity])
        assert alone == [rows[index]]


def test_rows_at_chunk_edges_equal_one_point_sweeps(monkeypatch):
    # With chunks of 128 (2, 2) chain points, as above, a 257-point curve is
    # evaluated as chunks of 128, 128 and 1 points.
    monkeypatch.setattr(cli_module, "SWEEP_CHUNK_DOUBLES", 128 * 39)
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
    for read in (lambda: validate(state), lambda: variance(state, "A", "x"),
                 lambda: covariance(state, ("A", "x"), ("B1", "p")),
                 lambda: keyrate_eavesdropping(state, layout),
                 lambda: keyrate_qss(state, layout, scheme)):
        with pytest.raises(ValueError, match=r"expected one state, got a \(6, 6, 6\)"):
            read()


MIXED_CHANNELS = [ChannelSpec(0.6), ChannelSpec(0.9, 0.05), ChannelSpec(1.0)]
EDGE_CHANNELS = [ChannelSpec(0.0), ChannelSpec(1.0), ChannelSpec(0.0, 0.05),
                 ChannelSpec(1.0, 0.02), ChannelSpec(0.5, 0.05)]
PER_POINT_CHANNELS = [ChannelSpec(np.array([0.0, 1.0, 0.5, 0.93]), 0.05),
                      ChannelSpec(np.array([1.0, 0.0, 0.93, 0.5])),
                      ChannelSpec(np.array([0.6, 0.9, 0.0, 1.0]), 0.02), ChannelSpec(0.9, 0.01)]
EPS = np.finfo(float).eps


@pytest.mark.parametrize("topology, channels, cz_weight, r", [
    pytest.param(chain_topology, MIXED_CHANNELS, 0.8, [0.0, 0.35, 1.1, 2.0], id="chain_topology"),
    pytest.param(star_topology, MIXED_CHANNELS, 0.8, [0.0, 0.35, 1.1, 2.0], id="star_topology"),
    pytest.param(star_topology, [ChannelSpec(0.8588)] * 14, 1.0, [0.4, 1.15, 1.376],
                 id="star-14"),
    pytest.param(star_topology, [ChannelSpec(0.9)] * 16, 1.0, np.linspace(0.2, 1.5, 8),
                 id="star-16"),
    pytest.param(chain_topology, [ChannelSpec(0.95, 0.01)] * MAX_PLAYERS, 1.0, [0.3, 1.2],
                 id="chain-24"),
    pytest.param(star_topology, EDGE_CHANNELS, 1.0, [0.0, 0.7, 1.5], id="star-T0-T1-noise"),
    pytest.param(chain_topology, EDGE_CHANNELS, 0.8, [0.0, 0.7, 1.5], id="chain-T0-T1-noise"),
    # One T per point, as the sweep builds its chunks; players may differ.
    pytest.param(star_topology, PER_POINT_CHANNELS, 1.0, [0.0, 0.35, 1.1, 2.0],
                 id="star-per-point-T"),
    pytest.param(chain_topology, PER_POINT_CHANNELS, 0.8, [0.0, 0.35, 1.1, 2.0],
                 id="chain-per-point-T"),
    pytest.param(star_topology, [ChannelSpec(np.array([1.0, 0.95, 0.0, 0.5]), 0.03)] * 5,
                 1.3, [1.15], id="star-one-r-per-point-T"),
])
def test_stacked_state_equals_the_per_point_build_bit_for_bit(topology, channels, cz_weight, r):
    n = len(channels)
    specs = {f"B{i}": spec for i, spec in enumerate(channels, start=1)}
    state, _ = build_kn_state(n, np.array(r), specs, topology(n), cz_weight=cz_weight)
    points = np.broadcast_shapes(np.shape(r), *(np.shape(spec.transmissivity)
                                                for spec in channels))
    dim = 2 * n + 2
    assert state.cov.shape == points + (dim, dim)
    for point, r_point in enumerate(np.broadcast_to(r, points).tolist()):
        alone_specs = {label: ChannelSpec(float(np.broadcast_to(spec.transmissivity,
                                                                points)[point]),
                                          spec.excess_noise)
                       for label, spec in specs.items()}
        assert np.array_equal(state.cov[point], build_kn_state(
            n, r_point, alone_specs, topology(n), cz_weight=cz_weight)[0].cov)


def test_star_variances_equal_the_closed_form_within_the_kernel_bound():
    # V_xa_given_xbar, V_pa_given_pbar and every honest side behind
    # V_pa_given_honest_max (h = n - k + 1), with the access sides (m = k),
    # against Sherman-Morrison at 50 digits. The kernel's relative error is
    # bounded by a multiple of eps * kappa * V / v: kappa is the x block's
    # condition number (d + m b) / d, and 1 on the p side, whose honest
    # players are independent.
    transmissivity = np.array([0.0, 0.5, 0.93, 1.0])
    rng = np.random.default_rng(20261019)
    worst = 0.0
    for n in range(2, 9):
        r, g = rng.uniform(0.0, 2.0, len(transmissivity)), rng.uniform(0.5, 1.5)
        noise = rng.choice([0.0, rng.uniform(0.0, 0.05)])
        spec = ChannelSpec(transmissivity, noise)
        state, layout = build_kn_state(n, r, dict.fromkeys([f"B{i}" for i in range(1, n + 1)],
                                                           spec), star_topology(n), cz_weight=g)
        forms = [star_closed_forms(n, *point, noise, g)
                 for point in zip(r.tolist(), transmissivity.tolist())]
        for k in range(1, n + 1):
            rates = key_rates(state, layout, ThresholdScheme(k, n))
            for point, exact in enumerate(forms):
                sides = ((rates.everyone_x[0], exact.x[n], exact.v_x, exact.kappa_x[n]),
                         (rates.access[0], exact.x[k], exact.v_x, exact.kappa_x[k]),
                         (rates.everyone_p[0], exact.p[n], exact.v_p, 1),
                         (rates.adversarial[0], exact.p[n - k + 1], exact.v_p, 1))
                for values, v, big_v, kappa in sides:
                    error = max(abs(values[point].min() - v), abs(values[point].max() - v)) / v
                    worst = max(worst, float(error / (EPS * kappa * big_v / v)))
    assert 0.0 < worst <= 8.0, worst


def test_kernel_calls_per_sweep_do_not_grow_with_the_grid(monkeypatch):
    calls = []
    real_schur = keyrate_module.schur

    def counted(*args):
        calls.append(args[0].shape)
        return real_schur(*args)

    monkeypatch.setattr(keyrate_module, "schur", counted)
    # Three kernel calls per chunk (access, honest complements, and all players
    # in p): at k = n the one access row is every player, so the access side is
    # the all-player x inference. A (2, 2) chain point holds 6^2 + 1 + 2 = 39
    # doubles, so a chunk holds up to 2^18 // 39 = 6,721 points of any curves.
    for steps, chunks in ((16, [64]), (61, [244]), (1700, [6721, 79])):
        calls.clear()
        assert cli(["sweep", "--r-steps", str(steps)])[0] == EXIT_OK
        assert calls == [(points, 6, 6) for points in chunks for _ in range(3)]


@pytest.mark.parametrize("n, k, steps, fmt, budget", [
    pytest.param(4, 2, 200, "csv", 42 * 110, id="4-2-200"),
    pytest.param(12, 6, 1, "csv", 2392, id="12-6-1"),
    pytest.param(4, 2, 50, "json", 42 * 110, id="4-2-50-json"),
    pytest.param(14, 7, 35, "csv", None, id="14-7-35"),
    pytest.param(12, 6, 109, "json", None, id="12-6-109-json"),
])
def test_sweep_memory_stays_flat_in_the_grid_size(tmp_path, monkeypatch, n, k, steps, fmt,
                                                  budget):
    # The smaller grid fills at least one chunk. A (2, 4) star point holds
    # 10^2 + 6 + 4 = 110 doubles, a (6, 12) star point 26^2 + 924 + 792 = 2,392
    # and a (7, 14) star point 30^2 + 3,432 + 3,003 = 7,335, so the default
    # budget's chunks hold 109 and 35 points of the last two. The first three
    # cases shrink the budget to 42 and 1 points a chunk, where the output
    # outweighs a chunk and text held beyond its chunk would show.
    if budget is not None:
        monkeypatch.setattr(cli_module, "SWEEP_CHUNK_DOUBLES", budget)

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


def test_a_7_14_star_sweep_takes_7_chunks_under_8_mib(tmp_path, monkeypatch):
    # 35 points of 7,335 doubles fill a chunk (above), so the default grid's 244
    # points take 7 key_rates calls. The peak beyond the output is about 5.2 MB.
    calls = []
    real_key_rates = cli_module.key_rates

    def counted(state, *args):
        calls.append(len(state.cov))
        return real_key_rates(state, *args)

    monkeypatch.setattr(cli_module, "key_rates", counted)
    cli(["sweep", "--r-steps", "2"])  # parser and import caches
    calls.clear()
    out = tmp_path / "sweep.csv"
    tracemalloc.start()
    try:
        assert main(["sweep", "--n", "14", "--k", "7", "--topology", "star",
                     "--output", str(out), "--quiet"]) == EXIT_OK
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == [35] * 6 + [34]
    assert peak - out.stat().st_size < 8 * 2**20, peak
