"""Command-line interface: subcommands, formats, exit codes."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cvqss import UnphysicalStateError, cli, keyrate
from cvqss.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_UNPHYSICAL,
    SWEEP_HEADER,
    build_parser,
    main,
)
from cvqss.estimation import JointVariable
from cvqss.states import MAX_PLAYERS

from helpers import label_table


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweep:
    def test_small_grid_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code, _, _ = run(["sweep", "--r-min", "0", "--r-max", "1.5",
                          "--r-steps", "7", "--transmissivities", "1,0.9",
                          "--output", str(out)], capsys)
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 1 + 7 * 2
        for line in lines[1:]:
            fields = [float(v) for v in line.split(",")]
            k_eve, k_qss = fields[2], fields[3]
            assert k_qss <= k_eve + 1e-9

    def test_single_point_grid(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        code, _, _ = run(["sweep", "--r-min", "1.0", "--r-max", "1.0",
                          "--r-steps", "1", "--transmissivities", "1",
                          "--output", str(out)], capsys)
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 2

    def test_stdout_and_json(self, capsys):
        code, out, _ = run(["sweep", "--r-steps", "2", "--transmissivities", "1",
                            "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert len(payload["rows"]) == 2
        assert set(payload["rows"][0]) == set(SWEEP_HEADER.split(","))

    def test_unwritable_path_is_io_error(self, tmp_path, capsys):
        missing_dir = tmp_path / "nope" / "sweep.csv"
        code, _, err = run(["sweep", "--r-steps", "2",
                            "--output", str(missing_dir)], capsys)
        assert code == EXIT_IO
        assert "I/O" in err

    def test_bad_grid_is_config_error(self, capsys):
        code, _, _ = run(["sweep", "--r-steps", "0"], capsys)
        assert code == EXIT_CONFIG
        code, _, _ = run(["sweep", "--transmissivities", "1,1.5"], capsys)
        assert code == EXIT_CONFIG
        code, out, err = run(["sweep", "--transmissivities", "1,abc"], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert err == ("cvqss: --transmissivities: could not convert string to float: "
                       "'abc'\n")

    def test_unknown_flag_is_config_error(self, capsys):
        code, _, _ = run(["sweep", "--does-not-exist", "1"], capsys)
        assert code == EXIT_CONFIG

    def test_grid_budget_is_config_error(self, capsys, monkeypatch):
        # 10^9 points would ask numpy for a 7.45 GiB grid.
        code, out, err = run(["sweep", "--r-steps", "1000000000"], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert "budget of 1000000 grid points" in err
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 100)
        code, out, err = run(["sweep", "--r-steps", "26"], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert err == ("cvqss: 26 r steps x 4 transmissivities exceed the budget "
                       "of 100 grid points\n")
        assert run(["sweep", "--r-steps", "25"], capsys)[0] == EXIT_OK


class TestThreshold:
    def test_two_two_breakdown(self, capsys):
        code, out, _ = run(["threshold", "--n", "2", "--k", "2",
                            "--r", "1.15", "--transmissivity", "1"], capsys)
        assert code == EXIT_OK
        assert out.count("access") == 1
        assert out.count("adversarial") == 2
        assert "positive key rate" in out

    def test_unsqueezed_chain_has_no_key(self, capsys):
        code, out, _ = run(["threshold", "--n", "3", "--k", "3", "--r", "0",
                            "--transmissivity", "1"], capsys)
        assert code == EXIT_OK
        assert "no secure key" in out

    def test_degenerate_threshold_prints_empty_collusion(self, capsys):
        code, out, _ = run(["threshold", "--n", "2", "--k", "1",
                            "--r", "0.5"], capsys)
        assert code == EXIT_OK
        assert "{}" in out

    def test_json_format(self, capsys):
        code, out, _ = run(["threshold", "--n", "2", "--k", "2",
                            "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert "combined_rate" in payload

    def test_player_cap_is_config_error(self, capsys):
        code, _, _ = run(["threshold", "--n", "30", "--k", "2"], capsys)
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("n, k, message", [
        ("1", "1", r"\(1, 1\) is not a sharing scheme"),
        ("2", "3", "exceeds the number of players"),
    ])
    def test_unsupported_scheme_is_config_error(self, n, k, message, capsys):
        code, _, err = run(["threshold", "--n", n, "--k", k], capsys)
        assert code == EXIT_CONFIG
        assert re.search(message, err)

    def test_quiet_only_prints_the_verdict(self, capsys):
        code, out, _ = run(["threshold", "--n", "2", "--k", "2", "--quiet"], capsys)
        assert code == EXIT_OK
        assert out.startswith("K = ")

    def test_table_rows_are_the_per_row_template(self):
        values = [0.5, -0.0, 0.0, 0.5, float("inf"), float("-inf"), float("nan"), 1e-300,
                  123456789012345.0, -0.0, float("nan"), 0.5]
        names = tuple(f"B{i}" for i in range(1, len(values) + 2))
        rows = np.arange(len(values))[:, None] + [0, 1]
        labels = [(f"B{i}", f"B{i + 1}") for i in range(1, len(values) + 1)]
        terms = keyrate._StructureMap(names, rows, np.array(values))
        rows = cli._table("access", terms, labels[3]).split("\n")
        assert rows == [f"{'access':<12} {'{' + ','.join(label) + '}':<18} {value:>16.12g}  "
                        + "*" * (label == labels[3]) for label, value in zip(labels, values)]


class TestTableWriter:
    """The threshold table writes each label as columns of player names, two positions a
    column; its bytes are those of one left-justified label text per line."""

    # Labels are written two positions a column: (6, 12) and (2, 3) end their access
    # labels in a pair and their collusion labels in a single position.
    @pytest.mark.parametrize("k, n", [(7, 14), (1, 3), (4, 4), (1, 24), (6, 12), (2, 3)],
                             ids=["labels-over-18", "k-1", "k-n", "1-24", "6-12", "2-3"])
    @pytest.mark.parametrize("side", [0, 1], ids=["access", "adversarial"])
    def test_bytes_equal_the_label_text_writer(self, k, n, side):
        names = tuple(f"B{i}" for i in range(1, n + 1))
        rows = keyrate.ThresholdScheme(k, n)._player_rows[side]
        values = np.random.default_rng(n).choice([0.5, -0.0, 1e-300, float("nan")], len(rows))
        terms, kind = keyrate._StructureMap(names, rows, values), ("access", "adversarial")[side]
        for binding in {0, len(rows) // 2, len(rows) - 1}:
            label = tuple(names[p] for p in rows[binding])
            assert cli._table(kind, terms, label) == label_table(kind, terms, label)

    def test_names_of_any_length_pad_as_their_text(self):
        names = ("A", "Bob", "Carolina-Longname", "D")
        rows = keyrate.ThresholdScheme(2, 4)._player_rows[0]
        terms = keyrate._StructureMap(names, rows, np.arange(len(rows), dtype=float))
        assert cli._table("access", terms, ("Bob", "D")) == label_table("access", terms,
                                                                      ("Bob", "D"))


class TestNoStructureTuples:
    """No command builds the scheme's structure tuples: the writers and the sweep's
    chunk sizing read the position rows. The (7, 14) star text and the (2, 4) star
    simulate JSON digests are those ``TestThresholdBytes`` and ``TestSimulateBytes``
    pin."""

    @pytest.mark.parametrize("argv, digest", [
        (["threshold", "--n", "14", "--k", "7", "--topology", "star"],
         "e613ddad52fb81af4d688ed4e8283a5a7fe23dce50fcee3f1ea871a0e43c0f65"),
        (["threshold", "--n", "14", "--k", "7", "--topology", "star", "--format", "json"],
         "4a3daf6edfe8556f542967b8727b0ccaec49e41378d481e7314b469cecfe8ea8"),
        (["sweep", "--n", "6", "--k", "3", "--topology", "star"],
         "98831d86c10b261dc8283bae21ccb02ee85e92a7dde2c8ce8f65b33bf1bdc746"),
        (["simulate", "--n", "4", "--k", "2", "--topology", "star", "--rounds", "200000",
          "--seed", "9", "--transmissivity", "0.95", "--format", "json"],
         "b60498d931108d93c7ae14862c3740e4e95b761018eb59051af1cf34784b5adb"),
    ], ids=["threshold-star-7-14", "threshold-star-7-14-json", "sweep-star-3-6",
            "simulate-star-2-4-json"])
    def test_commands_never_call_combinations(self, capsys, monkeypatch, argv, digest):
        def no_tuples(*args):
            raise AssertionError("structure tuples built")

        monkeypatch.setattr(keyrate, "combinations", no_tuples)
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestThresholdBytes:
    """The (4, 8) star breakdown, byte for byte.

    The digests were recorded with the bordered-Cholesky inference kernel,
    so any change to the evaluation that moves a printed digit shows here.
    They hold for numpy 2.4 with OpenBLAS on x86-64; another BLAS or libm
    may move the last digit of a float. The star's structures are all
    tied, so its binding rows are the first ones; the text digests of a
    (3, 6) chain, whose binding access row is the eleventh, and of a (1, 3)
    chain, whose one collusion is empty, pin the rest of the table's layout.
    At (7, 14) the star's players form one class, so each side evaluates
    one row for all its structures, and the chain, whose players are each
    alone, evaluates every row.
    """

    ARGV = ["threshold", "--n", "8", "--k", "4", "--topology", "star"]

    @pytest.mark.parametrize("extra, digest", [
        ([], "2680d32e3d5335d06f006dd8790bd732f38694d4742077d578a48a6985bff296"),
        (["--format", "json"],
         "def5c6541cfab4adc59deb2a77cd5af4271986ec54d902f11bd645836bc715cd"),
    ], ids=["text", "json"])
    def test_output_digest(self, capsys, extra, digest):
        code, out, _ = run(self.ARGV + extra, capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", [
        (["threshold", "--n", "6", "--k", "3"],
         "52a306f6b514cb6bbe67c50e499bb1e318cbd13dabd7cbea2c99374c669407f7"),
        (["threshold", "--n", "3", "--k", "1"],
         "57a779c1476a4f50255ff8b0aa40732571de4b0dda69d96e97b7c0f303c10c6e"),
        (["threshold", "--n", "14", "--k", "7", "--topology", "star"],
         "e613ddad52fb81af4d688ed4e8283a5a7fe23dce50fcee3f1ea871a0e43c0f65"),
        (["threshold", "--n", "14", "--k", "7", "--topology", "chain"],
         "7fa3caa80d1576a1e83d66493a93b6354891adc39492bd390f12684a669f3543"),
    ], ids=["chain-3-6", "chain-1-3", "star-7-14", "chain-7-14"])
    def test_text_digest(self, capsys, argv, digest):
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_text_and_json_build_no_joint_variable(self, capsys, monkeypatch):
        built, dicts, labelled = [], [], []

        def counting(*args, **kwargs):
            built.append(args)
            return JointVariable(*args, **kwargs)

        def counted_dict(view):
            dicts.append(view)
            return build_dict(view)

        def counted_labels(names, rows):
            labelled.append(len(rows))
            return labels(names, rows)

        monkeypatch.setattr(keyrate, "JointVariable", counting)
        build_dict = keyrate._StructureMap._dict.func  # a per-structure map's dict
        monkeypatch.setattr(keyrate._StructureMap, "_dict", property(counted_dict))
        labels = keyrate._labels  # the one label-tuple builder
        monkeypatch.setattr(keyrate, "_labels", counted_labels)
        argv = ["threshold", "--n", "6", "--k", "3"]
        assert run(argv, capsys)[0] == EXIT_OK
        assert run(argv + ["--format", "json"], capsys)[0] == EXIT_OK
        # Each run builds the two binding labels, one row each, and no other.
        assert built == [] and dicts == [] and labelled == [1, 1, 1, 1]


class TestJsonBytes:
    """JSON reports of every command that writes one, byte for byte.

    Recorded from ``json.dumps(..., indent=2)`` output, so they pin the
    report writer to the standard library's bytes: a (6, 12) star breakdown
    (924 + 792 structures), a (1, 3) chain breakdown (one empty collusion,
    written "(none)", and width-1 access rows), the default sweep, a (4, 8)
    star sweep whose curves span two chunks, and the default state
    diagnostics. Like ``TestThresholdBytes`` they hold for numpy 2.4 with
    OpenBLAS on x86-64.
    """

    @pytest.mark.parametrize("argv, digest", [
        (["threshold", "--n", "12", "--k", "6", "--topology", "star", "--r", "1.0",
          "-T", "0.9"],
         "6c2ec84af7299b6902c760909e9717f5e8d80d0a764b81db9c905dd207f72c9f"),
        (["threshold", "--n", "3", "--k", "1"],
         "2536032db7f703eeea4c71f4a353855bbcc5b68b8c49e855f27e8b3e6fa708da"),
        (["validate"],
         "dd02c7ff358454249d16faeb2465aa6988dcf1380dcbff2b52535303aca0305e"),
        (["sweep"],
         "665b4dcdd0f8eea7e436464cb99ff23852263e341df1f0994093648f70b402e9"),
        (["sweep", "--n", "8", "--k", "4", "--topology", "star", "--r-min", "0.4",
          "--r-max", "1.2", "--r-steps", "4", "--transmissivities", "1,0.5"],
         "5fd1278cffbb0a0546709b737dda728fa0dac9f6b302be971e7a8a3cf33d3b15"),
    ], ids=["threshold-star-6-12", "threshold-chain-1-3", "validate", "sweep",
            "sweep-star-4-8"])
    def test_output_digest(self, capsys, argv, digest):
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestSimulateBytes:
    """A (2, 2) chain and a (2, 4) star run, stdout and JSON file byte for byte.

    Any change to the protocol's random streams, its fits or the report
    formatting moves these digests. Like ``TestThresholdBytes`` they hold
    for numpy 2.4 with OpenBLAS on x86-64.
    """

    @pytest.mark.parametrize("argv, stdout_digest, json_digest", [
        (["simulate", "--rounds", "100000", "--seed", "5", "--r", "1.0",
          "--transmissivity", "0.9"],
         "b10030580ab0c99da6bee53fb24dcc0581339e7557e603eb0535f8a1491b446d",
         "6a58d0584ec3f51c8124b02fd2d9ff2255c80eec86ee5e456d611645ed687b11"),
        (["simulate", "--n", "4", "--k", "2", "--topology", "star",
          "--rounds", "200000", "--seed", "9", "--transmissivity", "0.95"],
         "7da78dcc5f0b3fbc4f8d7024b7f10034c4065a279ba2721ec184302b2725f274",
         "b60498d931108d93c7ae14862c3740e4e95b761018eb59051af1cf34784b5adb"),
    ], ids=["chain-2-2", "star-2-4"])
    def test_output_digest(self, tmp_path, capsys, argv, stdout_digest, json_digest):
        report = tmp_path / "report.json"
        code, out, _ = run(argv + ["--format", "json", "--output", str(report)], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
        assert hashlib.sha256(report.read_bytes()).hexdigest() == json_digest


class TestKernelCalls:
    """Each distinct inference is evaluated once per op, counted at ``keyrate.schur``:
    a side whose one row is every player is the all-player inference, and
    ``simulate`` reads that inference from its analytic report."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls, real_schur = [], keyrate.schur

        def counted(*args):
            calls.append(args)
            return real_schur(*args)

        monkeypatch.setattr(keyrate, "schur", counted)
        return calls

    def test_simulate_text_makes_one_call_per_inference(self, calls, capsys):
        # Access, honest complements, and all players in x and in p.
        code, out, _ = run(["simulate", "--n", "4", "--k", "2", "--topology", "star",
                            "-T", "0.95", "--rounds", "1000000"], capsys)
        assert code == EXIT_OK
        assert "V(X_A | all players)" in out and "V(P_A | all players)" in out
        assert len(calls) == 4

    @pytest.mark.parametrize("k, count", [(1, 4), (3, 5), (5, 4)])
    def test_threshold_at_k_one_and_n_skips_the_all_player_call(self, calls, capsys, k,
                                                                 count):
        # Access, honest complements, all players in x and in p, and the single
        # dishonest players' honest sides; k = 1 has no colluder and k = n one access row.
        code, _, _ = run(["threshold", "--n", "5", "--k", str(k), "--topology", "star"],
                         capsys)
        assert code == EXIT_OK
        assert len(calls) == count

    def test_only_a_report_solves_for_gains(self, monkeypatch, capsys):
        # The sweep prints no gains, so its key_rates solves for none; the threshold
        # report solves once a side, one batched triangular solve each.
        solves, real_gains, real_solve = [], keyrate.schur_gains, np.linalg.solve

        def counted_gains(*args):
            solves.append("schur_gains")
            return real_gains(*args)

        def counted_solve(*args, **kwargs):
            solves.append("solve")
            return real_solve(*args, **kwargs)

        monkeypatch.setattr(keyrate, "schur_gains", counted_gains)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        assert run(["sweep"], capsys)[0] == EXIT_OK
        assert solves == []
        assert run(["threshold"], capsys)[0] == EXIT_OK
        assert solves == ["schur_gains", "solve"] * 2


class TestSimulate:
    def test_secure_verdict(self, capsys):
        code, out, _ = run(["simulate", "--rounds", "200000", "--seed", "7",
                            "--r", "1.15", "--transmissivity", "1"], capsys)
        assert code == EXIT_OK
        assert out.strip().endswith("SECURE")

    def test_insecure_verdict(self, capsys):
        code, out, _ = run(["simulate", "--rounds", "200000", "--seed", "7",
                            "--r", "0.1", "--transmissivity", "0.85"], capsys)
        assert code == EXIT_OK
        assert out.strip().endswith("INSECURE")

    def test_unphysical_state_message_spells_the_refused_eigenvalue(self, capsys):
        # At r = 7 the stored covariance's smallest symplectic eigenvalue is
        # 0.499972793159 (0.499972793159289 at 60 digits), refused as below the
        # bound 0.5; four digits would round it up to the bound itself.
        code, out, err = run(["simulate", "--r", "7"], capsys)
        assert code == EXIT_UNPHYSICAL and out == ""
        assert err.startswith("cvqss: ") and err.count("\n") == 1
        assert float(re.search(r"eigenvalue ([^)]+)\)", err).group(1)) < 0.5

    def test_runs_are_byte_identical(self, capsys):
        argv = ["simulate", "--rounds", "50000", "--seed", "3", "--r", "1.0"]
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second

    def test_summary_csv(self, tmp_path, capsys):
        out = tmp_path / "summary.csv"
        code, _, _ = run(["simulate", "--rounds", "50000", "--seed", "3",
                          "--output", str(out)], capsys)
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "quantity,structure,value,standard_error"
        assert [line.split(",")[1] for line in lines
                if line.startswith("sifted_count,")] == ["xpx", "pxp", "other"]
        assert any(line.startswith("combined_rate") for line in lines)

    @pytest.mark.parametrize("k, column", [(2, "{B1,B2}"), (3, "honest_of_{B1,B2}")])
    def test_summary_csv_keeps_structure_labels_whole(self, tmp_path, capsys, k, column):
        out = tmp_path / "summary.csv"
        code, _, _ = run(["simulate", "--n", "3", "--k", str(k), "--topology", "star",
                          "--output", str(out)], capsys)
        assert code == EXIT_OK
        with out.open(newline="") as handle:
            rows = list(csv.reader(handle))
        assert {len(row) for row in rows} == {4}
        assert column in [row[1] for row in rows]

    def test_undersampled_run_is_config_error(self, capsys):
        code, _, err = run(["simulate", "--rounds", "200", "--seed", "1"], capsys)
        assert code == EXIT_CONFIG
        assert "sifted" in err

    @pytest.mark.parametrize("argv", [
        ["--basis-probability", "1e-200"],  # the pattern probability underflows to 0
        ["--reveal-fraction", "1e-320"],  # 100 / (revealed share) overflows
        ["--reveal-fraction", "1e-300", "--basis-probability", "1e-5"],
    ])
    def test_uncountable_undersampling_is_config_error(self, argv, capsys):
        code, out, err = run(["simulate", *argv], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("cvqss: only 0 sifted rounds") and err.count("\n") == 1
        assert "more rounds than a double can count" in err
        assert "Traceback" not in err

    def test_round_estimate_beyond_the_int64_cap_is_not_spelled_out(self, capsys):
        # About 2e200 rounds expected: finite, but no run may have that many.
        code, out, err = run(["simulate", "--basis-probability", "1e-100"], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err.startswith("cvqss: only 0 sifted rounds") and err.count("\n") == 1
        assert "expected from more than 9223372036854775807 rounds" in err
        assert max(map(int, re.findall(r"\d+", err))) <= 2**63 - 1

    def test_rounds_beyond_int64_is_config_error(self, capsys):
        code, _, _ = run(["simulate", "--rounds", "10000000000", "--quiet"], capsys)
        assert code == EXIT_OK
        code, out, err = run(["simulate", "--rounds", "100000000000000000000"], capsys)
        assert code == EXIT_CONFIG
        assert out == ""
        assert err == "cvqss: at most 9223372036854775807 rounds, got 100000000000000000000\n"

    def test_json_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, _, _ = run(["simulate", "--rounds", "50000", "--seed", "3",
                          "--format", "json", "--output", str(out)], capsys)
        assert code == EXIT_OK
        payload = json.loads(out.read_text())
        assert "combined_rate" in payload
        assert "analytic" in payload

    def test_json_report_on_stdout_without_output(self, tmp_path, capsys):
        argv = ["simulate", "--rounds", "50000", "--seed", "3", "--format", "json"]
        code, out, _ = run(argv, capsys)
        assert code == EXIT_OK
        report = tmp_path / "report.json"
        run(argv + ["--output", str(report)], capsys)
        assert out == report.read_text()
        assert "combined_rate" in json.loads(out)


class TestValidate:
    def test_physical_state(self, capsys):
        code, out, _ = run(["validate", "--r", "1.0", "--transmissivity", "0.9"],
                           capsys)
        assert code == EXIT_OK
        assert "physical: True" in out

    def test_json_diagnostics(self, capsys):
        code, out, _ = run(["validate", "--format", "json"], capsys)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["physical"] is True

    def test_undefined_purity_is_written_as_valid_json(self, capsys):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        argv = ["validate", "--r", "10", "-T", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run(argv + ["--format", "json"], capsys)
            text_code, text, _ = run(argv, capsys)
        assert code == text_code == EXIT_UNPHYSICAL
        assert json.loads(out, parse_constant=refuse)["purity"] is None
        assert "\npurity: undefined\n" in text

    def test_player_cap_is_config_error(self, capsys):
        code, out, err = run(["validate", "--n", str(MAX_PLAYERS + 1)], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert err == (f"cvqss: n = {MAX_PLAYERS + 1} players exceeds the supported "
                       f"maximum of {MAX_PLAYERS}\n")
        code, out, _ = run(["validate", "--n", str(MAX_PLAYERS)], capsys)
        assert code == EXIT_OK
        assert "physical: True" in out

    def test_unphysical_exit_code(self, capsys, monkeypatch):
        import cvqss.cli as cli

        def broken(args):
            raise UnphysicalStateError("synthetic")

        monkeypatch.setitem(cli._COMMANDS, "validate", broken)
        code, _, err = run(["validate"], capsys)
        assert code == EXIT_UNPHYSICAL
        assert "unphysical" in err


class TestConfigFile:
    def test_defaults_from_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("r-steps=3\ntransmissivities=1\n")
        out = tmp_path / "sweep.csv"
        code, _, _ = run(["sweep", "--config", str(config),
                          "--output", str(out)], capsys)
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 1 + 3

        out2 = tmp_path / "sweep2.csv"
        code, _, _ = run(["sweep", "--config", str(config), "--r-steps", "5",
                          "--output", str(out2)], capsys)
        assert code == EXIT_OK
        assert len(out2.read_text().splitlines()) == 1 + 5

    def test_underscore_keys_are_accepted(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("# comment line\nr_steps=2\ntransmissivities=0.9\n")
        code, out, _ = run(["sweep", "--config", str(config)], capsys)
        assert code == EXIT_OK
        assert len(out.splitlines()) == 1 + 2

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("not-a-flag=1\n")
        code, _, _ = run(["sweep", "--config", str(config)], capsys)
        assert code == EXIT_CONFIG

    def test_malformed_line_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("just some words\n")
        code, _, err = run(["sweep", "--config", str(config)], capsys)
        assert code == EXIT_CONFIG
        assert "key=value" in err

    def test_trailing_flag_without_path_is_config_error(self, capsys):
        code, _, err = run(["threshold", "--config"], capsys)
        assert code == EXIT_CONFIG
        assert err == "cvqss threshold: error: argument --config: expected one argument\n"

    @pytest.mark.parametrize("spelling", [
        ["--config", "{}"], ["--config={}"], ["--conf", "{}"], ["--conf={}"],
    ], ids=["separate", "equals", "abbreviated", "abbreviated-equals"])
    def test_every_spelling_of_the_flag_reads_the_file(self, spelling, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n=4\nk=2\ntopology=star\n")
        expected = run(["threshold", "--n", "4", "--k", "2", "--topology", "star"], capsys)
        assert expected[0] == EXIT_OK and expected != run(["threshold"], capsys)
        argv = ["threshold"] + [token.format(config) for token in spelling]
        assert run(argv, capsys) == expected

    @pytest.mark.parametrize("key", ["config", "conf", "co"])
    def test_nested_config_key_is_config_error(self, key, tmp_path, capsys):
        inner, outer = tmp_path / "inner.cfg", tmp_path / "outer.cfg"
        inner.write_text("n=5\n")
        outer.write_text(f"# defaults\n{key}={inner}\nk=1\n")
        code, out, err = run(["threshold", "--config", str(outer), "--quiet"], capsys)
        assert code == EXIT_CONFIG and out == ""
        assert err == (f"cvqss: bad config file {outer}:2: a config file cannot name "
                       f"another, got '{key}={inner}'\n")

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, _ = run(["sweep", "--config", str(tmp_path / "absent.cfg")],
                         capsys)
        assert code == EXIT_IO


@pytest.mark.parametrize("argv, message", [
    (["threshold", "--excess-noise", "nan"], "excess noise must be finite"),
    (["threshold", "--excess-noise", "inf"], "excess noise must be finite"),
    (["threshold", "--r", "nan"], "squeezing parameter r must be finite"),
    (["threshold", "--r", "inf"], "squeezing parameter r must be finite"),
    (["threshold", "--r", "400"], "squeezing parameter r = 400.0 overflows"),
    (["threshold", "--cz-weight", "nan"], "coupling weight must be finite"),
    (["threshold", "--cz-weight", "inf"], "coupling weight must be finite"),
    (["sweep", "--excess-noise", "nan"], "excess noise must be finite"),
    (["validate", "--excess-noise", "nan"], "excess noise must be finite"),
    (["sweep", "--r-max", "inf"], "--r-max must be finite, got inf"),  # before np.linspace
    (["sweep", "--r-min=-inf"], "--r-min must be finite, got -inf"),
    (["sweep", "--r-max", "nan"], "--r-max must be finite, got nan"),
    (["sweep", "--r-min", "-1"], "--r-min must be >= 0, got -1.0"),
    # An empty transmissivity is refused as float() refuses it, not dropped.
    *[(["sweep", "--transmissivities", listed],
       "--transmissivities: could not convert string to float: ''")
      for listed in ("1,,0.9", "0.9,", ",")],
    # From r = 2^1023 on 2r is inf, which math.exp returns without raising.
    (["threshold", "--r", "1e308"], "squeezing parameter r = 1e+308 overflows"),
    (["validate", "--r", "1e308"], "squeezing parameter r = 1e+308 overflows"),
    (["simulate", "--r", "1e308"], "squeezing parameter r = 1e+308 overflows"),
    # Out of range, named by the flag's own parameter.
    (["threshold", "--r", "-1"], "squeezing parameter r must be >= 0, got -1.0"),
    (["simulate", "--seed", "-1"], "seed must be >= 0, got -1"),
    # A player count below 2 is named before the threshold is compared with it.
    (["threshold", "--n", "0"], "need at least two players, got n = 0"),
    (["simulate", "--n", "1"], "need at least two players, got n = 1"),
    (["sweep", "--n", "0"], "need at least two players, got n = 0"),
    (["validate", "--n", "1"], "need at least two players, got n = 1"),
    # g^2 exp(2r)/2 beyond double precision, refused before numpy warns of it.
    (["threshold", "--cz-weight", "1e200"], "coupling weight 1e+200 overflows"),
    (["validate", "--cz-weight", "1e200"], "coupling weight 1e+200 overflows"),
    (["simulate", "--cz-weight", "1e200"], "coupling weight 1e+200 overflows"),
    # A finite covariance whose symmetrisation (V + V^T)/2 overflows, and a physical
    # one whose revealed rounds' Gram matrix does.
    (["validate", "--excess-noise", "1e308"], "cov entry 1e+308 overflows double precision"),
    (["simulate", "--excess-noise", "1e308"], "cov entry 1e+308 overflows double precision"),
    (["simulate", "--excess-noise", "1e300", "--rounds", "10000000000"],
     "revealed rounds overflows double precision"),
])
def test_non_finite_parameter_is_config_error(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning on the way
        code, out, err = run(argv, capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("cvqss: ") and message in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_missing_subcommand_is_config_error(capsys):
    assert main([]) == EXIT_CONFIG
    capsys.readouterr()


class TestParser:
    def test_built_once_and_reused_without_leaking_values(self):
        parser = build_parser()
        assert build_parser() is parser
        assert parser.parse_args(["threshold", "--n", "5", "--k", "3"]).n == 5
        assert parser.parse_args(["threshold"]).n == 2

    def test_sweep_shares_the_scheme_flags(self, capsys):
        args = build_parser().parse_args(["sweep"])
        assert (args.excess_noise, args.cz_weight, args.n, args.k, args.topology) == (
            0.0, 1.0, 2, 2, "chain")
        code, out, _ = run(["sweep", "--help"], capsys)
        assert code == EXIT_OK
        assert "number of players (default 2)" in out
        assert "resource graph family (default chain)" in out


@pytest.mark.parametrize("argv, inference", [
    (["threshold", "--r", "300"], "V(x_A | p_B1, x_B2) at target variance 1.88651e+260"),
    (["threshold", "--r", "100"], "V(p_A | p_B2) at target variance 3.61299e+86"),
    (["sweep", "--r-min", "299", "--r-max", "300", "--r-steps", "2"],
     "V(x_A | p_B1, x_B2) at target variance 1.88651e+260"),
], ids=["threshold", "threshold-100", "sweep"])
def test_squeezing_beyond_double_precision_is_config_error(argv, inference, capsys):
    # The first inference whose bordered block has no Cholesky factor is named.
    code, out, err = run(argv, capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err == (f"cvqss: {inference} has no Cholesky factor: the squeezing is beyond what "
                   "double precision resolves, or the estimators are linearly dependent\n")


def test_threshold_names_the_overflowing_holevo_term(capsys):
    # With every player's mode lost (T = 0) no estimator block is near-singular,
    # so at r = 180 the first refusal is the Holevo term overflowing.
    code, out, err = run(["threshold", "--r", "180", "-T", "0"], capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("cvqss: Holevo term inf is not finite")
    assert "the squeezing r is too large" in err


def test_import_does_not_load_numpy_random():
    # numpy.random takes ~15 ms to import and only a simulate run draws from it,
    # so loading it with the package would slow every command's start-up.
    code = "import sys, cvqss.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60)
    assert done.stdout == "False\n"
