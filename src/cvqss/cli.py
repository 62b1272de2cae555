"""Command-line front end: sweeps, threshold analysis, simulation, validation.

Subcommands::

    cvqss sweep      key rates over a squeezing/transmissivity grid (CSV/JSON)
    cvqss threshold  per-structure breakdown of a (k, n) scheme
    cvqss simulate   Monte Carlo protocol run with a SECURE/INSECURE verdict
    cvqss validate   physicality diagnostics of a constructed resource state

Common flags (given after the subcommand): ``--seed``, ``--output``,
``--format csv|json``, ``--quiet``, ``--config FILE``. The config file is
flat ``key=value`` text (keys are the long flag names) whose flags are parsed
before those on the command line, which override them; ``--config`` may be
abbreviated like any flag. Exit codes: 0 success, 1 configuration error,
2 I/O error, 3 unphysical-state error.

Every JSON report is written by ``jsontext.json_text`` in one pass over the
report, with the bytes ``json.dumps(..., indent=2)`` gives for it; the sweep
writes its JSON, like its CSV, one piece per chunk of grid points across curves.
"""

import argparse
import csv
import functools
import io
import sys

import numpy as np

from .gaussian import UnphysicalStateError, validate
from .jsontext import _position_columns, _rows, float_texts, json_text
from .keyrate import ThresholdScheme, key_rates, keyrate_qss
from .simulation import UndersampledError, run_protocol
from .states import ChannelSpec, build_kn_state, chain_topology, star_topology

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_UNPHYSICAL = 3

SWEEP_HEADER = ("r,T,K_eve,K_qss,V_xa_given_xbar,V_pa_given_pbar,"
                "V_pa_given_honest_max,E_ABC")

TOPOLOGIES = {"chain": chain_topology, "star": star_topology}

#: Most grid points (r steps x transmissivities) one sweep evaluates; the
#: output, about 300 bytes of JSON a point, is held until it is written.
MAX_SWEEP_POINTS = 10**6

#: Doubles charged to the points of one sweep chunk: each point its (2n + 2)-square
#: covariance and one variance per access and honest-side structure. Only sides whose
#: players are not interchangeable hold all those, so the charge is an upper bound.
SWEEP_CHUNK_DOUBLES = 2**18


def _fmt(value: float | None) -> str:
    """Floating-point rendering used in all text output: 12 significant digits (None: undefined)."""
    return "undefined" if value is None else format(float(value), ".12g")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the config code (1)."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    parser.add_argument("--output", default=None, help="output file (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational output")
    parser.add_argument("--config", default=None,
                        help="flat key=value file providing flag defaults")


def _state_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--r", type=float, default=1.15,
                        help="input squeezing parameter (default 1.15)")
    parser.add_argument("--transmissivity", "-T", dest="transmissivity",
                        type=float, default=1.0,
                        help="channel transmissivity for every player (default 1)")
    _scheme_flags(parser)


def _scheme_flags(parser: argparse.ArgumentParser) -> None:
    """Resource and scheme flags, shared with ``sweep``, which scans r and T."""
    parser.add_argument("--excess-noise", type=float, default=0.0,
                        help="channel excess noise in vacuum units (default 0)")
    parser.add_argument("--cz-weight", type=float, default=1.0,
                        help="coupling-gate weight on every edge (default 1)")
    parser.add_argument("--n", type=int, default=2, help="number of players (default 2)")
    parser.add_argument("--k", type=int, default=2,
                        help="reconstruction threshold (default 2)")
    parser.add_argument("--topology", choices=sorted(TOPOLOGIES), default="chain",
                        help="resource graph family (default chain)")


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = _Parser(prog="cvqss", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="key rates over an (r, T) grid")
    p_sweep.add_argument("--r-min", type=float, default=0.0)
    p_sweep.add_argument("--r-max", type=float, default=1.5)
    p_sweep.add_argument("--r-steps", type=int, default=61)
    p_sweep.add_argument("--transmissivities", default="1,0.95,0.9,0.85",
                         help="comma-separated channel transmissivities")
    _scheme_flags(p_sweep)
    _common_flags(p_sweep)

    p_thr = sub.add_parser("threshold", help="per-structure (k, n) breakdown")
    _state_flags(p_thr)
    _common_flags(p_thr)

    p_sim = sub.add_parser("simulate", help="Monte Carlo protocol run")
    _state_flags(p_sim)
    p_sim.add_argument("--rounds", type=int, default=100000)
    p_sim.add_argument("--reveal-fraction", type=float, default=0.5)
    p_sim.add_argument("--basis-probability", type=float, default=0.5)
    _common_flags(p_sim)

    p_val = sub.add_parser("validate", help="state physicality diagnostics")
    _state_flags(p_val)
    _common_flags(p_val)

    return parser


def _load_config(path: str) -> list:
    """Turn a flat key=value file into a flag list (flags on argv override)."""
    flags = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config file {path}:{lineno}: "
                                 f"expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            name = key.strip().replace("_", "-")
            if len(name) > 1 and "config".startswith(name):  # argparse expands "co" too
                raise ValueError(f"bad config file {path}:{lineno}: "
                                 f"a config file cannot name another, got {line!r}")
            flags.append(f"--{name}")
            value = value.strip()
            if value:
                flags.append(value)
    return flags


def _build_state(args, r, transmissivity):
    """The resource of ``args``' scheme flags at ``r`` and ``transmissivity`` (floats or arrays)."""
    topology = TOPOLOGIES[args.topology](args.n)
    spec = ChannelSpec(transmissivity, args.excess_noise)
    labels = [f"B{i}" for i in range(1, args.n + 1)]
    return build_kn_state(args.n, r, {lab: spec for lab in labels}, topology,
                          cz_weight=args.cz_weight)


def _write_text(path, pieces: list, quiet: bool) -> None:
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
        if not quiet:
            print(f"wrote {path}", file=sys.stderr)


def _sweep_rows(args, scheme, r: np.ndarray, transmissivity: np.ndarray) -> np.ndarray:
    """The (points, 8) sweep rows at (``r``, ``transmissivity``): one state, one key_rates call."""
    state, layout = _build_state(args, r, transmissivity)
    rates = key_rates(state, layout, scheme)
    v_x, v_p = rates.everyone_x[0][:, 0], rates.everyone_p[0][:, 0]
    return np.stack((r, transmissivity, rates.eavesdropping.rate, rates.combined.rate,
                     v_x, v_p, rates.adversarial[0].max(axis=-1), v_x * v_p), axis=-1)


def cmd_sweep(args) -> int:
    for flag, r in (("--r-min", args.r_min), ("--r-max", args.r_max)):
        if not np.isfinite(r):
            raise ValueError(f"{flag} must be finite, got {r}")
        if r < 0:
            raise ValueError(f"{flag} must be >= 0, got {r}")
    if args.r_min > args.r_max or args.r_steps < 1:
        raise ValueError("need r_min <= r_max and r_steps >= 1")
    try:
        transmissivities = np.array([float(t) for t in args.transmissivities.split(",")])
    except ValueError as exc:  # float's message names the entry but not the flag
        raise ValueError(f"--transmissivities: {exc}") from None
    ChannelSpec(transmissivities, args.excess_noise)  # every T range-checked up front
    if args.r_steps * len(transmissivities) > MAX_SWEEP_POINTS:
        raise ValueError(f"{args.r_steps} r steps x {len(transmissivities)} transmissivities "
                         f"exceed the budget of {MAX_SWEEP_POINTS} grid points")
    scheme = ThresholdScheme(args.k, args.n)
    grid = np.linspace(args.r_min, args.r_max, args.r_steps)

    # The T-major (T, r) grid in chunks across curves of at most SWEEP_CHUNK_DOUBLES
    # doubles (one point at least), and the text one piece per chunk, never joined:
    # memory is the output plus one chunk, whatever the grid and scheme. The kernel
    # blocks its own gathers, so a chunk's size is set by what its points hold.
    access, colluding = scheme._player_rows  # one honest side per collusion
    points = max(1, SWEEP_CHUNK_DOUBLES // ((2 * args.n + 2) ** 2 + len(access) + len(colluding)))
    total = len(grid) * len(transmissivities)
    chunks = (_sweep_rows(args, scheme, grid[flat % len(grid)],
                          transmissivities[flat // len(grid)])
              for flat in (np.arange(start, min(start + points, total))
                           for start in range(0, total, points)))
    keys = SWEEP_HEADER.split(",")
    if args.format == "json":
        # The text of {"rows": [...]}, written as json.dumps(..., indent=2) would: a
        # chunk's rows through the row kernel, a column of values per key.
        fields = [json_text(key) + ": " for key in keys]
        betweens = [",\n      " + field for field in fields[1:]]
        betweens.append("\n    },\n    {\n      " + fields[0])
        pieces = ['{\n  "rows": [\n    ']
        for rows in chunks:
            values, columns = float_texts(rows), []
            for j, between in enumerate(betweens):
                columns += [values[j::len(keys)], between]
            pieces += (_rows("{\n      " + fields[0], columns, "\n    }"), ",\n    ")
        pieces[-1] = "\n  ]\n}\n"
    else:
        # One template per chunk, in _fmt's digits.
        row_text = ",".join(["{:.12g}"] * len(keys)) + "\n"
        pieces = [SWEEP_HEADER + "\n"] + [
            (row_text * len(rows)).format(*rows.ravel().tolist()) for rows in chunks]
    _write_text(args.output, pieces, args.quiet)
    return EXIT_OK


def cmd_threshold(args) -> int:
    scheme = ThresholdScheme(args.k, args.n)
    state, layout = _build_state(args, args.r, args.transmissivity)
    report = keyrate_qss(state, layout, scheme)

    if args.format == "json":
        _write_text(args.output, [json_text(report), "\n"], args.quiet)
        return EXIT_OK

    lines = []
    if not args.quiet:
        lines.append(f"(k, n) = ({args.k}, {args.n})  topology={args.topology}  "
                     f"r={_fmt(args.r)}  T={_fmt(args.transmissivity)}")
        lines.append("")
        lines.append(f"{'kind':<12} {'structure':<18} {'bits':>16}  binding")
        # The binding rows by combine's own rule: the first extreme.
        access, holevo = report.access_mutual_information, report.adversarial_holevo
        lines.append(_table("access", access, np.argmin(access.array)))
        lines.append(_table("adversarial", holevo, np.argmax(holevo.array)))
        lines.append("")
        lines.append(f"eavesdropping-only rate: {_fmt(report.eavesdropping_rate)}")
        for player, rate in report.dishonest_rates.items():
            lines.append(f"dishonest {player}: {_fmt(rate)}")
    lines.append(f"K = {_fmt(report.combined_rate)}")
    lines.append("verdict: " + ("positive key rate" if report.positive
                                else "no secure key"))
    _write_text(args.output, [text for line in lines for text in (line, "\n")], args.quiet)
    return EXIT_OK


def _table(kind: str, terms, binding: int) -> str:
    """One line per structure of the per-structure map ``terms``, in ``_fmt``'s digits,
    written from its player rows and value array, with no newline after the last;
    row ``binding``'s line is marked.

    A label, "{B1,B2,...}" left-justified to 18 characters, is the player names two
    positions a column (``jsontext._position_columns``), then "}", the padding its
    length leaves and the space before the value, one "} " if the shortest fills 18.
    Each distinct value is spelled once with its line end and the next line's head.
    """
    names, rows = terms.names, terms.rows
    head, width = f"{kind:<12} {{", rows.shape[1]
    values = float_texts(terms.array, lambda value: format(value, ">16.12g") + "  \n" + head)
    values[binding] = values[binding].replace("\n", "*\n")
    if 1 + width + sum(sorted(map(len, names))[:width]) >= 18:  # the shortest label fills 18
        columns = _position_columns(names, rows, ",", "} ")
    else:
        lengths = (2 + max(width - 1, 0)
                   + np.array([len(name) for name in names])[rows].sum(axis=1))
        closers = np.array(["}" + " " * pad + " " for pad in range(17)], dtype=object)
        columns = [*_position_columns(names, rows, ","),
                   closers[np.maximum(18 - lengths, 0)].tolist()]
    return _rows(head, [*columns, values], values[-1][:-1 - len(head)])


def _label_texts(labels) -> list:
    """Each sequence of player names (str) in ``labels`` as "{B1,B2,...}"."""
    return ["{" + ",".join(players) + "}" for players in labels]


def cmd_simulate(args) -> int:
    scheme = ThresholdScheme(args.k, args.n)
    state, layout = _build_state(args, args.r, args.transmissivity)
    report = run_protocol(state, layout, scheme, rounds=args.rounds,
                          reveal_fraction=args.reveal_fraction, seed=args.seed,
                          basis_probability=args.basis_probability)
    if args.format == "json" and args.output is None:
        _write_text(None, [json_text(report), "\n"], args.quiet)
        return EXIT_OK

    lines = []
    if not args.quiet:
        analytic = report.analytic
        v_x, v_p = analytic._everyone_variances
        lines.append(f"rounds={report.rounds} seed={report.seed} "
                     f"reveal_fraction={_fmt(report.reveal_fraction)}")
        lines.append(f"key pattern {report.key_pattern}: "
                     f"{report.sifted_counts[report.key_pattern]} sifted, "
                     f"{report.revealed_key_rounds} revealed, "
                     f"{report.raw_key_length} raw key rounds")
        lines.append(f"check pattern {report.check_pattern}: "
                     f"{report.sifted_counts[report.check_pattern]} sifted, "
                     f"{report.revealed_check_rounds} revealed")
        lines.append("")
        lines.append(f"{'quantity':<36} {'empirical':>16} {'analytic':>16}")
        rows = [("V(X_A | all players)", report.inference_x.variance, v_x),
                ("V(P_A | all players)", report.inference_p.variance, v_p)]
        for text, (players, fit) in zip(_label_texts(report.access_variance),
                                        report.access_variance.items()):
            rows.append((f"V(X_A | access {text})", fit.variance,
                         analytic.access_conditional_variance[players]))
        for text, (colluders, fit) in zip(_label_texts(report.adversarial_variance),
                                          report.adversarial_variance.items()):
            rows.append((f"V(P_A | honest vs {text})", fit.variance,
                         analytic.adversarial_conditional_variance[colluders]))
        for name, emp, ana in rows:
            lines.append(f"{name:<36} {_fmt(emp):>16} {_fmt(ana):>16}")
        lines.append("")
        lines.append(f"empirical eavesdropping rate: {_fmt(report.eavesdropping_rate)} "
                     f"(analytic {_fmt(analytic.eavesdropping_rate)})")
    lines.append(f"combined rate = {_fmt(report.combined_rate)} "
                 f"+- {_fmt(report.combined_rate_standard_error)} "
                 f"(analytic {_fmt(report.analytic.combined_rate)})")
    lines.append("SECURE" if report.secure else "INSECURE")
    sys.stdout.write("\n".join(lines) + "\n")

    if args.output is not None:
        if args.format == "json":
            text = json_text(report) + "\n"
        else:
            rows = [["quantity", "structure", "value", "standard_error"]]
            rows += [["sifted_count", name, count, ""]
                     for name, count in report.sifted_counts.items()]
            rows += [["V_x_conditional", text, _fmt(fit.variance), _fmt(fit.standard_error)]
                     for text, fit in zip(_label_texts(report.access_variance),
                                          report.access_variance.values())]
            rows += [["V_p_conditional", f"honest_of_{text}", _fmt(fit.variance),
                      _fmt(fit.standard_error)]
                     for text, fit in zip(_label_texts(report.adversarial_variance),
                                          report.adversarial_variance.values())]
            rows.append(["combined_rate", "", _fmt(report.combined_rate),
                         _fmt(report.combined_rate_standard_error)])
            # The writer quotes the structure labels, whose commas would split them.
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerows(rows)
            text = out.getvalue()
        _write_text(args.output, [text], quiet=True)
    return EXIT_OK


def cmd_validate(args) -> int:
    state, layout = _build_state(args, args.r, args.transmissivity)
    diagnostics = validate(state)
    if args.format == "json":
        text = json_text(diagnostics) + "\n"
    else:
        lines = [
            f"modes: {','.join(str(lab) for lab in state.labels)}",
            f"dealer: {layout.dealer_mode}  "
            f"players: {','.join(str(p) for p in layout.player_modes)}  "
            f"conjugate: {','.join(sorted(str(p) for p in layout.conjugate_players)) or '-'}",
            f"symmetry residual: {_fmt(diagnostics.symmetry_residual)}",
            "symplectic eigenvalues: "
            + (",".join(map(_fmt, diagnostics.symplectic_eigenvalues)) or _fmt(None)),
            f"min symplectic eigenvalue: {_fmt(diagnostics.min_symplectic_eigenvalue)}",
            f"purity: {_fmt(diagnostics.purity)}",
            f"physical: {diagnostics.physical}",
        ]
        text = "\n".join(lines) + "\n"
    _write_text(args.output, [text], args.quiet)
    return EXIT_OK if diagnostics.physical else EXIT_UNPHYSICAL


_COMMANDS = {
    "sweep": cmd_sweep,
    "threshold": cmd_threshold,
    "simulate": cmd_simulate,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            # The file's flags go right after the subcommand, so argv's override them.
            args = parser.parse_args(argv[:1] + _load_config(args.config) + argv[1:])
    except SystemExit as exc:
        return int(exc.code or 0)
    except OSError as exc:
        print(f"cvqss: cannot read config file: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"cvqss: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return _COMMANDS[args.command](args)
    except UnphysicalStateError as exc:
        print(f"cvqss: unphysical state: {exc}", file=sys.stderr)
        return EXIT_UNPHYSICAL
    except OSError as exc:
        print(f"cvqss: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, UndersampledError) as exc:
        print(f"cvqss: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
