"""The four benchmark workloads: argv per op, work per op, and output checks.

Each workload drives ``cvqss.cli.main(argv)`` once per op. Its inputs come
from a ``numpy.random.Generator`` seeded with the benchmark seed, so a seed
fixes the sequence of argv lists. ``check`` returns ``None`` when the text
the op wrote to stdout is correct and a one-line reason otherwise; it reads
only that text, never the library's internal objects.
"""

import json
import math
import re
from pathlib import Path

GOLDEN_SWEEP = Path("tests") / "data" / "default_sweep_golden.csv"

#: Star resources are invariant under player permutations, so every access
#: (adversarial) structure must give the same value to this relative tolerance.
SYMMETRY_RTOL = 1e-9

#: Largest |z| accepted for one empirical conditional variance; a correct
#: run exceeds it with probability about 6e-7 per value.
MAX_STRUCTURE_Z = 5.0


class Workload:
    """One CLI invocation shape; subclasses fill in argv, work and check."""

    name = ""
    work_unit = ""
    work_per_op = 0

    def __init__(self, root: Path, rng):
        self.root = root
        self.rng = rng

    def argv(self) -> list:
        raise NotImplementedError

    def check(self, stdout: str):
        raise NotImplementedError


class SweepChain(Workload):
    """The default sweep: 244 grid points of a (2, 2) chain, CSV to stdout."""

    name = "sweep-chain"
    work_unit = "grid points"
    work_per_op = 61 * 4

    def __init__(self, root, rng):
        super().__init__(root, rng)
        self.golden = (root / GOLDEN_SWEEP).read_text(encoding="utf-8")

    def argv(self):
        # The sweep ignores --seed; passing it keeps every workload's argv
        # shaped the same and leaves the output equal to the golden file.
        return ["sweep", "--seed", str(int(self.rng.integers(0, 2**31)))]

    def check(self, stdout):
        if stdout == self.golden:
            return None
        for lineno, (got, want) in enumerate(
                zip(stdout.splitlines(), self.golden.splitlines()), 1):
            if got != want:
                return f"sweep CSV differs from the golden file at line {lineno}"
        return (f"sweep CSV has {len(stdout)} bytes, "
                f"the golden file {len(self.golden)}")


class ThresholdStar(Workload):
    """One (7, 14) star scheme, 6,435 access structures, text output."""

    name = "threshold-star"
    work_unit = "structures"
    players, threshold = 14, 7
    output_format = "text"

    @property
    def work_per_op(self):
        return (math.comb(self.players, self.threshold)
                + math.comb(self.players, self.threshold - 1))

    def argv(self):
        r = float(self.rng.uniform(0.5, 1.5))
        transmissivity = float(self.rng.uniform(0.85, 1.0))
        argv = ["threshold", "--n", str(self.players), "--k", str(self.threshold),
                "--topology", "star", "--r", repr(r), "-T", repr(transmissivity)]
        if self.output_format == "json":
            argv += ["--format", "json"]
        return argv

    def parse(self, stdout):
        """(access bits, adversarial bits, eavesdropping rate, K, positive)."""
        access, adversarial = {}, {}
        eavesdropping = combined = positive = None
        for line in stdout.splitlines():
            fields = line.split()
            if fields[:1] == ["access"]:
                access[fields[1]] = float(fields[2])
            elif fields[:1] == ["adversarial"]:
                adversarial[fields[1]] = float(fields[2])
            elif line.startswith("eavesdropping-only rate: "):
                eavesdropping = float(fields[-1])
            elif line.startswith("K = "):
                combined = float(fields[-1])
            elif line.startswith("verdict: "):
                positive = line == "verdict: positive key rate"
        return access, adversarial, eavesdropping, combined, positive

    def check(self, stdout):
        try:
            parsed = self.parse(stdout)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            return f"unparseable threshold output: {exc!r}"
        return check_threshold(self.players, self.threshold, *parsed)


class ThresholdStarJson(ThresholdStar):
    """A (6, 12) star scheme, 924 access structures, JSON output.

    The r and T ranges are those of ThresholdStar. The scheme is smaller so
    that an op takes about as long as the other workloads' and a run holds
    enough ops for its tail; JSON formatting is still most of an op.
    """

    name = "threshold-star-json"
    players, threshold = 12, 6
    output_format = "json"

    def parse(self, stdout):
        report = json.loads(stdout)
        return (report["access_mutual_information"], report["adversarial_holevo"],
                report["eavesdropping_rate"], report["combined_rate"],
                report["positive"])


def check_threshold(n, k, access, adversarial, eavesdropping, combined, positive):
    """Structure counts, star symmetry and the min/max reduction."""
    if len(access) != math.comb(n, k):
        return f"{len(access)} access structures, want C({n}, {k})"
    if len(adversarial) != math.comb(n, k - 1):
        return f"{len(adversarial)} adversarial structures, want C({n}, {k - 1})"
    if None in (eavesdropping, combined, positive):
        return "missing eavesdropping rate, K or verdict"
    for kind, values in (("access", access), ("adversarial", adversarial)):
        low, high = min(values.values()), max(values.values())
        if high - low > SYMMETRY_RTOL * max(abs(low), abs(high)):
            return f"{kind} values break star symmetry: {low!r} .. {high!r}"
    expected = min(access.values()) - max(adversarial.values())
    scale = max(1.0, max(abs(v) for v in access.values()),
                max(abs(v) for v in adversarial.values()))
    if abs(combined - expected) > SYMMETRY_RTOL * scale:
        return f"K = {combined!r} but min access - max adversarial = {expected!r}"
    if combined > eavesdropping + SYMMETRY_RTOL * scale:
        return f"K = {combined!r} exceeds the eavesdropping-only rate {eavesdropping!r}"
    if positive != (combined > 0.0):
        return f"verdict {positive} disagrees with K = {combined!r}"
    return None


_PATTERN = re.compile(r"^(key|check) pattern \w+: (\d+) sifted, (\d+) revealed")
_ROW = re.compile(r"^(V\((X|P)_A \| (.+)\))\s+(\S+)\s+(\S+)$")
_COMBINED = re.compile(r"^combined rate = (\S+) \+- (\S+) \(analytic (\S+)\)$")


class SimulateStar(Workload):
    """10^6 protocol rounds of a (2, 4) star; the op seed comes from the rng."""

    name = "simulate-star"
    work_unit = "rounds"
    work_per_op = 1_000_000
    players = 4

    def argv(self):
        return ["simulate", "--n", str(self.players), "--k", "2", "--topology", "star",
                "--r", "1.15", "-T", "0.95", "--rounds", str(self.work_per_op),
                "--seed", str(int(self.rng.integers(0, 2**31)))]

    def parse(self, stdout):
        """Revealed counts, per-row (empirical, analytic), combined-rate triple."""
        revealed, rows, combined, secure = {}, {}, None, None
        for line in stdout.splitlines():
            if match := _PATTERN.match(line):
                revealed[match[1]] = (int(match[2]), int(match[3]))
            elif match := _ROW.match(line):
                rows[match[1]] = (match[2], match[3], float(match[4]), float(match[5]))
            elif match := _COMBINED.match(line):
                combined = tuple(float(v) for v in match.groups())
            elif line in ("SECURE", "INSECURE"):
                secure = line == "SECURE"
        return revealed, rows, combined, secure

    def structure_z(self, revealed, rows):
        """z of every per-structure empirical conditional variance.

        Takes the revealed counts and table rows that :meth:`parse` returns.
        The reference error is the chi-squared law of a Gaussian residual
        variance, sigma^2 * sqrt(2 / (N - d)), with N the revealed rounds of
        the pattern and d the fitted parameters (estimators + intercept). It
        is independent of the library's own jackknife.
        """
        z = {}
        for label, (quadrature, given, empirical, analytic) in rows.items():
            if given == "all players":
                continue
            pattern = "key" if quadrature == "X" else "check"
            group = len(given.split("{", 1)[1].rstrip("}").split(","))
            estimators = group if given.startswith("access") else self.players - group
            rounds = revealed[pattern][1]
            sigma = analytic * math.sqrt(2.0 / (rounds - estimators - 1))
            z[label] = (empirical - analytic) / sigma
        return z

    def combined_rate_z(self, stdout):
        """(empirical - analytic combined rate) / its reported standard error."""
        _, _, (empirical, error, analytic), _ = self.parse(stdout)
        return (empirical - analytic) / error

    def check(self, stdout):
        try:
            revealed, rows, combined, secure = self.parse(stdout)
            z = self.structure_z(revealed, rows)
        except (ValueError, IndexError, KeyError, TypeError) as exc:
            return f"unparseable simulate output: {exc!r}"
        structures = math.comb(self.players, 2) + self.players
        if len(z) != structures:
            return f"{len(z)} per-structure rows, want {structures}"
        if combined is None or secure is None:
            return "missing combined rate or verdict"
        worst = max(z, key=lambda label: abs(z[label]))
        if abs(z[worst]) > MAX_STRUCTURE_Z:
            return f"{worst}: z = {z[worst]:.3f} beyond {MAX_STRUCTURE_Z}"
        rate, error, _ = combined
        if secure != (rate - 3.0 * error > 0.0):
            return f"verdict {'SECURE' if secure else 'INSECURE'} disagrees with {rate} +- {error}"
        return None


WORKLOADS = {cls.name: cls for cls in (SweepChain, ThresholdStar, ThresholdStarJson,
                                        SimulateStar)}
