"""The four benchmark workloads: their inputs, their timed iteration and the
checks on every output.

A workload is built from the seed (its set-up), then runs iterations in a
closed loop.  ``iteration`` returns the ``(start, end)`` perf_counter stamps
of each named part and records every check it makes in a ``Tally``; a part
that runs in a fresh interpreter is skipped when ``cold`` is false (the
traced run, which can only see this process).  Program functions are looked up through their
modules at call time, so the wrappers installed by ``tracing`` see every call.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARIABLES = ("x", "y", "z")

#: sha256 of the stdout of ``bh verify --all`` at the commit that defined this
#: benchmark; the bh-report/1 report must stay byte-identical.
VERIFY_DIGEST = "9920047c62547c90e843b713feafe51c9142a98469aa667080fc7ce2a81af65f"
VERIFY_SUMMARY = {"pass": 170, "fail": 0, "inapplicable": 30}

#: exponent range of the corpus; its top end lets the monodromy of the
#: transpose reach cyclotomic indices past factor_cyclotomic's default bound.
EXPONENTS = range(2, 9)
#: strata per polynomial type in the corpus round (five types: 100 polynomials)
STRATA = 20
#: largest k of the quotient-resolution lemma sweep (the acceptance test C8
#: stops at 12)
LEMMA_K = 20
CHILD_TIMEOUT_S = 150


class Tally:
    """Checks attempted and failed.  A failure that matches a documented
    defect of the program counts as failed but not as unexpected.

    Each check is counted once per run, under its key: every iteration
    repeats the same checks on the same inputs, and a repeat must reach the
    verdict the first one reached, or it counts as one more, unexpected,
    failure.  ``attempted`` and ``failed`` thus depend on the inputs alone,
    not on how many iterations fit in the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.examples: list[str] = []
        self.verdicts: dict = {}

    def check(self, key, ok: bool, what: str, known_defect: bool = False) -> None:
        if key in self.verdicts:
            if self.verdicts[key] == ok:
                return
            ok, known_defect = False, False
            what += " (a later iteration reached another verdict)"
        else:
            self.verdicts[key] = ok
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if not known_defect:
            self.unexpected += 1
            if len(self.examples) < 5:
                self.examples.append(what)


def run_child(argv: list[str]) -> tuple[tuple[float, float], subprocess.CompletedProcess]:
    """Run a fresh interpreter on this checkout's ``src`` to completion;
    returns ((start, end), result)."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT,
        env=env,
        capture_output=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return (start, time.perf_counter()), done


# ---------------------------------------------------------------------------
# verify_all
# ---------------------------------------------------------------------------

class VerifyAll:
    """The 20-row bh-report/1 report: in process, and as the cold CLI."""

    def __init__(self, seed: int):
        from bhdual import fixtures

        fixtures.load_rows()

    def iteration(self, index: int, tally: Tally, cold: bool = True) -> dict[str, tuple]:
        from bhdual import cli, fixtures

        start = time.perf_counter()
        report = cli.build_report(fixtures.load_rows())
        stdout = (json.dumps(report, indent=2) + "\n").encode()
        parts = {"verify_s": (start, time.perf_counter())}
        self._check_report("in process", stdout, tally)
        if cold:
            parts["verify_cold_s"], done = run_child(["-m", "bhdual.cli", "verify", "--all"])
            tally.check("cold exit", done.returncode == 0, f"bh verify --all exited {done.returncode}")
            self._check_report("cold", done.stdout, tally)
        return parts

    @staticmethod
    def _check_report(how: str, stdout: bytes, tally: Tally) -> None:
        tally.check(
            (how, "bytes"),
            hashlib.sha256(stdout).hexdigest() == VERIFY_DIGEST,
            f"verify report ({how}) differs from the reference bytes",
        )
        try:
            summary = json.loads(stdout)["summary"]
        except (ValueError, KeyError):
            summary = None
        tally.check((how, "summary"), summary == VERIFY_SUMMARY, f"verify summary ({how}) {summary}")


# ---------------------------------------------------------------------------
# calibrate
# ---------------------------------------------------------------------------

def _wiring(table) -> tuple:
    """A convention table without its provenance notes."""
    return (
        table.reading,
        {
            key: (c.upper_sign, c.bullet_edges, c.arm_bullet, c.arm_sign, c.fixed_slots)
            for key, c in table.cases.items()
        },
    )


def wrong_oracle(row):
    """A monodromy oracle no candidate diagram can match (all eigenvalues -1)."""
    from bhdual import exactalg

    return exactalg.CyclotomicFactorization({2: row.mu}, 1, exactalg.IntPolynomial.one())


class Calibrate:
    """dynkin.calibrate on its success path (20 rows) and its failure path."""

    def __init__(self, seed: int):
        from bhdual import dynkin, fixtures

        self.rows = fixtures.load_rows()
        self.e20 = [fixtures.row_by_name("E_20")]
        self.expected = _wiring(dynkin.committed_convention())

    def iteration(self, index: int, tally: Tally, cold: bool = True) -> dict[str, tuple]:
        from bhdual import dynkin, series

        start = time.perf_counter()
        table = dynkin.calibrate(self.rows, series.transpose_monodromy)
        middle = time.perf_counter()
        try:
            dynkin.calibrate(self.e20, wrong_oracle)
            report = None
        except dynkin.CalibrationFailed as exc:
            report = exc.report
        end = time.perf_counter()
        tally.check(
            "success path",
            _wiring(table) == self.expected,
            "calibration differs from committed_convention()",
        )
        tally.check("failure path", report == {"a5": ["E_20"]}, f"failure-path report {report}")
        return {"calibrate_ok_s": (start, middle), "calibrate_fail_s": (middle, end)}


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

#: Kreuzer-Skarke types of invertible polynomials in three variables, as
#: exponent matrices in the exponents (a, b, c): Fermat, chain, loop, and the
#: two mixed sums of a two-variable chain or loop with a Fermat term.
TYPES = {
    "fermat": lambda a, b, c: ((a, 0, 0), (0, b, 0), (0, 0, c)),
    "chain": lambda a, b, c: ((a, 1, 0), (0, b, 1), (0, 0, c)),
    "loop": lambda a, b, c: ((a, 1, 0), (0, b, 1), (1, 0, c)),
    "chain2+fermat": lambda a, b, c: ((a, 1, 0), (0, b, 0), (0, 0, c)),
    "loop2+fermat": lambda a, b, c: ((a, 1, 0), (1, b, 0), (0, 0, c)),
}


def _det3(m) -> int:
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _render(matrix) -> str:
    terms = []
    for row in matrix:
        factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(VARIABLES, row) if e]
        terms.append("*".join(factors))
    return " + ".join(terms)


def corpus_round(seed: int) -> list[tuple[str, tuple]]:
    """The round of 5 * STRATA polynomials, as the seed presents them.

    Per type, the exponent triples are sorted by |det E| (which sets the
    degrees of every series and polynomial downstream) and cut into STRATA
    equal strata; the round holds the middle triple of each, so it spans the
    whole range of sizes.  The polynomials are thus the same for every seed,
    up to renaming: the seed permutes each one's variables and the order of
    its terms, and shuffles the round.  Renaming changes neither the
    monodromy nor the cost, so the share of failed checks (the
    factor_cyclotomic index bound) and the time of a round do not depend on
    the seed.
    """
    rng = random.Random(seed)
    batch = []
    for kind, build in TYPES.items():
        triples = sorted(
            itertools.product(EXPONENTS, repeat=3),
            key=lambda t: (abs(_det3(build(*t))), t),
        )
        n = len(triples)
        for i in range(STRATA):
            stratum = triples[i * n // STRATA:(i + 1) * n // STRATA]
            batch.append(build(*stratum[len(stratum) // 2]))
    rng.shuffle(batch)
    presented = []
    for matrix in batch:
        columns = rng.sample(range(3), 3)
        rows = rng.sample(matrix, 3)
        renamed = tuple(tuple(row[c] for c in columns) for row in rows)
        presented.append((_render(renamed), renamed))
    return presented


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def silent_index_bound(found, oracle) -> bool:
    """Whether ``found`` is the oracle factorization cut off at an index
    bound: every factor up to some index split off exactly, and everything
    beyond it left in the remainder (the documented factor_cyclotomic n_max
    defect)."""
    kept = {n: m for n, m in oracle.factors.items() if n in found.factors}
    missing = {n: m for n, m in oracle.factors.items() if n not in found.factors}
    return (
        bool(missing)
        and found.factors == kept
        and found.unit == 1
        and min(missing) > max(found.factors, default=0)
        and found.remainder.degree == sum(_totient(n) * m for n, m in missing.items())
    )


def check_polynomial(key, text: str, matrix, tally: Tally) -> None:
    """parse -> transpose -> weights -> Poincare series (closed form and
    brute force) -> Milnor-Orlik oracle -> factor_cyclotomic(reconstruct());
    ``key`` tells this polynomial's checks apart from the others'."""
    from bhdual import exactalg, polyparse, series, weights

    f = polyparse.parse_polynomial(text, VARIABLES)
    f_t = polyparse.transpose(f)
    tally.check(
        (key, "transpose"),
        f.matrix.entries == tuple(matrix)
        and polyparse.transpose(f_t).matrix.entries == f.matrix.entries,
        f"{text}: parse or transpose-of-transpose",
    )
    d = abs(_det3(matrix))
    w = weights.canonical_weights(f)
    w_t = weights.canonical_weights(f_t)
    tally.check(
        (key, "weights"),
        w.d_prime == w_t.d_prime == d
        and all(sum(e * x for e, x in zip(row, w.w)) == d for row in matrix)
        and all(sum(row[j] * w_t.w[i] for i, row in enumerate(matrix)) == d for j in range(3)),
        f"{text}: E*w != |det E|*(1,1,1)",
    )
    k_max = 2 * w.d_prime
    closed = series.poincare_series(w).series_coefficients(k_max)
    brute = series.poincare_bruteforce(w, k_max)
    tally.check((key, "series"), closed == brute, f"{text}: closed Poincare series != brute force")
    reduced = weights.reduce(w_t)
    oracle = series.milnor_orlik(reduced)
    numerator = math.prod(reduced.d - q for q in reduced.q)
    denominator = math.prod(reduced.q)
    tally.check(
        (key, "degree"),
        numerator % denominator == 0 and oracle.degree == numerator // denominator,
        f"{text}: Milnor-Orlik degree != prod(d - q_i)/q_i",
    )
    found = exactalg.factor_cyclotomic(oracle.reconstruct())
    ok = found.is_cyclotomic and found.unit == 1 and found.factors == oracle.factors
    tally.check(
        (key, "cyclotomic"),
        ok,
        f"{text}: factor_cyclotomic disagrees with the Milnor-Orlik oracle",
        known_defect=not ok and silent_index_bound(found, oracle),
    )


class Corpus:
    """Invertible polynomials, presented as the seed says, through every
    exact check: the round of 100 per iteration."""

    RATE = ("corpus_polys_per_s", "round_s")

    def __init__(self, seed: int):
        from bhdual import fixtures

        fixtures.load_rows()
        self.round = corpus_round(seed)
        self.items = len(self.round)

    def iteration(self, index: int, tally: Tally, cold: bool = True) -> dict[str, tuple]:
        start = time.perf_counter()
        for key, (text, matrix) in enumerate(self.round):
            check_polynomial(key, text, matrix, tally)
        return {"round_s": (start, time.perf_counter())}


# ---------------------------------------------------------------------------
# lemma_sweep
# ---------------------------------------------------------------------------

class LemmaSweep:
    """The quotient-resolution lemmas for 1 <= m < k <= LEMMA_K plus the
    doubled curve, one sweep of 209 cases per iteration."""

    RATE = ("lemma_cases_per_s", "sweep_s")

    def __init__(self, seed: int):
        from bhdual import fixtures

        fixtures.load_rows()
        self.cases = [(m, k) for k in range(2, LEMMA_K + 1) for m in [*range(1, k), None]]
        self.items = len(self.cases)

    def iteration(self, index: int, tally: Tally, cold: bool = True) -> dict[str, tuple]:
        from bhdual import quotres

        start = time.perf_counter()
        for m, k in self.cases:
            if m is not None:
                met = quotres.exceptional_components_met(quotres.invariant_image(m, k), k)
                tally.check((m, k), met == [k - m], f"(m, k) = ({m}, {k}): components met {met}")
                continue
            curve = quotres.invariant_image_double(k)
            component, branches = quotres.attachment_double(k)
            met = quotres.exceptional_components_met(curve, k)
            tally.check(
                ("double", k, "met"),
                met == [component] == [k - 1],
                f"double k = {k}: components met {met}",
            )
            count = quotres.branch_count_at_attachment(curve, k, component)
            tally.check(("double", k, "branches"), count == branches == 2, f"double k = {k}: {count} branches")
        return {"sweep_s": (start, time.perf_counter())}


WORKLOADS = {
    "verify_all": VerifyAll,
    "calibrate": Calibrate,
    "corpus": Corpus,
    "lemma_sweep": LemmaSweep,
}


def check_setup(workload: str, seed: int, tally: Tally, index: int) -> tuple[float, float]:
    """Run a fresh interpreter from start to a workload ready to iterate;
    returns its (start, end)."""
    run = Path(__file__).resolve().parent / "run.py"
    window, done = run_child([str(run), "--setup-only", "--workload", workload, "--seed", str(seed)])
    tally.check(
        ("set-up", index),
        done.returncode == 0,
        f"set-up exited {done.returncode}: {done.stderr[-300:]!r}",
    )
    return window
