"""Seeded job lists for the three workloads, how each job is run, and how its
output is checked against the Riemann-Roch oracle.

A round is one pass over a workload's job list; every round repeats the same
jobs.  Job lists are stratified: the seed picks degrees, thresholds,
evaluation points and job order, but each stratum keeps its size, so the work
in a round (and hence every end-to-end figure) barely moves with the seed.
Each list holds 45 jobs: with N = 45 the median and the tail percentile fall
inside one job's block of repeats, not on the edge between two jobs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import oracle


class Job(NamedTuple):
    args: tuple     # what the program is called with
    params: dict    # what the check needs to know about the inputs


@dataclass(frozen=True)
class Workload:
    make_jobs: Callable[[int], list]
    runner: Callable[[], Callable]      # imports what the workload calls
    check: Callable[[Job, object], list]
    warmup: tuple                       # args of the set-up job
    tail_percentile: int


def _cli_runner():
    from rscount import cli

    def run(argv):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = cli.main(list(argv))
        return code, out.getvalue()
    return run


def _polynomial_runner():
    from rscount import charclass

    def run(args):
        return 0, charclass.char_number_polynomial(*args).terms
    return run


# --- numeric: compute and product on spin complete intersections, c_1 <= 0

# Six high-order jobs (13% of the list), so that the 90th percentile lands
# on the second cheapest of them and job_tail_s measures high-order series.
_HIGH = ((56, 1), (64, 2), (72, 3), (84, 4), (100, 2), (120, 1))
_LOW = 39
_PRODUCT_SLOTS = (6, 19, 32)
_CY_MAX_M = 14          # the paper's parallel-spinor table stops at n = 28


def _spin_degrees(rng: random.Random, m: int, r: int) -> tuple:
    """Degrees >= 2 whose c_1 = m + r + 1 - sum is even and <= 0."""
    slack = rng.randrange(0 if m <= _CY_MAX_M else 1, 4)
    spare = m + r + 1 + 2 * slack - 2 * r
    cuts = sorted(rng.randint(0, spare) for _ in range(r - 1))
    return tuple(2 + b - a for a, b in zip([0] + cuts, cuts + [spare]))


def _numeric_jobs(seed: int) -> list:
    rng = random.Random(f"numeric:{seed}")
    slots = [(8 + 32 * i // (_LOW - 1), 1 + i % 4) for i in range(_LOW)] + list(_HIGH)
    jobs = []
    for i, (m, r) in enumerate(slots):
        degrees = _spin_degrees(rng, m, r)
        argv = ["--complex-dim", str(m), "--degrees", *map(str, degrees)]
        params = {"m": m, "degrees": degrees}
        if i in _PRODUCT_SLOTS:
            params["torus_dim"] = rng.randint(1, 7)
            argv = ["product", *argv, "--torus-dim", str(params["torus_dim"])]
        else:
            argv = ["compute", *argv]
        jobs.append(Job(tuple(argv), params))
    rng.shuffle(jobs)
    return jobs


def _report_errors(report: dict, m: int, degrees) -> list:
    """Compare one bound report with the oracle and the clamp rules."""
    c1 = m + len(degrees) + 1 - sum(degrees)
    charnum = oracle.char_number(m, degrees)
    deduction = oracle.PARALLEL_SPINORS[2 * m] if c1 == 0 else 0
    expected = {
        "m": m, "degrees": sorted(degrees), "n": 2 * m, "spin": True,
        "curvature": "calabi_yau" if c1 == 0 else "general_type",
        "charnum": charnum, "deduction": deduction,
        "boundPlus": max(charnum - deduction, 0),
        "boundMinus": max(-charnum - deduction, 0),
        "boundTotal": max(abs(charnum) - deduction, 0),
    }
    if "aHatGenus" in report:
        a_hat = oracle.a_hat_genus(m, degrees)
        expected["aHatGenus"] = a_hat
        expected["rsIndexPlus"] = charnum + a_hat
    errors = []
    for key, want in expected.items():
        got = report.get(key)
        if isinstance(got, str) and key != "curvature":
            got = Fraction(got)
        if got != want:
            errors.append(f"{key}: got {report.get(key)!r}, expected {want}")
    return errors


def _numeric_check(job: Job, output: str) -> list:
    result = json.loads(output)["result"]
    m, degrees = job.params["m"], job.params["degrees"]
    errors = _report_errors(result, m, degrees)
    k = job.params.get("torus_dim")
    if k is not None and result["productBound"] != str(int(result["boundTotal"]) * 2 ** (k // 2)):
        errors.append(f"productBound {result['productBound']} is not boundTotal * 2^[{k}/2]")
    return errors


# --- symbolic: char_number_polynomial over a grid of (m, r)

# Largest even m per codimension r, kept where one call stays under ~0.2 s.
_GRID_MAX_M = {1: 20, 2: 20, 3: 18, 4: 14, 5: 10, 6: 8}
_POINTS = 2


def _symbolic_jobs(seed: int) -> list:
    """One m from each pair (2k, 2k+1): the series are even in h, so orders
    2k and 2k+1 hold the same nonzero coefficients and cost about the same,
    and the seed's choice hardly moves the work in a round."""
    rng = random.Random(f"symbolic:{seed}")
    jobs = []
    for r, max_m in _GRID_MAX_M.items():
        for low in range(2, max_m + 1, 2):
            m = low + rng.randrange(2)
            points = []
            for _ in range(_POINTS):
                point = [rng.randint(1, 12) for _ in range(r)]
                permuted = point[:]
                rng.shuffle(permuted)
                points.append((tuple(point), tuple(permuted)))
            jobs.append(Job((m, r), {"points": points}))
    rng.shuffle(jobs)
    return jobs


def _evaluate(terms: dict, point) -> Fraction:
    total = Fraction(0)
    for exponents, coefficient in terms.items():
        term = Fraction(coefficient)
        for value, exponent in zip(point, exponents):
            term *= value**exponent
        total += term
    return total


def _symbolic_check(job: Job, terms: dict) -> list:
    """`terms` maps exponent tuples to the polynomial's coefficients."""
    m, r = job.args
    errors = []
    for i in range(r):
        degree = max((e[i] for e in terms), default=-1)
        if degree != (m + 1 if m % 2 == 0 else -1):
            errors.append(f"degree {degree} in a{i + 1} for m={m}")
    for point, permuted in job.params["points"]:
        value = _evaluate(terms, point)
        if value != oracle.char_number(m, point):
            errors.append(f"value {value} at {point} differs from the oracle")
        if _evaluate(terms, permuted) != value:
            errors.append(f"value at {permuted} differs from the value at {point}")
    return errors


# --- search: smallest even degree beating a threshold, m in {2, 4, 6, 8}

# Jobs per m, and the largest answer degree, which keeps a job under ~0.2 s.
_SEARCH = {2: (12, 800), 4: (11, 480), 6: (11, 320), 8: (11, 240)}


def _hypersurface(m: int, a: int) -> int:
    return abs(int(oracle.char_number(m, (a,))))


def _search_jobs(seed: int) -> list:
    """Thresholds aimed at answer degrees spread evenly over each m's range:
    stratum j of a given m draws its answer from the j-th slice of the even
    degrees m+4 .. max, then a threshold that this degree is first to beat.
    Stratum 0 always aims at m+4, the first degree the search tries."""
    rng = random.Random(f"search:{seed}")
    jobs = []
    for m, (count, max_degree) in _SEARCH.items():
        steps = (max_degree - m - 4) // 2
        for j in range(count):
            step = rng.randrange(j * steps // count, (j + 1) * steps // count) if j else 0
            target = m + 4 + 2 * step
            below = _hypersurface(m, target - 2) if target > m + 4 else 0
            threshold = rng.randrange(max(below, 1), _hypersurface(m, target))
            argv = ("search", "--complex-dim", str(m), "--threshold", str(threshold))
            jobs.append(Job(argv, {"m": m, "threshold": threshold}))
    rng.shuffle(jobs)
    return jobs


def _search_check(job: Job, output: str) -> list:
    result = json.loads(output)["result"]
    m, threshold = job.params["m"], job.params["threshold"]
    a = result["degree"]
    if not isinstance(a, int) or a % 2 or a < m + 4:
        return [f"degree {a!r} is not an even integer >= {m + 4}"]
    errors = _report_errors(result["report"], m, (a,))
    if result["charnum"] != result["report"]["charnum"]:
        errors.append("charnum differs from the report's charnum")
    if _hypersurface(m, a) <= threshold:
        errors.append(f"degree {a} does not beat {threshold}")
    for b in range(m + 4, a, 2):
        if _hypersurface(m, b) > threshold:
            errors.append(f"smaller degree {b} already beats {threshold}")
            break
    return errors


WORKLOADS = {
    "numeric": Workload(_numeric_jobs, _cli_runner, _numeric_check,
                        ("compute", "--complex-dim", "2", "--degrees", "4"), 90),
    "symbolic": Workload(_symbolic_jobs, _polynomial_runner,
                         _symbolic_check, (4, 2), 95),
    "search": Workload(_search_jobs, _cli_runner, _search_check,
                       ("search", "--complex-dim", "2", "--threshold", "1000"), 95),
}
