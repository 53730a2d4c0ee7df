"""Tests of the benchmark itself: the oracle against values fixed outside
rscount, and the output checks against corrupted outputs.

    python3 -m pytest bench
"""

import json
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_k3_surface():
    assert oracle.char_number(2, (4,)) == -40
    assert oracle.a_hat_genus(2, (4,)) == 2


def test_projective_plane_as_a_hyperplane_is_not_integral():
    assert oracle.char_number(2, (1,)) == Fraction(5, 2)


@pytest.mark.parametrize("m", range(2, 31, 2))
def test_calabi_yau_hypersurface_closed_form(m):
    expected = -2 * (comb(2 * m + 3, m + 1) + 1 - (m + 2) ** 2)
    assert oracle.char_number(m, (m + 2,)) == expected


@pytest.mark.parametrize("name", WORKLOADS)
def test_job_lists_depend_only_on_the_seed(name):
    make_jobs = WORKLOADS[name].make_jobs
    assert make_jobs(7) == make_jobs(7)
    assert make_jobs(7) != make_jobs(8)


def _corrupt_report(key):
    def corrupt(output):
        document = json.loads(output)
        result = document["result"]
        report = result.get("report", result)
        report[key] = str(int(report[key]) + 2)
        return json.dumps(document)
    return corrupt


def _search_degree(output):
    document = json.loads(output)
    document["result"]["degree"] += 2
    return json.dumps(document)


def _polynomial_coefficient(terms):
    key = next(iter(terms))
    return {**terms, key: terms[key] + 1}


def _cheapest(name):
    """A cheap job of the workload, with an output that is not all zeros."""
    jobs = WORKLOADS[name].make_jobs(0)
    if name == "symbolic":
        return min((job for job in jobs if job.args[0] % 2 == 0), key=lambda j: j.args)
    if name == "search":
        return min(jobs, key=lambda job: job.params["threshold"])
    return min((job for job in jobs if job.params["m"] % 2 == 0 and "torus_dim" in job.params),
               key=lambda job: job.params["m"])


@pytest.mark.parametrize("name, corrupt", [
    ("numeric", _corrupt_report("charnum")),
    ("numeric", _corrupt_report("boundPlus")),
    ("numeric", _corrupt_report("productBound")),
    ("numeric", _corrupt_report("deduction")),
    ("search", _search_degree),
    ("search", _corrupt_report("charnum")),
    ("symbolic", _polynomial_coefficient),
])
def test_a_corrupted_output_fails_the_check(name, corrupt):
    workload = WORKLOADS[name]
    job = _cheapest(name)
    code, output = workload.runner()(job.args)
    assert code == 0
    assert workload.check(job, output) == []
    assert workload.check(job, corrupt(output)) != []


def test_tracer_counts_calls_and_restores_the_program():
    from rscount import charclass, cli
    from spans import Tracer

    run = WORKLOADS["numeric"].runner()
    tracer = Tracer()
    with tracer.traced():
        code, _ = run(("compute", "--complex-dim", "2", "--degrees", "4"))
    assert code == 0
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["charclass.char_number"] == 2
    assert tracer.calls["charclass.a_hat_genus"] == 2
    assert tracer.calls["rings.multipoly_init"] == 0
    assert len(tracer.spans) == sum(tracer.calls.values())
    assert all(start <= end for _, _, _, start, end in tracer.spans)
    assert 0 <= tracer.self_s["cli.main"] <= tracer.spans[0][4] - tracer.spans[0][3]
    assert cli.char_number is charclass.char_number
    assert "traced" not in cli.main.__qualname__
