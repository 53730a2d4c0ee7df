"""Shared test helpers: CLI subprocess runner, golden-file access, the
command lines of the result goldens and the edges of verify's polynomial
suites."""

import os
import subprocess
import sys
from pathlib import Path

from rscount import verify
from rscount.charclass import MAX_ESTIMATED_SECONDS, _polynomial_seconds

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).parent / "goldens"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Invoke the CLI the way a user would: as a fresh interpreter process."""
    env = dict(os.environ)
    parts = [str(REPO_ROOT / "src")]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return subprocess.run([sys.executable, "-m", "rscount", *args],
                          capture_output=True, text=True, env=env,
                          cwd=REPO_ROOT)


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


# The command lines of the result goldens, which exit 0, each with its stem:
# ``{stem}.json`` holds its stdout, and ``{stem}.csv`` and ``{stem}.md`` its
# stdout with --format csv and --format markdown.
RESULT_GOLDENS = [
    (("compute", "--complex-dim", "2", "--degrees", "4"), "compute_k3"),
    (("table", "parallel-spinors", "--max-n", "28"), "table_parallel_spinors_28"),
    (("table", "calabi-yau", "--max-m", "30"), "table_calabi_yau_30"),
    (("verify", "closed-form", "--max-m", "30"), "verify_closed_form_30"),
    (("verify", "hypersurface-poly", "--m", "4"), "verify_hypersurface_poly_4"),
    (("verify", "symmetric-poly", "--m", "3", "--r", "2"), "verify_symmetric_poly_3_2"),
    (("search", "--complex-dim", "2", "--threshold", "100"), "search_m2_t100"),
    # tests/test_rsbounds.py checks this golden on the four-binomial closed form of P(a)
    (("search", "--complex-dim", "8", "--threshold", str(10**300)), "search_m8_t1e300"),
    (("product", "--complex-dim", "2", "--degrees", "6", "--torus-dim", "1"),
     "product_m2_d6_k1"),
    (("product", "--complex-dim", "2", "--degrees", "4", "--torus-dim", "2"),
     "product_m2_d4_k2"),
]


def polynomial_suite_edge(argv: tuple[str, ...]) -> tuple[str, int, int]:
    """(flag, largest, step) for verify's polynomial suite ``argv``: its name,
    then for symmetric-poly the flag it fixes and that flag's value.  The
    other flag is walked, --m through the even values and --r through all,
    and ``largest`` is the last value before the first the cost model refuses."""
    if argv[0] == "hypersurface-poly":
        flag, estimate = "--m", lambda m: _polynomial_seconds(m, 1)
    elif argv[1] == "--r":
        flag, estimate = "--m", lambda m: verify._symmetric_poly_seconds(m, int(argv[2]))
    else:
        flag, estimate = "--r", lambda r: verify._symmetric_poly_seconds(int(argv[2]), r)
    step = 2 if flag == "--m" else 1
    largest = step
    while estimate(largest + step) <= MAX_ESTIMATED_SECONDS:
        largest += step
    return flag, largest, step
