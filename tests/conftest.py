"""Shared test helpers: the CLI subprocess runner; README's sections;
``GOLDENS``, the command line of each golden file's stem, and
``golden_case``, the one rule that reads each file's expected outcome from
its name; and the edges of verify's polynomial suites."""

import json
import os
import subprocess
import sys
from pathlib import Path

from rscount import verify
from rscount.charclass import MAX_ESTIMATED_SECONDS, _polynomial_seconds

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).parent / "goldens"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Invoke the CLI the way a user would: as a fresh interpreter process.
    Its stdout and stderr are decoded without newline translation, so a
    carriage return it prints reaches the comparison."""
    env = dict(os.environ)
    parts = [str(REPO_ROOT / "src")]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    proc = subprocess.run([sys.executable, "-m", "rscount", *args],
                          capture_output=True, env=env, cwd=REPO_ROOT)
    proc.stdout, proc.stderr = proc.stdout.decode(), proc.stderr.decode()
    return proc


def readme_section(title: str) -> str:
    """The text of README's section ``## title``."""
    return (REPO_ROOT / "README.md").read_text().split(f"\n## {title}\n", 1)[1].split("\n## ")[0]


def golden(name: str) -> str:
    """The golden's bytes as text, with no newline translation."""
    return (GOLDEN_DIR / name).read_bytes().decode()


# Each golden's command line, by stem.  The name of a file in tests/goldens/
# says what the line of its stem must print: ``cli_<name>.json`` holds the
# line's exit code, stdout and stderr; any other ``<stem>.json`` holds its
# stdout, and ``<stem>.csv`` and ``<stem>.md`` its stdout with --format csv
# and --format markdown, and each of those exits 0 with nothing on stderr.
GOLDENS = {
    # Help and error texts, from a command's own parser on a line that starts
    # with it and from the top-level parser on any other line: the bytes must
    # be those of one parser with every command in full.
    "cli_help": ("--help",),
    "cli_help_before_command": ("-h", "compute"),
    **{f"cli_help_{command}": (command, "--help")
       for command in ("compute", "table", "verify", "search", "product")},
    "cli_no_command": (),
    "cli_unknown_command": ("bogus",),
    "cli_missing_flag": ("compute", "--complex-dim", "2"),
    "cli_unknown_flag": ("compute", "--bogus"),
    "cli_double_dash": ("--", "compute", "--complex-dim", "2", "--degrees", "4"),
    "cli_extra_positional": ("search", "--complex-dim", "2", "--threshold", "1", "extra"),
    # a named command's extra argument prints the top-level usage
    "cli_extra_compute": ("compute", "--degrees", "4", "--complex-dim", "2", "extra"),
    "cli_extra_product": ("product", "--complex-dim", "2", "--degrees", "4",
                          "--torus-dim", "1", "extra"),
    "cli_extra_table": ("table", "calabi-yau", "--max-m", "2", "extra"),
    "cli_extra_verify": ("verify", "closed-form", "--max-m", "2", "extra"),
    # a command named after the first argument
    "cli_quiet_before_command": ("--quiet", "compute", "--complex-dim", "2", "--degrees", "4"),
    "cli_unknown_flag_before_table": ("-x", "table", "calabi-yau", "--max-m", "2"),
    "cli_format_before_search": ("--format", "csv", "search", "--complex-dim", "2",
                                 "--threshold", "1"),
    "cli_unknown_flag_before_help": ("-x", "compute", "-h"),
    "cli_unknown_before_command": ("bogus", "compute"),
    # a line that starts with its command and ends in something unrecognized
    "cli_leading_unknown_verify": ("verify", "closed-form", "--max-m", "2", "--bogus"),
    "cli_leading_unknown_product": ("product", "--complex-dim", "2", "--degrees", "4",
                                    "--torus-dim", "1", "-x"),
    "cli_leading_command_after_table": ("table", "calabi-yau", "--max-m", "2", "search"),
    "compute_k3": ("compute", "--complex-dim", "2", "--degrees", "4"),
    # a JSON document with a nested meta
    "compute_k3_meta": ("compute", "--complex-dim", "2", "--degrees", "4", "--meta"),
    # a `;`-joined list cell
    "compute_m2_d2_3": ("compute", "--complex-dim", "2", "--degrees", "2", "3"),
    "table_parallel_spinors_28": ("table", "parallel-spinors", "--max-n", "28"),
    "table_calabi_yau_2": ("table", "calabi-yau", "--max-m", "2"),
    "table_calabi_yau_30": ("table", "calabi-yau", "--max-m", "30"),
    "verify_closed_form_30": ("verify", "closed-form", "--max-m", "30"),
    "verify_torus_inequality_10": ("verify", "torus-inequality", "--max-m", "10"),
    "verify_hypersurface_poly_4": ("verify", "hypersurface-poly", "--m", "4"),
    "verify_symmetric_poly_3_2": ("verify", "symmetric-poly", "--m", "3", "--r", "2"),
    # check names with commas, which CSV quotes
    "verify_symmetric_poly_4_2": ("verify", "symmetric-poly", "--m", "4", "--r", "2"),
    "search_m2_t1": ("search", "--complex-dim", "2", "--threshold", "1"),
    "search_m2_t100": ("search", "--complex-dim", "2", "--threshold", "100"),
    # tests/test_rsbounds.py checks this golden on the four-binomial closed form of P(a)
    "search_m8_t1e300": ("search", "--complex-dim", "8", "--threshold", str(10**300)),
    "product_m2_d6_k1": ("product", "--complex-dim", "2", "--degrees", "6", "--torus-dim", "1"),
    "product_m2_d4_k2": ("product", "--complex-dim", "2", "--degrees", "4", "--torus-dim", "2"),
}
GOLDEN_FILES = sorted(path.name for path in GOLDEN_DIR.iterdir())
_FORMAT_FLAGS = {".json": (), ".csv": ("--format", "csv"), ".md": ("--format", "markdown")}


def golden_case(name: str) -> tuple[list[str], tuple[int, str, str]]:
    """The command line of golden file ``name``, and the exit code, stdout
    and stderr it must end with, by the rule above ``GOLDENS``."""
    path = Path(name)
    argv = [*GOLDENS[path.stem], *_FORMAT_FLAGS[path.suffix]]
    if name.startswith("cli_"):
        captured = json.loads(golden(name))
        return argv, (captured["exit"], captured["stdout"], captured["stderr"])
    return argv, (0, golden(name), "")


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
