"""Start-up gate: what each ``ctp`` command and each module loads.

The paper runs the exploration as one ``ctp`` process per strategy and
quality metric, so every run pays for what its command imports. Each row
imports a module, or runs a command line as ``ctp`` does, in a fresh
interpreter, and fails if a module it names was loaded. The interpreter
runs with ``-S``, without ``site``, so that what an installation's
``.pth`` files or ``sitecustomize`` import is not charged to ``ctp``; the
package comes from ``PYTHONPATH``, which ``-S`` keeps. Every supported
Python runs this file, so it imports only the standard library, pytest,
the package and the shared fixtures.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctpdse
from ctpdse import cli

from conftest import gated_table

# Loaded by no row: the numeric libraries, the exact-arithmetic modules
# that stats does without, the dataclass machinery, and the external
# backend's job machinery (concurrent.futures brings logging, queue and
# traceback, and each profile's jobs run in a tempfile directory).
NEVER_LOADED = frozenset({
    "numpy", "scipy", "statistics", "fractions", "decimal", "dataclasses", "inspect",
    "concurrent", "logging", "queue", "shlex", "string", "traceback", "tempfile",
})
# The absent set of a module that does not import ctpdse.evaluators: csv,
# and the subprocess and threading that evaluators loads for the external
# backend.
WITHOUT_EVALUATORS = NEVER_LOADED | {"csv", "subprocess", "threading"}

# "import M" imports module M; "ctp ARGS" runs the command line, where
# {out} names a new directory and {registry}, {table} and {run} the inputs.
ROWS = {
    "import-cli": ("import ctpdse.cli", NEVER_LOADED | {"csv"}),
    "import-engine": ("import ctpdse.engine", NEVER_LOADED | {"csv"}),
    "import-evaluators": ("import ctpdse.evaluators", NEVER_LOADED | {"csv"}),
    "import-curves": ("import ctpdse.curves", WITHOUT_EVALUATORS),
    "import-stats": ("import ctpdse.stats", WITHOUT_EVALUATORS),
    "import-pareto": ("import ctpdse.pareto", WITHOUT_EVALUATORS),
    "import-profiles": ("import ctpdse.profiles", WITHOUT_EVALUATORS),
    "import-manifest": ("import ctpdse.manifest", WITHOUT_EVALUATORS),
    "dse-synthetic": ("ctp dse --strategy ea --backend synthetic --seed 7 --out {out}",
                      NEVER_LOADED | {"csv"}),
    "bd": ("ctp bd --anchor 7 --test 6 --test 3 --measurements {table} --registry {registry}",
           NEVER_LOADED),
    "dse-cached": ("ctp dse --strategy e1 --backend cached --max-iter 1 --measurements {table} "
                   "--registry {registry} --out {out}", NEVER_LOADED),
    "pareto-run": ("ctp pareto --points {run}", NEVER_LOADED | {"csv"}),
    "pareto-csv": ("ctp pareto --points {run}/points.csv --out {out}", NEVER_LOADED),
}

# Runs the row, then prints the name of every loaded module.
CHILD = "import sys\n{}\nprint(*sys.modules)"
RUN_CTP = "from ctpdse import cli\nif cli.main(sys.argv[1:]):\n    sys.exit('ctp failed')"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The gated table and its registry, and a synthetic run directory."""
    base = tmp_path_factory.mktemp("inputs")
    registry, table = gated_table(base)
    run = base / "run"
    assert cli.main(["dse", "--strategy", "ea", "--backend", "synthetic", "--seed", "7",
                     "--out", str(run)]) == 0
    return {"registry": registry, "table": table, "run": str(run)}


def absent_but_loaded(row, inputs, out, path=()):
    """The modules of ``row``'s absent set that its child loads.

    The directories in ``path`` come before the package on the child's
    ``PYTHONPATH``.
    """
    line, absent = ROWS[row]
    kind, _, rest = line.partition(" ")
    if kind == "import":
        source, args = line, []
    else:
        source = RUN_CTP
        args = [arg.format(out=out, **inputs) for arg in rest.split()]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [*map(str, path), str(Path(ctpdse.__file__).parents[1])]))
    run = subprocess.run([sys.executable, "-S", "-c", CHILD.format(source), *args], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    # A package's name stands for all of it: "concurrent" covers concurrent.futures.
    names = run.stdout.splitlines()[-1].split()
    loaded = {name.partition(".")[0] for name in names}.union(names)
    return sorted(absent & loaded)


@pytest.mark.parametrize("row", ROWS)
def test_loads_none_of_its_absent_modules(row, inputs, tmp_path):
    assert absent_but_loaded(row, inputs, tmp_path / "out") == []


def test_what_site_imports_is_not_charged_to_ctp(tmp_path):
    # An installation's sitecustomize runs before any command when site does.
    site_dir = tmp_path / "site"
    site_dir.mkdir()
    (site_dir / "sitecustomize.py").write_text("import inspect\n")
    assert absent_but_loaded("import-cli", {}, tmp_path / "out", [site_dir]) == []
