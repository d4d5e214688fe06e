"""Start-up gate: what each ``ctp`` command and each module loads.

The paper runs the exploration as one ``ctp`` process per strategy and
quality metric, so every run pays for what its command imports. Each row
imports a module, or runs a command line as ``ctp`` does, in a fresh
interpreter, and fails if a module it names was loaded. Every supported
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
# traceback). tempfile and threading are not listed: a site that processes
# a certifi .pth file loads them before any command starts.
NEVER_LOADED = frozenset({
    "numpy", "scipy", "statistics", "fractions", "decimal", "dataclasses", "inspect",
    "concurrent", "logging", "queue", "shlex", "string", "traceback",
})

# "import M" imports module M; "ctp ARGS" runs the command line, where
# {out} names a new directory and {registry}, {table} and {run} the inputs.
ROWS = {
    "import-cli": ("import ctpdse.cli", NEVER_LOADED | {"csv"}),
    "import-engine": ("import ctpdse.engine", NEVER_LOADED | {"csv"}),
    "import-evaluators": ("import ctpdse.evaluators", NEVER_LOADED | {"csv"}),
    "import-curves": ("import ctpdse.curves", NEVER_LOADED | {"csv", "subprocess"}),
    "import-stats": ("import ctpdse.stats", NEVER_LOADED | {"csv", "subprocess"}),
    "import-pareto": ("import ctpdse.pareto", NEVER_LOADED | {"csv", "subprocess"}),
    "import-profiles": ("import ctpdse.profiles", NEVER_LOADED | {"csv", "subprocess"}),
    "import-manifest": ("import ctpdse.manifest", NEVER_LOADED | {"csv", "subprocess"}),
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


@pytest.mark.parametrize("row", ROWS)
def test_loads_none_of_its_absent_modules(row, inputs, tmp_path):
    line, absent = ROWS[row]
    kind, _, rest = line.partition(" ")
    if kind == "import":
        source, args = line, []
    else:
        source = RUN_CTP
        args = [arg.format(out=tmp_path / "out", **inputs) for arg in rest.split()]
    env = dict(os.environ, PYTHONPATH=str(Path(ctpdse.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", CHILD.format(source), *args], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    # A package's name stands for all of it: "concurrent" covers concurrent.futures.
    names = run.stdout.splitlines()[-1].split()
    loaded = {name.partition(".")[0] for name in names}.union(names)
    assert sorted(absent & loaded) == []
