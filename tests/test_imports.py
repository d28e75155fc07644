"""What `import conwaykit` and the CLI load.

Each check runs in a fresh interpreter: this one has long since imported
dataclasses (pytest uses it) and every conwaykit module.  SCRIPT is a
standalone program: it needs only conwaykit on the path, not pytest.
"""

import os
import subprocess
import sys
from pathlib import Path

import conwaykit

SCRIPT = r'''
import sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "conwaykit")

import conwaykit
import conwaykit.cli

assert conwaykit.cli.main(["conway", "--pd", "X(1,4,2,5);X(3,6,4,1);X(5,2,6,3)"]) == 0
engine = ["conwaykit", "conwaykit.cli", "conwaykit.diagram", "conwaykit.poly",
          "conwaykit.skein"]
assert loaded() == engine, loaded()
assert "dataclasses" not in sys.modules

conwaykit.load_table()
assert loaded() == sorted(engine + ["conwaykit.table"]), loaded()
assert "dataclasses" not in sys.modules

assert set(conwaykit.__all__) <= set(dir(conwaykit))
for name in conwaykit.__all__:
    getattr(conwaykit, name)
namespace = {}
exec("from conwaykit import *", namespace)
missing = set(conwaykit.__all__) - set(namespace)
assert not missing, missing
print("import hygiene ok")
'''


# The lazy submodules are package attributes too, as `import conwaykit`
# bound them before they became lazy.
SUBMODULES = r'''
import conwaykit

assert "table" not in vars(conwaykit) and "verify" not in vars(conwaykit)
assert conwaykit.table.load_table is conwaykit.load_table
assert conwaykit.verify.run_all is conwaykit.run_all
assert conwaykit.verify.VerifyConfig is conwaykit.VerifyConfig
print("submodules ok")
'''


# The verify harness runs without dataclasses too: its reports are
# NamedTuples, and the CLI prints them through _asdict().
VERIFY = r'''
import sys

import conwaykit
import conwaykit.cli

# the sweeps cut short, as the tests' small_sweeps fixture does
conwaykit.verify.THEOREM_MAX_N = 2
conwaykit.verify.DIAGRAM_SAMPLES = 3
conwaykit.verify.PAIR_SAMPLES = 2
config = conwaykit.VerifyConfig(max_n=2, max_l=2, max_r=2)
assert all(r.passed for r in conwaykit.run_all(config))
assert "dataclasses" not in sys.modules
print("verify ok")
'''


# The table's path needs no importlib.resources.  -S skips the site
# module and the .pth files it runs, one of which may import it first.
TABLE_PATH = r'''
import sys

import conwaykit

conwaykit.load_table()
assert "importlib.resources" not in sys.modules
print("table path ok")
'''


# The table is read as UTF-8 whatever the locale: under
# -X warn_default_encoding a read that names no encoding warns, and the -W
# filter makes that warning an error.
TABLE_ENCODING = r'''
import conwaykit

conwaykit.load_table()
print("table encoding ok")
'''


def _run(script: str, *flags: str) -> str:
    src = str(Path(conwaykit.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_engine_commands_load_only_the_engine():
    assert _run(SCRIPT) == "1+z^2\nimport hygiene ok\n"


def test_lazy_submodules_resolve_as_attributes():
    assert _run(SUBMODULES) == "submodules ok\n"


def test_verify_harness_loads_no_dataclasses():
    assert _run(VERIFY) == "verify ok\n"


def test_table_path_loads_no_importlib_resources():
    assert _run(TABLE_PATH, "-S") == "table path ok\n"


def test_table_read_names_its_encoding():
    flags = ("-X", "warn_default_encoding", "-W", "error::EncodingWarning")
    assert _run(TABLE_ENCODING, *flags) == "table encoding ok\n"
