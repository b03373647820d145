"""What importing the package costs a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: prints the top-level modules ``import repro, repro.cli`` adds that are
#: neither loaded at interpreter start nor part of the standard library
#: (multiprocessing's ``__mp_main__`` is ``__main__`` under a second name)
PROBE = """
import sys
before = dict(sys.modules)
loaded = {id(module) for module in before.values()}
import repro, repro.cli
added = {name.partition(".")[0] for name, module in sys.modules.items()
         if name not in before and id(module) not in loaded}
print(sorted(added - set(sys.stdlib_module_names) - set(before) - {"repro"}))
"""


def test_importing_the_cli_loads_no_third_party_package_but_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert set(eval(out)) <= {"numpy"}, out
