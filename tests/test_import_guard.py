"""The separation path loads numpy alone: no scipy module, from import to
``simulate`` -> ``separate`` -> ``evaluate`` through the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

seen = {}
import ggdilrma
seen["import ggdilrma"] = scipy_modules()
import ggdilrma.cli
seen["import ggdilrma.cli"] = scipy_modules()

work = sys.argv[1]
codes = [
    ggdilrma.cli.main(["simulate", "--out", f"{work}/scene/mix.wav", "--matrix", "1,0.6;0.5,1",
                       "--len-s", "1"]),
    ggdilrma.cli.main(["separate", "--input", f"{work}/scene/mix.wav", "--out-dir", f"{work}/est",
                       "--iters", "2", "--bases", "2"]),
    ggdilrma.cli.main(["evaluate", "--est", f"{work}/est", "--ref", f"{work}/scene",
                       "--mix", f"{work}/scene/mix.wav"]),
]
seen["cli simulate, separate, evaluate"] = scipy_modules()
print(json.dumps({"codes": codes, "scipy_modules": seen}))
"""


def test_no_scipy_module_is_loaded(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["scipy_modules"] == {point: [] for point in result["scipy_modules"]}
