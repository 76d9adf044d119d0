"""A cold start loads only what a search and a scan use.

Every ``tycos-scan`` or ``tycos-search`` call, test process and
spawn-started pool worker pays for the modules ``import repro`` pulls in.
scipy is needed only by the KL entropy estimator and by the digamma
reference the table is checked against, and the experiment harness only
by ``tycos-experiments``, so neither may load on the search or scan path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """
import json
import sys

import numpy as np

import repro
import repro.analysis
from repro import Tycos, TycosConfig
from repro.analysis import cascade_scan

rng = np.random.default_rng(0)
n = 200
base = np.cumsum(rng.normal(size=n))
x = base + 0.1 * rng.normal(size=n)
y = np.roll(base, 3) + 0.1 * rng.normal(size=n)
config = TycosConfig(sigma=0.3, s_min=8, s_max=40, td_max=6, jitter=1e-6)
result = Tycos(config).search(x, y)
series = {
    "x": x,
    "y": y,
    "walk": np.cumsum(rng.normal(size=n)),
    "noise": rng.normal(size=n),
}
report = cascade_scan(series, config, screen_window=120)
loaded = sorted(
    name
    for name in sys.modules
    if name.split(".")[0] == "scipy" or name.startswith("repro.experiments")
)
print(json.dumps({
    "windows": len(result.windows),
    "screened": report.pairs_screened,
    "searched": report.pairs_searched,
    "loaded": loaded,
}))
"""


def test_search_and_scan_load_neither_scipy_nor_the_experiment_harness():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    outcome = json.loads(completed.stdout.strip().splitlines()[-1])
    # The child really searched and scanned: the coupled pair yields
    # windows, and the cascade screened all six pairs.
    assert outcome["windows"] > 0
    assert outcome["screened"] == 6
    assert outcome["searched"] >= 1
    assert outcome["loaded"] == []
