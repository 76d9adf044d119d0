"""Dataset-wide scan: which of many sensors are correlated, and when?

The paper's energy study runs TYCOS over every pair of 72 plugs.  This
example reproduces that workflow on the simulated household: all device
pairs go through the prescreen cascade (cheap linear and coarse-MI
screens prune obviously unrelated pairs before any full search) and the
correlated pairs are ranked.

Run with::

    python examples/pairwise_scan.py
"""

from repro import TycosConfig
from repro.analysis import cascade_scan
from repro.data.energy import simulate_energy

data = simulate_energy(days=2, seed=0, minutes_per_sample=4, event_density=2.0)

# A subset of devices keeps the demo quick; drop the selection to scan all.
devices = ["clothes_washer", "dryer", "bathroom_light", "kitchen_light", "children_room_light"]
series = {name: data.series[name] for name in devices}

config = TycosConfig(
    sigma=0.3,
    s_min=20,
    s_max=180,
    td_max=10,
    jitter=1e-3,
    significance_permutations=10,
    seed=0,
)

# The cascade's default margin keeps the screens conservative, which
# sparse event data needs: a screen window may land between events.  On
# a multi-core machine, add n_jobs=-1 to fan the pairs over worker
# processes -- the report is byte-identical for every worker count.
report = cascade_scan(series, config)
print(report.to_text())
print()
resolution = data.minutes_per_sample
for finding in report.correlated():
    if finding.delay_range is not None:
        lo, hi = finding.delay_range
        print(f"{finding.source} leads {finding.target} by "
              f"{lo * resolution} to {hi * resolution} minutes")
