"""Experiment harness: one runner per table / figure of the paper.

========  ===========================================  =======================
Artifact  What it shows                                Runner
========  ===========================================  =======================
Table 1   relation types identified per method         :func:`run_table1`
Table 2   parameter presets                            ``repro.core.config``
Table 3   correlations extracted from real-world sims  :func:`run_table3`
Table 4   accuracy of TYCOS_L / TYCOS_LN               :func:`run_table4`
Fig 9     runtime of the four TYCOS variants           :func:`run_fig9`
Fig 10    Brute Force / MatrixProfile / TYCOS_LMN      :func:`run_fig10`
Fig 11    noise-threshold sweep (error, runtime gain)  :func:`run_fig11`
Fig 12    accuracy vs runtime-gain trade-off           :func:`run_fig12`
Fig 13    effect of sigma, s_max, td_max               ``run_fig13_*``
========  ===========================================  =======================
"""

from typing import List

# Runners load on demand (``from repro.experiments.table1 import
# run_table1``), so importing one grading helper such as
# ``repro.experiments.similarity`` does not pull in every experiment.
__all__: List[str] = []
