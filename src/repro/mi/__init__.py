"""Mutual information substrate for TYCOS.

This package implements, from scratch, everything the TYCOS search needs to
quantify statistical dependence between two windows of time series data:

* :mod:`repro.mi.ksg` -- the Kraskov--Stoegbauer--Grassberger (KSG) k-nearest
  neighbor MI estimator (paper Eq. 2 / Eq. 3).
* :mod:`repro.mi.stacked` -- the one KSG kernel: every estimate, of one
  window or of a padded batch of mixed sizes, is a row of
  :func:`~repro.mi.stacked.ksg_mi_many`.
* :mod:`repro.mi.neighbors` -- the per-window reference that kernel is
  gated against: brute-force max-norm k-NN search plus marginal counting.
* :mod:`repro.mi.entropy` -- plug-in discrete entropy, binned continuous
  entropy and the Kozachenko--Leonenko differential entropy estimator.
* :mod:`repro.mi.normalized` -- the normalized MI of paper Eq. (18) used to
  set the correlation threshold sigma on a [0, 1] scale.
* :mod:`repro.mi.discrete` -- exact plug-in discrete MI (paper Eq. 1).
* :mod:`repro.mi.mixture` -- mixture distributions (Def. 6.1) and empirical
  verification helpers for the noise theorem (Theorem 6.1).
* :mod:`repro.mi.incremental` -- the Section 7 incremental KSG engine based
  on influenced regions (IR) and influenced marginal regions (IMR).
* :mod:`repro.mi.digamma` -- the process-wide integer digamma lookup table
  every estimator draws from, a cephes port checked bit for bit against
  scipy (whose digamma it calls only in the tests' reference,
  :func:`~repro.mi.digamma.digamma_direct`).
* :mod:`repro.mi.histogram` / :mod:`repro.mi.kde` -- the classical MI
  estimators the paper's Section 3.1 compares KSG against.
"""

from repro.mi.digamma import DigammaTable, digamma_direct, shared_digamma_table
from repro.mi.discrete import discrete_entropy_from_joint, discrete_mi, empirical_joint
from repro.mi.entropy import binned_joint_entropy, discrete_entropy, kl_entropy
from repro.mi.histogram import histogram_mi
from repro.mi.incremental import SlidingKSG
from repro.mi.kde import kde_mi
from repro.mi.ksg import KSGEstimator, ksg_mi
from repro.mi.mixture import mix_samples, theorem61_gap
from repro.mi.neighbors import (
    MarginalIndex,
    PairDistanceWorkspace,
    chebyshev_knn_bruteforce,
    marginal_counts,
)
from repro.mi.normalized import normalized_mi

__all__ = [
    "KSGEstimator",
    "ksg_mi",
    "DigammaTable",
    "digamma_direct",
    "shared_digamma_table",
    "MarginalIndex",
    "histogram_mi",
    "kde_mi",
    "SlidingKSG",
    "PairDistanceWorkspace",
    "chebyshev_knn_bruteforce",
    "marginal_counts",
    "discrete_entropy",
    "binned_joint_entropy",
    "kl_entropy",
    "discrete_mi",
    "discrete_entropy_from_joint",
    "empirical_joint",
    "mix_samples",
    "theorem61_gap",
    "normalized_mi",
]
