"""Robust survival modeling with certified input-perturbation bounds.

A small feedforward network parameterizes the log relative risk of an
exponential proportional-hazard model.  The package trains that model under
clean, noise-augmented, gradient-attacked, and certified-robust objectives,
bounds its output over l-inf input balls, and evaluates concordance,
integrated Brier score, and negative log likelihood across perturbation
sweeps.
"""

__version__ = "0.1.0"

from .network import (AdamState, Network, ParamGrads, adam_step, init_adam,
                      init_network)
from .survival import (StepCurve, hazard, km_estimator, population_curve,
                       survival_quantiles)
from .losses import (LossBreakdown, combined_loss, fgsm_perturb, noise_perturb,
                     pgd_perturb)
from .data import (Batch, FeatureCodec, RawDataset, SplitDataset, apply_codec,
                   fit_codec, load_csv, split_indices, stratified_split)
from .training import (TrainConfig, TrainReport, eps_schedule,
                       load_checkpoint, save_checkpoint, train)
from .metrics import (MetricRecord, RankTable, attack_sweep, average_ranks,
                      brier_ipcw, censoring_km, concordance_index,
                      friedman_test, integrated_brier)

__all__ = [name for name in dir() if not name.startswith("_")]
