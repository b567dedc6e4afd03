"""Robust survival modeling with certified input-perturbation bounds.

A small feedforward network parameterizes the log relative risk of an
exponential proportional-hazard model.  The package trains that model under
clean, noise-augmented, gradient-attacked, and certified-robust objectives,
bounds its output over l-inf input balls, and evaluates concordance,
integrated Brier score, and negative log likelihood across perturbation
sweeps.
"""

__version__ = "0.1.0"

from .network import (AdamState, Network, ParamGrads, adam_step, backward,
                      forward, init_adam, init_network)
from .bounds import (LayerBounds, PerturbationSet, ScalarBounds,
                     crown_ibp_bounds, ibp_bounds, worst_case_hazard)
from .survival import (StepCurve, hazard, km_estimator, log_pdf, log_survival,
                       population_curve, survival, survival_quantiles)
from .losses import (LossBreakdown, certified_upper_loss, combined_loss,
                     fgsm_perturb, loglik, noise_perturb, pgd_perturb,
                     rank_loss, sawar_loss)
from .data import (Batch, FeatureCodec, RawDataset, SplitDataset, apply_codec,
                   fit_codec, load_csv, split_indices, stratified_split)
from .training import (TrainConfig, TrainReport, eps_schedule,
                       load_checkpoint, save_checkpoint, train)
from .metrics import (MetricRecord, RankTable, attack_sweep, average_ranks,
                      brier_ipcw, censoring_km, concordance_index,
                      friedman_test, integrated_brier, relative_percent_change)

__all__ = [name for name in dir() if not name.startswith("_")]
