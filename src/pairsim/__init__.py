"""pairsim: pairwise similarity learning on a desk-scale synthetic task.

A small numpy library covering the full loop: feature encoder with manual
backprop, generalized inner-product similarity, pair-classification losses
with reverse-direction hard mining, a momentum-encoder feature queue for pair
construction, verification metrics (EER, TPR@FAR, ROC), threshold clustering,
and a deterministic trainer with ablation sweeps.
"""

from .errors import ConfigError, DegenerateInputError, ParseError, ShapeError
from .similarity import (
    SimilarityKind,
    score,
    score_grad,
    score_matrix,
    score_matrix_grad_left,
    score_rows,
    decision_boundary,
)
from .losses import LossConfig, PairBatch, pair_loss, pair_loss_grad, batch_loss, mining_curves
from .encoder import (
    EncoderNet,
    SgdConfig,
    init_encoder,
    forward,
    backward,
    sgd_step,
    ema_update,
    save_encoder,
    load_encoder,
)
from .pair_queue import FeatureQueue, enqueue_batch, form_pairs, pos_neg_ratio
from .data import (
    Dataset,
    GenSpec,
    generate,
    split,
    save_csv,
    load_csv,
)
from .evaluation import (
    sample_pair_indices,
    score_pairs,
    compute_eer,
    tpr_at_far,
    roc_points,
    desideratum_audit,
    cluster_by_threshold,
    clustering_accuracy,
    evaluate,
    report_to_json,
)
from .baselines import (
    init_proxy_bank,
    proxy_gip_ce,
    norm_blowup_probe,
)
from .trainer import (
    TrainConfig,
    RunLog,
    train,
    encode,
    final_report,
    save_runlog,
    ablate,
    ablate_csv,
)
from .gradcheck import component_checks
from .plotting import render_roc_svg
from .numkit import Rng, softplus, sigmoid

__version__ = "0.1.0"
