"""Error paths and rare branches that no other test reaches, one table row each.

Every error row names the call, the exception type and a fragment of its
message; every branch row names the call and the value that branch gives.
"""

import numpy as np
import pytest

from pairsim import (
    FeatureQueue,
    GenSpec,
    RunLog,
    SgdConfig,
    SimilarityKind,
    TrainConfig,
    backward,
    cluster_by_threshold,
    clustering_accuracy,
    compute_eer,
    enqueue_batch,
    form_pairs,
    forward,
    init_encoder,
    norm_blowup_probe,
    score,
    score_matrix,
    score_matrix_grad_left,
    score_rows,
    sgd_step,
    softmax_ce,
)
from pairsim.config import parse_config_json
from pairsim.errors import ConfigError, DegenerateInputError, ShapeError
from pairsim.numkit import Rng, as_matrix, unit_rows
from pairsim.plotting import _far_floor


def _backward_with_wrong_grad_shape():
    net = init_encoder([3, 4, 2], Rng(0), "tanh")
    _, cache = forward(net, np.ones((5, 3)))
    backward(net, cache, np.ones((5, 3)))


def _queue():
    queue = FeatureQueue(4, 3)
    enqueue_batch(queue, np.ones((2, 3)), [0, 1])
    return queue


GI = SimilarityKind()

ERRORS = {
    "ce_labels_shape": (
        lambda: softmax_ce(np.eye(3), np.ones((2, 3)), [0, 1, 2]),
        ShapeError, "2 feature rows but labels of shape (3,)"),
    "blowup_probe_no_epochs": (
        lambda: norm_blowup_probe(RunLog()), DegenerateInputError, "run log holds no epochs"),
    "json_int_key": (
        lambda: parse_config_json({"seed": "7"}), ConfigError, "'seed' expects int, got '7'"),
    "json_float_key": (
        lambda: parse_config_json({"loss.r": "3"}), ConfigError,
        "'loss.r' expects float, got '3'"),
    "json_float_key_bool": (
        lambda: parse_config_json({"loss.r": True}), ConfigError,
        "'loss.r' expects float, got True"),
    "json_str_key": (
        lambda: parse_config_json({"train.method": 3}), ConfigError,
        "'train.method' expects str, got 3"),
    "json_strs_key_list": (
        lambda: parse_config_json({"plot.reports": ["a.json", 2]}), ConfigError,
        "'plot.reports' expects str, got 2"),
    "genspec_input_dim": (
        lambda: GenSpec(input_dim=0), ConfigError, "input_dim must be >= 1"),
    "backward_shape": (
        _backward_with_wrong_grad_shape, ShapeError,
        "grad_features shape (5, 3) does not match forward output"),
    "sgd_step_shape": (
        lambda: sgd_step(np.zeros(4), np.zeros(3), SgdConfig(), np.zeros(4)), ShapeError,
        "gradient shape (3,) does not match parameters (4,)"),
    "accuracy_lengths": (
        lambda: clustering_accuracy([0, 1], [0, 1, 1]), ShapeError,
        "predicted and truth label lengths differ"),
    "cluster_features_1d": (
        lambda: cluster_by_threshold(np.ones(3), GI, 0.5), ShapeError,
        "features must be an (n, d) matrix, got shape (3,)"),
    "cluster_features_3d": (
        lambda: cluster_by_threshold(np.ones((2, 3, 4)), GI, 0.5), ShapeError,
        "features must be an (n, d) matrix, got shape (2, 3, 4)"),
    "accuracy_empty": (
        lambda: clustering_accuracy([], []), DegenerateInputError, "no labels to score"),
    "as_matrix_1d": (
        lambda: as_matrix(np.ones(3)), ShapeError, "expected a 2-D matrix, got ndim=1"),
    "unit_rows_zero_row": (
        lambda: unit_rows(np.array([[1.0, 0.0], [0.0, 0.0]]), "feature vector"),
        DegenerateInputError, "cannot normalize a zero feature vector"),
    "queue_capacity": (
        lambda: FeatureQueue(0, 3), ConfigError, "queue capacity must be >= 1, got 0"),
    "queue_d_feat": (
        lambda: FeatureQueue(4, 0), ConfigError, "feature dimension must be >= 1, got 0"),
    "enqueue_labels": (
        lambda: enqueue_batch(FeatureQueue(4, 3), np.ones((2, 3)), [0, 1, 2]), ShapeError,
        "2 feature rows but 3 labels"),
    "enqueue_d_feat": (
        lambda: enqueue_batch(FeatureQueue(4, 3), np.ones((2, 2)), [0, 1]), ShapeError,
        "queue holds 3-dim features, got 2-dim"),
    "form_pairs_labels": (
        lambda: form_pairs(_queue(), np.ones((2, 3)), [0], GI), ShapeError,
        "2 feature rows but 1 labels"),
    "score_shapes": (
        lambda: score(GI, np.ones(3), np.ones(2)), ShapeError,
        "score expects equal-length vectors, got (3,) and (2,)"),
    "score_matrix_shapes": (
        lambda: score_matrix(GI, np.ones((2, 3)), np.ones((2, 2))), ShapeError,
        "score_matrix expects (m,d) and (n,d), got (2, 3) and (2, 2)"),
    "score_rows_shapes": (
        lambda: score_rows(GI, np.ones((2, 3)), np.ones((3, 3))), ShapeError,
        "score_rows expects equal (n,d) shapes, got (2, 3) and (3, 3)"),
    "grad_left_shapes": (
        lambda: score_matrix_grad_left(GI, np.ones((2, 3)), np.ones((4, 3)), np.ones((2, 3))),
        ShapeError, "d_scores shape (2, 3) does not match (2, 4)"),
    # a caller-supplied norm of the wrong shape is named, whatever the kind
    "score_matrix_na_shape": (
        lambda: score_matrix(GI, np.ones((2, 3)), np.ones((4, 3)), na=np.ones(3)), ShapeError,
        "na has shape (3,), expected (2,)"),
    "score_matrix_na_column": (
        lambda: score_matrix(GI, np.ones((2, 3)), np.ones((4, 3)), na=np.ones((2, 1))),
        ShapeError, "na has shape (2, 1), expected (2,)"),
    "score_matrix_na_inner": (
        lambda: score_matrix(SimilarityKind("inner"), np.ones((2, 3)), np.ones((4, 3)),
                             na=np.ones(3)),
        ShapeError, "na has shape (3,), expected (2,)"),
    "score_matrix_qn_shape": (
        lambda: score_matrix(GI, np.ones((2, 3)), np.ones((4, 3)), qn=np.ones((4, 3))),
        ShapeError, "qn has shape (4, 3), expected (4, 4)"),
    "score_matrix_qn_cosine": (
        lambda: score_matrix(SimilarityKind("cosine"), np.ones((2, 3)), np.ones((4, 3)),
                             qn=np.ones((3, 4))),
        ShapeError, "qn has shape (3, 4), expected (4, 4)"),
    "grad_left_na_shape": (
        lambda: score_matrix_grad_left(GI, np.ones((2, 3)), np.ones((4, 3)), np.ones((2, 4)),
                                       na=np.ones(4)),
        ShapeError, "na has shape (4,), expected (2,)"),
    "grad_left_qn_shape": (
        lambda: score_matrix_grad_left(GI, np.ones((2, 3)), np.ones((4, 3)), np.ones((2, 4)),
                                       qn=np.ones((4, 5))),
        ShapeError, "qn has shape (4, 5), expected (4, 4)"),
    "form_pairs_batch_norms_column": (
        lambda: form_pairs(_queue(), np.ones((2, 3)), [0, 1], GI, batch_norms=np.ones((2, 1))),
        ShapeError, "batch_norms has shape (2, 1), expected (2,)"),
    "form_pairs_batch_norms_length": (
        lambda: form_pairs(_queue(), np.ones((2, 3)), [0, 1], GI, batch_norms=np.ones(3)),
        ShapeError, "batch_norms has shape (3,), expected (2,)"),
    "train_batch_size": (
        lambda: TrainConfig(batch_size=0), ConfigError, "batch_size must be >= 1, got 0"),
    "train_queue_capacity": (
        lambda: TrainConfig(queue_capacity=0), ConfigError,
        "queue_capacity must be >= 1, got 0"),
    "train_eta": (
        lambda: TrainConfig(eta=1.5), ConfigError, "eta must lie in [0, 1], got 1.5"),
    "train_lr_warmup_steps": (
        lambda: TrainConfig(lr_warmup_steps=-1), ConfigError,
        "lr_warmup_steps must be >= 0, got -1"),
    "train_lr_decay_factor": (
        lambda: TrainConfig(lr_decay_factor=0.0), ConfigError,
        "lr_decay_factor must lie in (0, 1], got 0.0"),
}


@pytest.mark.parametrize("name", list(ERRORS))
def test_error_path(name):
    call, error, fragment = ERRORS[name]
    with pytest.raises(error) as err:
        call()
    assert fragment in str(err.value)


BRANCHES = {
    # the lowest score is the one positive's and a negative's: the EER
    # crossing lies between the -inf cut and the first midpoint, which it takes
    "eer_threshold_at_the_upper_cut": (
        lambda: compute_eer([0.0], [0.0, 1.0]), (pytest.approx(2 / 3, rel=1e-15), 0.5)),
    "far_floor_all_zero": (lambda: _far_floor([("a", [(0.0, 0.0), (0.0, 1.0)])]), 1e-3),
}


@pytest.mark.parametrize("name", list(BRANCHES))
def test_branch_value(name):
    call, want = BRANCHES[name]
    assert call() == want
