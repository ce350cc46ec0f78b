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
    clustering_accuracy,
    compute_eer,
    enqueue_batch,
    form_pairs,
    forward,
    init_encoder,
    norm_blowup_probe,
    score,
    score_grad,
    score_matrix,
    score_matrix_grad_left,
    score_rows,
    sgd_step,
    softmax_ce,
)
from pairsim.config import parse_config_json
from pairsim.data import _corner_means
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


def _corners_of_a_square():
    # four classes on a 2-cube need all four corners; seed 0's first four
    # draws repeat one, so the loop skips it and keeps drawing
    spec = GenSpec(family="hypercube_corners", num_classes=4, input_dim=2,
                   noise_scale=np.sqrt(2.0) / 4.0)
    first = Rng(0).stream(spec.family).stream("corners").integers(0, 2, size=(4, 2))
    assert len({tuple(row) for row in first}) < 4
    return sorted(map(tuple, _corner_means(Rng(0).stream(spec.family), spec).tolist()))


def _angular_grads(x1, x2):
    d1, d2, d_bt = score_grad(SimilarityKind("angular"), x1, x2)
    return d1.tolist(), d2.tolist(), d_bt


BRANCHES = {
    # scale = 4 * noise / sqrt(2) = 1, so the means are the sign rows
    "corner_means_skip_a_repeated_corner": (
        _corners_of_a_square, [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]),
    # the lowest score is the one positive's and a negative's: the EER
    # crossing lies between the -inf cut and the first midpoint, which it takes
    "eer_threshold_at_the_upper_cut": (
        lambda: compute_eer([0.0], [0.0, 1.0]), (pytest.approx(2 / 3, rel=1e-15), 0.5)),
    "far_floor_all_zero": (lambda: _far_floor([("a", [(0.0, 0.0), (0.0, 1.0)])]), 1e-3),
    # at cos = +-1 the angular slope 1/(pi sqrt(1 - cos^2)) is clamped to 0
    "angular_grad_parallel": (
        lambda: _angular_grads(np.array([3.0, 4.0]), np.array([6.0, 8.0])),
        ([0.0, 0.0], [0.0, 0.0], 0.0)),
    "angular_grad_antiparallel": (
        lambda: _angular_grads(np.array([3.0, 4.0]), np.array([-3.0, -4.0])),
        ([-0.0, -0.0], [-0.0, -0.0], 0.0)),
}


@pytest.mark.parametrize("name", list(BRANCHES))
def test_branch_value(name):
    call, want = BRANCHES[name]
    assert call() == want
