"""Evaluation metrics for learned generative policy models.

Used by the benchmark harness to produce the learning curves of
experiment E5 (symbolic vs shallow ML) and the recovery rates of
E3/E4 (XACML case study).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["confusion", "accuracy", "precision_recall_f1", "learning_curve"]


def confusion(
    predictions: Sequence[bool], labels: Sequence[bool]
) -> Dict[str, int]:
    """Confusion counts for boolean predictions against boolean labels."""
    if len(predictions) != len(labels):
        raise ValueError("predictions and labels differ in length")
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for predicted, actual in zip(predictions, labels):
        if predicted and actual:
            counts["tp"] += 1
        elif predicted and not actual:
            counts["fp"] += 1
        elif not predicted and not actual:
            counts["tn"] += 1
        else:
            counts["fn"] += 1
    return counts


def accuracy(predictions: Sequence[bool], labels: Sequence[bool]) -> float:
    """Fraction of predictions matching labels (1.0 on empty input)."""
    if not labels:
        return 1.0
    counts = confusion(predictions, labels)
    return (counts["tp"] + counts["tn"]) / len(labels)


def precision_recall_f1(
    predictions: Sequence[bool], labels: Sequence[bool]
) -> Tuple[float, float, float]:
    """Precision, recall and F1 of the positive class."""
    counts = confusion(predictions, labels)
    tp, fp, fn = counts["tp"], counts["fp"], counts["fn"]
    precision = tp / (tp + fp) if tp + fp else 1.0
    recall = tp / (tp + fn) if tp + fn else 1.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return precision, recall, f1


def learning_curve(
    train_and_predict: Callable[[int], Sequence[bool]],
    labels: Sequence[bool],
    sample_sizes: Sequence[int],
) -> List[Tuple[int, float]]:
    """Accuracy at each training-set size.

    ``train_and_predict(n)`` must train on the first ``n`` examples of
    the caller's training pool and return test-set predictions aligned
    with ``labels``.
    """
    curve: List[Tuple[int, float]] = []
    for n in sample_sizes:
        predictions = train_and_predict(n)
        curve.append((n, accuracy(predictions, labels)))
    return curve
