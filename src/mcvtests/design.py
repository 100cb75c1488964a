"""Contrast matrices for k-sample and crossed factorial hypotheses.

Subgroups of a factorial layout are ordered lexicographically with the LAST
factor varying fastest; data files must list groups in that order for the
factorial builders to encode the intended effects.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

__all__ = [
    "ContrastMatrix",
    "FactorLayout",
    "centering_matrix",
    "contrast_from_csv",
    "contrast_to_csv",
    "dunnett_contrasts",
    "factorial_effect_matrix",
    "tukey_contrasts",
    "validate_contrast",
]

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ContrastMatrix:
    """An r x k matrix whose rows sum to zero, one labelled contrast per row."""

    h: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        h = np.atleast_2d(np.asarray(self.h, dtype=float))
        if h.shape[0] < 1:
            raise ValueError("contrast matrix needs at least one row")
        if not np.all(np.isfinite(h)):
            raise ValueError("contrast matrix contains non-finite entries")
        sums = h.sum(axis=1)
        bad = np.nonzero(np.abs(sums) > ROW_SUM_TOL)[0]
        if bad.size:
            raise ValueError(f"contrast row {bad[0]} sums to {sums[bad[0]]:.3e}, not zero")
        zero = np.nonzero(np.all(h == 0.0, axis=1))[0]
        if zero.size:
            raise ValueError(f"contrast row {zero[0]} is identically zero")
        labels = self.labels or tuple(f"c{i + 1}" for i in range(h.shape[0]))
        if len(labels) != h.shape[0]:
            raise ValueError("number of labels must match number of rows")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def r(self) -> int:
        return self.h.shape[0]

    @property
    def k(self) -> int:
        return self.h.shape[1]


def validate_contrast(h: np.ndarray, labels: tuple[str, ...] | None = None) -> ContrastMatrix:
    """Wrap a raw matrix after checking the contrast invariants."""
    return ContrastMatrix(np.asarray(h, dtype=float), tuple(labels) if labels else ())


def centering_matrix(k: int) -> np.ndarray:
    """The projection I_k - J_k / k removing the common level of k groups."""
    if k < 2:
        raise ValueError(f"need at least two groups, got k={k}")
    return np.eye(k) - np.full((k, k), 1.0 / k)


def tukey_contrasts(k: int, names: tuple[str, ...] | None = None) -> ContrastMatrix:
    """All-pairs comparisons: one row per pair (i, j), i < j, with -1 at i and +1 at j."""
    if k < 2:
        raise ValueError(f"need at least two groups, got k={k}")
    names = names or tuple(str(i + 1) for i in range(k))
    rows, labels = [], []
    for i in range(k):
        for j in range(i + 1, k):
            row = np.zeros(k)
            row[i], row[j] = -1.0, 1.0
            rows.append(row)
            labels.append(f"{names[i]}-{names[j]}")
    return ContrastMatrix(np.array(rows), tuple(labels))


def dunnett_contrasts(k: int, names: tuple[str, ...] | None = None) -> ContrastMatrix:
    """Many-to-one comparisons against group 1: row j has -1 at 1 and +1 at j+1."""
    if k < 2:
        raise ValueError(f"need at least two groups, got k={k}")
    names = names or tuple(str(i + 1) for i in range(k))
    rows, labels = [], []
    for j in range(1, k):
        row = np.zeros(k)
        row[0], row[j] = -1.0, 1.0
        rows.append(row)
        labels.append(f"{names[0]}-{names[j]}")
    return ContrastMatrix(np.array(rows), tuple(labels))


@dataclass(frozen=True)
class FactorLayout:
    """Named crossed factors with level counts; k is their product."""

    factors: tuple[str, ...]
    levels: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.factors) != len(self.levels) or not self.factors:
            raise ValueError("factors and levels must be non-empty and of equal length")
        if len(set(self.factors)) != len(self.factors):
            raise ValueError("factor names must be unique")
        if any(lv < 2 for lv in self.levels):
            raise ValueError("every factor needs at least two levels")

    @property
    def k(self) -> int:
        return prod(self.levels)


def factorial_effect_matrix(layout: FactorLayout, effect: tuple[str, ...]) -> ContrastMatrix:
    """Effect matrix for a main or interaction effect in a crossed layout.

    Kronecker product over the layout's factors in order: the centering
    matrix for factors in the effect, the averaging row (1/levels) * 1 for
    the rest.
    """
    if not effect:
        raise ValueError("effect must name at least one factor")
    unknown = set(effect) - set(layout.factors)
    if unknown:
        raise ValueError(f"unknown factor(s) {sorted(unknown)}; layout has {layout.factors}")
    h = np.ones((1, 1))
    for name, lv in zip(layout.factors, layout.levels):
        block = centering_matrix(lv) if name in effect else np.full((1, lv), 1.0 / lv)
        h = np.kron(h, block)
    tag = "".join(effect)
    labels = tuple(f"{tag}{i + 1}" for i in range(h.shape[0]))
    return ContrastMatrix(h, labels)


def contrast_to_csv(cm: ContrastMatrix, path: str) -> None:
    """Write the numeric grid (no header) so it can round-trip through the CLI."""
    np.savetxt(path, cm.h, delimiter=",", fmt="%.17g")


def contrast_from_csv(path: str) -> ContrastMatrix:
    """Read a plain numeric grid and validate it as a contrast matrix."""
    h = np.loadtxt(path, delimiter=",", ndmin=2)
    return validate_contrast(h)
