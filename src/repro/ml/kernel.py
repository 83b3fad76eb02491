"""RBF kernel ridge regression -- the SVR stand-in.

Table 3 lists an SVR with an RBF kernel.  A full SMO solver adds nothing to
the reproduction (the SVR is one of the five *rejected* models), so we use
kernel ridge regression with the same RBF kernel: identical hypothesis class,
L2 instead of epsilon-insensitive loss.  The substitution is recorded in
DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from repro.ml.metrics import StandardScaler

__all__ = ["KernelRidgeRegressor"]


class KernelRidgeRegressor:
    """Closed-form kernel ridge with an RBF kernel.

    ``gamma=None`` uses the median-distance heuristic.
    """

    def __init__(self, alpha: float = 1.0, gamma: float | None = None) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.alpha = alpha
        self.gamma = gamma
        self._scaler = StandardScaler()
        self._X: np.ndarray | None = None
        self._dual: np.ndarray | None = None
        self._y_mean = 0.0
        self._gamma_eff: float | None = None

    @staticmethod
    def _sq_dists(A: np.ndarray, B: np.ndarray) -> np.ndarray:
        aa = (A * A).sum(axis=1)[:, None]
        bb = (B * B).sum(axis=1)[None, :]
        return np.maximum(aa + bb - 2.0 * A @ B.T, 0.0)

    def fit(self, X, y) -> "KernelRidgeRegressor":
        from scipy import linalg

        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on sample count")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on empty data")
        Xs = self._scaler.fit_transform(X)
        d2 = self._sq_dists(Xs, Xs)
        if self.gamma is None:
            med = np.median(d2[d2 > 0]) if (d2 > 0).any() else 1.0
            self._gamma_eff = 1.0 / max(med, 1e-12)
        else:
            self._gamma_eff = self.gamma
        K = np.exp(-self._gamma_eff * d2)
        self._y_mean = float(y.mean())
        n = K.shape[0]
        self._dual = linalg.solve(
            K + self.alpha * np.eye(n), y - self._y_mean, assume_a="pos"
        )
        self._X = Xs
        return self

    def predict(self, X) -> np.ndarray:
        if self._X is None or self._dual is None:
            raise RuntimeError("model not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        Xs = self._scaler.transform(X)
        K = np.exp(-self._gamma_eff * self._sq_dists(Xs, self._X))
        return K @ self._dual + self._y_mean
