"""Strictly increasing sampled maps with log-log interpolation.

A MonotoneTable carries (x_j, y_j) pairs of a strictly increasing map on
(0, inf), interpolates linearly in log-log coordinates (exact on pure
powers), and extrapolates with the edge slopes.  It is a 1-D function of
the single protocol of :mod:`anisolab.young1d`: it writes the kernels
``_log_value`` / ``_log_derivative`` (both ``-inf`` at log x = -inf) and
that module's class decorator installs ``log_value``, ``log_derivative``,
``value``, ``derivative`` and ``value_and_derivative`` from them, so
x < 0 raises ValueError, x = 0 gives 0, and tables slot into the same
modulars, solvers and conjugation paths.
"""

from __future__ import annotations

import json

import numpy as np

from .young1d import _field, _protocol

__all__ = ["MonotoneTable"]


@_protocol
class MonotoneTable:
    def __init__(self, logx, logy):
        logx = np.asarray(logx, dtype=float)
        logy = np.asarray(logy, dtype=float)
        if logx.ndim != 1 or logx.shape != logy.shape or len(logx) < 2:
            raise ValueError("need matching 1-D arrays of length >= 2")
        if not (np.all(np.isfinite(logx)) and np.all(np.isfinite(logy))):
            raise ValueError("table entries must be finite and positive (their logs finite)")
        if np.any(np.diff(logx) <= 0.0) or np.any(np.diff(logy) <= 0.0):
            raise ValueError("table must be strictly increasing in both columns")
        self.logx = logx
        self.logy = logy
        self._slopes = np.diff(logy) / np.diff(logx)

    @classmethod
    def from_values(cls, x, y):
        """Table of the pairs (x_j, y_j); an entry that is not finite and
        positive raises ValueError."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return cls(np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float)))

    # -- interpolation -------------------------------------------------------

    def _log_value(self, logx):
        idx = np.clip(np.searchsorted(self.logx, logx) - 1, 0, len(self.logx) - 2)
        return self.logy[idx] + self._slopes[idx] * (logx - self.logx[idx])

    def _log_derivative(self, logx):
        # d/dx of the x^m-shaped segment: m * y / x
        idx = np.clip(np.searchsorted(self.logx, logx) - 1, 0, len(self.logx) - 2)
        with np.errstate(invalid="ignore"):
            out = np.log(self._slopes[idx]) + self._log_value(logx) - logx
        return np.where(np.isneginf(logx), -np.inf, out)

    # -- io -------------------------------------------------------------------

    def to_json_dict(self):
        return {
            "s": [float(v) for v in np.exp(self.logx)],
            "t": [float(v) for v in np.exp(self.logy)],
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, data):
        return cls.from_values(_field(data, "s"), _field(data, "t"))

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))
