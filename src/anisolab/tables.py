"""Strictly increasing sampled maps with log-log interpolation.

A MonotoneTable carries (x_j, y_j) pairs of a strictly increasing map on
(0, inf), interpolates linearly in log-log coordinates (exact on pure
powers), and extrapolates with the edge slopes.  It is a 1-D function of
the single protocol of :mod:`anisolab.young1d`: it writes ``log_value`` /
``log_derivative`` (both ``-inf`` at log x = -inf) and binds that module's
shared ``value`` / ``derivative``, so x < 0 raises ValueError, x = 0 gives
0, and tables slot into the same modulars, solvers and conjugation paths.
``inverse`` follows the same rules on the y column.
"""

from __future__ import annotations

import json

import numpy as np

from .young1d import _derivative_from_log, _from_log, _value_from_log

__all__ = ["MonotoneTable"]


class MonotoneTable:
    def __init__(self, logx, logy):
        logx = np.asarray(logx, dtype=float)
        logy = np.asarray(logy, dtype=float)
        if logx.ndim != 1 or logx.shape != logy.shape or len(logx) < 2:
            raise ValueError("need matching 1-D arrays of length >= 2")
        if np.any(np.diff(logx) <= 0.0) or np.any(np.diff(logy) <= 0.0):
            raise ValueError("table must be strictly increasing in both columns")
        self.logx = logx
        self.logy = logy
        self._slopes = np.diff(logy) / np.diff(logx)

    @classmethod
    def from_values(cls, x, y):
        return cls(np.log(np.asarray(x, dtype=float)), np.log(np.asarray(y, dtype=float)))

    # -- interpolation -------------------------------------------------------

    def _interp(self, q, knots, vals, slopes):
        q = np.asarray(q, dtype=float)
        idx = np.clip(np.searchsorted(knots, q) - 1, 0, len(knots) - 2)
        out = vals[idx] + slopes[idx] * (q - knots[idx])
        return out if out.ndim else float(out)

    def log_value(self, logx):
        return self._interp(logx, self.logx, self.logy, self._slopes)

    def log_inverse(self, logy):
        return self._interp(logy, self.logy, self.logx, 1.0 / self._slopes)

    def log_derivative(self, logx):
        # d/dx of the x^m-shaped segment: m * y / x
        logx = np.asarray(logx, dtype=float)
        idx = np.clip(np.searchsorted(self.logx, logx) - 1, 0, len(self.logx) - 2)
        with np.errstate(invalid="ignore"):
            out = np.log(self._slopes[idx]) + self.log_value(logx) - logx
        out = np.where(np.isneginf(logx), -np.inf, out)
        return out if out.ndim else float(out)

    value = _value_from_log
    derivative = _derivative_from_log

    def inverse(self, y):
        return _from_log(self.log_inverse, y)

    # -- structure checks ----------------------------------------------------

    def convex_on_nodes(self, rel_slack=1e-9):
        """Difference quotients of node values nondecreasing (value domain)."""
        x = np.exp(self.logx)
        y = np.exp(self.logy)
        if np.any(~np.isfinite(x)) or np.any(~np.isfinite(y)):
            # fall back to log-log slopes >= previous (valid for slopes >= 1)
            return bool(np.all(np.diff(self._slopes) >= -rel_slack))
        q = np.diff(y) / np.diff(x)
        return bool(np.all(np.diff(q) >= -rel_slack * np.maximum(1.0, q[:-1])))

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
        return cls.from_values(data["s"], data["t"])

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))
