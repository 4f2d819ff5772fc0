"""Reference kernels: fixed pieces of work that measure how fast the core
runs at the moment they are timed.

On a shared host the speed of a core drifts by a fifth or more over
minutes, and every item of a workload slows together.  The run times its
workload's kernel before each item, so each item sits between two kernel
runs; an item's CPU time divided by the mean of those two is its cost in
units of the kernel, which the drift leaves alone.  Multiplied by
``NOMINAL_S`` it reads as CPU seconds at a fixed speed.

What slows depends on the neighbours: a busy sibling hyperthread slows
interpreter and small-array work, while a neighbour that saturates memory
bandwidth slows the Legendre transform's large temporaries two- to
threefold and leaves small-array work alone.  So each workload names the
kernel that does the same kind of work as its items: ``compute`` for
small-grid descent, 1-D evaluation and ray casting, ``memory`` for the
chunked broadcast max-reduction over tens of MiB.  The kernels call no
program code, so a change to the program cannot move them.  ``compute``
takes under 1 MiB; ``memory`` allocates a 50 MiB temporary, well under
the peak of the transform workload that uses it.
"""

from __future__ import annotations

import time

import numpy as np

# about the median CPU time of one run of either kernel on one core of a
# 2-vCPU Intel Xeon virtual machine (numpy 2.4, Python 3.11); it only sets
# the scale
NOMINAL_S = 0.1

_A = np.cos(np.arange(1024.0)).reshape(32, 32)
_X = np.linspace(0.0, 1.0, 20_000)
_G = np.cos(np.arange(65.0 * 65.0)).reshape(65, 65)


def compute():
    s = 0.0
    # whole-grid differences and pointwise maps on a 65 x 65 grid, the
    # bulk of a descent iteration
    for _ in range(1400):
        gx, gy = np.diff(_G, axis=0), np.diff(_G, axis=1)
        s += float(np.sum(np.sqrt(gx[:, :-1] ** 2 + gy[:-1, :] ** 2 + 1.0) * 0.5))
    for _ in range(160):
        s += float(np.max(_A[:, :, None] + _A[None, :, :], axis=1).sum())
    for _ in range(80):
        s += float(np.sum(np.exp(-_X) * np.log1p(_X)))
    acc = 0
    for i in range(260_000):
        acc += i % 13
    return s + acc


def _legendre_sweep(n, chunks, chunk=24):
    """``chunks`` chunks of the primal scan of a discrete Legendre
    transform of a quadratic on an n x n grid (one chunk at n = 513 is a
    50 MiB temporary, fresh from the operating system every time)."""
    x = np.linspace(-4.0, 4.0, n)
    values = np.add.outer(x**2, x**2) * 0.5
    eta = np.linspace(-4.0, 4.0, chunk * chunks)
    s = 0.0
    for a in range(0, len(eta), chunk):
        tmp = eta[a : a + chunk, None, None] * x[None, :, None] - values[None, :, :]
        arg = np.argmax(tmp, axis=1)
        s += float(np.take_along_axis(tmp, arg[:, None, :], axis=1).sum())
    return s


def memory():
    return _legendre_sweep(513, 1) + _legendre_sweep(257, 3)


def cpu_seconds(kernel):
    """CPU seconds of one run of ``kernel``."""
    c0 = time.process_time()
    kernel()
    return time.process_time() - c0
