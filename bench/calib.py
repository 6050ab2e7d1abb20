"""A fixed calibration kernel that tracks the speed of the machine.

On shared machines the same decode can run 30% faster or slower from
one minute to the next (on a shared 2-core Xeon virtual machine, one
sweep round took 0.57 s to 1.12 s within four minutes, while its ratio
to this kernel, timed next to it, varied by a few percent).  The
kernel does the kind of work ofbdec's recursion does, in the same
proportions: interval sweeps over small (K, N) arrays, then ranking of
small candidate lists, all through numpy calls on tiny arrays from a
Python loop.  It is the benchmark's own code, so no change to the
program changes it.
"""

import time

import numpy as np

_rng = np.random.default_rng(20110825)
_A = _rng.normal(size=(6, 4))
_LO = _rng.normal(size=(20, 4))
_SCORES = _rng.normal(size=(20, 32))
REPS = 160
# the kernel's median time on the reference machine (2-core Xeon virtual
# machine, Python 3.11, numpy 2.4); rescaled times read in its seconds
REF_S = 0.115


def _sweep(lo, hi):
    for a in _A:
        pos = a >= 0.0
        t_lo = np.where(pos, a * lo, a * hi)
        t_hi = np.where(pos, a * hi, a * lo)
        pre = np.concatenate([np.zeros((lo.shape[0], 1)), np.cumsum(t_lo, axis=1)], axis=1)
        suf = np.cumsum(t_hi[:, ::-1], axis=1)[:, ::-1]
        cand = np.where(a > 0.0, pre[:, :-1] - suf, suf - pre[:, 1:]) / np.where(a != 0.0, a, 1.0)
        lo = np.maximum(lo, np.minimum(cand, hi))
        hi = np.maximum(hi, lo)
    return lo, hi


def _rank(scores):
    part = np.zeros((1, 0), dtype=np.int64)
    best = np.zeros(1)
    for row in scores[:6]:
        order = np.lexsort((np.arange(row.size), -row))[:20]
        stage = order.astype(np.int64)
        new = (best[:, None] + row[order][None, :]).ravel()
        idx = np.concatenate(
            [np.repeat(part, stage.size, axis=0), np.tile(stage, best.size)[:, None]], axis=1
        )
        keep = np.lexsort([idx[:, k] for k in range(idx.shape[1] - 1, -1, -1)] + [-new])[:20]
        part, best = idx[keep], new[keep]
    return part


def kernel_s():
    """Wall seconds of one pass of the fixed kernel (about 0.1 s)."""
    t = time.perf_counter()
    for _ in range(REPS):
        _sweep(_LO.copy(), _LO + 1.0)
        _rank(_SCORES)
    return time.perf_counter() - t
