"""A fixed reference computation that measures the machine's current speed.

    python3 bench/calibrate.py      prints the seconds one reference mix takes

The worker runs it as a child process between passes, so its arrays never
count toward the workload's peak resident set.

The mix covers the kernels the workloads spend their time in: small complex
QR (Haar draws), the two-copy contraction at d = 16 and 32, a Hermitian
eigendecomposition and an SVD of the sizes shot estimation and the
commutant solver use, and plain interpreter work. It uses numpy only, never
ginv, so a change to ginv cannot change it.
"""

import sys
import time

import numpy as np

_RNG = np.random.default_rng(20221017)


def _complex(*shape):
    return _RNG.standard_normal(shape) + 1j * _RNG.standard_normal(shape)


_SMALL = _complex(4, 4)
_RHO16, _OBS16 = _complex(16, 16), _complex(16, 16, 16, 16)
_RHO32, _OBS32 = _complex(32, 32), _complex(32, 32, 32, 32)
_HERM = _complex(256, 256)
_HERM = _HERM + _HERM.conj().T
_STACK = _complex(272, 256)


def reference():
    """Seconds one run of the reference mix takes now."""
    start = time.perf_counter()
    for _ in range(6000):
        np.linalg.qr(_SMALL)
    for _ in range(300):
        np.einsum("ik,jl,klij->", _RHO16, _RHO16, _OBS16)
    for _ in range(20):
        np.einsum("ik,jl,klij->", _RHO32, _RHO32, _OBS32)
    for _ in range(6):
        np.linalg.eigh(_HERM)
    for _ in range(4):
        np.linalg.svd(_STACK, full_matrices=False)
    total = 0
    for i in range(300000):
        total += i * i % 7
    return time.perf_counter() - start


if __name__ == "__main__":
    np.linalg.eigh(_HERM[:8, :8])  # load the LAPACK paths before timing
    np.linalg.qr(_SMALL)
    sys.stdout.write(f"{reference()!r}\n")
