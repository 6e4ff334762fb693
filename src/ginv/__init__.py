"""Group-invariant quantum model simulation and verification toolkit."""

import os

# One BLAS thread unless the user chose otherwise: the products here are
# small, and on a loaded machine more threads made runs about 30x slower.
# This takes effect only if numpy is not yet imported, as in the ``ginv``
# console script.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

__version__ = "0.1.0"
