"""Desk-scale toolkit for compound wiretap channels.

Submodules:

- ``qcore``       checked density matrices, eigensystems, norms, fidelity, PGM
- ``channels``    channel kinds, conversions, diamond distance, tau-nets
- ``infotheory``  entropies, mutual information, Holevo quantity
- ``typicality``  typical sets and typical projectors with bound reports
- ``capacity``    fixed-block-length solvers for the capacity formulas
- ``wiretapsim``  random-coding simulation: codebooks, decoding, leakage
- ``entgen``      entanglement-generation protocol simulation
- ``cli``         command-line front end
"""

import os

# The matrices are small: one BLAS thread is fastest and keeps a busy core
# from stalling every product.  Set before numpy loads; a value in the
# environment still wins.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
