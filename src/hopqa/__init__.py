"""Multi-hop cloze query answering over explicit query-answer support pairs,
trained end-to-end on a from-scratch reverse-mode autodiff engine."""

import os
import sys

__version__ = "0.1.0"

# One BLAS thread unless the user chose otherwise: the model's products are
# small, and on a 2-core host default threading ran h=256 training 1.5x to
# 8.7x slower. A second CPU is used by whole loops instead: once a biGRU
# step is large enough, its two directions run on two threads, and only
# while every variable here reads 1 (`encoder.direction_threads`). A BLAS
# library reads these variables once, when numpy is first imported, so they
# are set here, before any hopqa module imports numpy; if numpy came first,
# nothing is set (`set_by` None). `hopqa train` records this table in its
# manifest, and the encoder's schedule next to it.
BLAS_THREADS = {}
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    if _var in os.environ:
        _set_by = "user"
    elif "numpy" not in sys.modules:
        os.environ[_var], _set_by = "1", "hopqa"
    else:
        _set_by = None
    BLAS_THREADS[_var] = {"value": os.environ.get(_var), "set_by": _set_by}
del _var, _set_by
