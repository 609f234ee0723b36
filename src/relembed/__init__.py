"""relembed: joint visual-language embeddings for relation triplets.

Subject, object and predicate appearance is embedded jointly with word
vectors of the corresponding phrases; unseen triplets are scored by
transferring embeddings from similar seen triplets through an analogy map.
"""

import os

# BLAS sums in an order that depends on its thread count; one thread keeps
# outputs byte-identical across machines' core counts. This takes effect
# only when numpy is imported after this package.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
