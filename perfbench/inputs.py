"""Benchmark inputs: 32×32 patches of a fixed synthetic image corpus.

The corpus (1/f-spectrum natural images from ``repro.data``) is the same
for every seed, like a real image collection; the seed picks which
patches are drawn.  The same seed therefore gives the same inputs, and
the statistics of the inputs, and so the final training loss, vary
little from seed to seed.
"""

from __future__ import annotations

import numpy as np

PATCH = 32
N_INPUTS = PATCH * PATCH  # the paper's Fig. 7 input width
N_IMAGES = 16
IMAGE_SIZE = 128
CORPUS_SEED = 0


def patches(n: int, seed: int) -> np.ndarray:
    """``n`` flattened patches drawn from the corpus by ``seed``."""
    from repro.data import extract_patches, make_natural_images

    images = make_natural_images(N_IMAGES, size=IMAGE_SIZE, seed=CORPUS_SEED)
    return extract_patches(images, PATCH, n, seed=seed)


def whitened(n: int, seed: int) -> np.ndarray:
    """ZCA-whitened patches (the sparse-autoencoder preparation)."""
    from repro.data import whiten_patches

    return whiten_patches(patches(n, seed))


def squashed(n: int, seed: int) -> np.ndarray:
    """Patches mapped into (0.1, 0.9): RBM visible units and served payloads."""
    from repro.data import normalize_patches

    return normalize_patches(patches(n, seed))
