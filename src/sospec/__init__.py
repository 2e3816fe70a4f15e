"""Joint prediction and discovery of one-parameter rotational symmetries.

The pipeline aligns inputs with a learnable rotation, reads off planar
radii and unit block coordinates, feeds the torus characters of primitive
frequencies (products of powers of those coordinates) to an MLP,
and penalizes spectral mass off the resonance hyperplane of the learned
rotation rates. The trained parameters reconstruct the skew-symmetric
generator of the latent subgroup.
"""

from .lattice import (
    estimate_lambda,
    primitive_set,
    resonant_subset,
    surviving_frequencies,
)
from .lie import (
    CanonicalForm,
    Generator,
    assemble_generator,
    gauge_equivalent,
    generator_cosine_similarity,
    matrix_exp,
    retract_orthogonal,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalForm",
    "Generator",
    "assemble_generator",
    "estimate_lambda",
    "gauge_equivalent",
    "generator_cosine_similarity",
    "matrix_exp",
    "primitive_set",
    "resonant_subset",
    "retract_orthogonal",
    "surviving_frequencies",
]
