"""Deterministic random generation for the property suites.

The generator is xorshift64* (Marsaglia xorshift with a multiplicative
output scramble), seeded through one round of splitmix64 so that seed 0
is usable.  It is implemented in plain integer arithmetic so reports
reproduce across platforms for a fixed seed.

A stacked suite draws its trials' inputs up front, in the order the trials
would draw them: `matrix` is the data of an `element` draw, and `absolute`,
`snap` and `sym_from_proj` finish a stack of them as `positive_element`,
`projection` and `symmetry` finish one.
"""

from __future__ import annotations

import numpy as np

from .core import (
    Element,
    ModelShape,
    Projection,
    Symmetry,
    absolute,
    block_diag,
    eig_sym,
    span,
    spectral_map,
    sym_from_proj,
)

_MASK = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return (z ^ (z >> 31)) & _MASK


class XorShift64Star:
    """64-bit xorshift* stream of uniforms over [0, 1)."""

    def __init__(self, seed: int):
        state = _splitmix64(int(seed) & _MASK)
        self.state = state if state != 0 else 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self.state
        x ^= (x >> 12)
        x = (x ^ (x << 25)) & _MASK
        x ^= (x >> 27)
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, n: int) -> int:
        """Uniform integer in range(n)."""
        return int(self.uniform() * n)

    # -- model-valued draws -------------------------------------------
    def matrix(self, shape: ModelShape) -> np.ndarray:
        """Data of a random symmetric element, entries uniform in [-1, 1] symmetrized."""
        blocks = []
        for b in shape.blocks:
            raw = np.array([[2.0 * self.uniform() - 1.0 for _ in range(b)] for _ in range(b)])
            blocks.append(0.5 * (raw + raw.T))
        return block_diag(shape, blocks)

    def element(self, shape: ModelShape) -> Element:
        return Element(shape, self.matrix(shape))

    def positive_element(self, shape: ModelShape) -> Element:
        return absolute(self.element(shape))

    def projection(self, shape: ModelShape, rank: int | None = None) -> Projection:
        """Spectral snap of a random symmetric element.

        Without a rank, eigenvalues above zero snap to one.  With a rank,
        the top-rank eigenvectors carry the projection.
        """
        a = self.element(shape)
        if rank is None:
            return snap(a)
        w, v = eig_sym(a)
        return span(shape, v[:, np.argsort(w)[::-1][:rank]])

    def symmetry(self, shape: ModelShape) -> Symmetry:
        return sym_from_proj(self.projection(shape))

    def subprojection(self, p: Projection) -> Projection:
        """Random subprojection spanned by a subset of p's eigenvectors."""
        w, v = eig_sym(p)
        keep = [i for i in range(len(w)) if w[i] > 0.5 and self.uniform() < 0.5]
        return span(p.shape, v[:, keep])


def snap(a: Element) -> Projection:
    """The projection onto the positive eigenvectors of a: how `projection`
    finishes its draw when no rank is given."""
    return spectral_map(a, lambda w: np.where(w > 0.0, 1.0, 0.0), cls=Projection)
