"""Deterministic random-number-generation helpers.

Every stochastic component in the library (synthetic weight generation, the
True Random Bit Generator models, Monte-Carlo duty-cycle simulation) accepts
either a seed, an existing :class:`numpy.random.Generator`, or ``None``.  The
helpers in this module normalise those inputs so that experiments are
reproducible end-to-end from a single seed.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_rng(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    Parameters
    ----------
    seed:
        ``None`` (non-deterministic), an integer seed, a ``SeedSequence`` or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def seed_value(seed: SeedLike) -> int:
    """A stable integer standing for a seed-like input.

    ``None`` gives 0 and integers give themselves.  A ``SeedSequence``, or a
    ``Generator`` through the sequence that seeded it, gives a 63-bit digest
    of its entropy and spawn key: the same in every process, and no draw is
    consumed.
    """
    if seed is None:
        return 0
    if isinstance(seed, np.random.Generator):
        bit_generator = seed.bit_generator
        seed = getattr(bit_generator, "seed_seq", None) or bit_generator._seed_seq
    if isinstance(seed, np.random.SeedSequence):
        return int(seed.generate_state(1, np.uint64)[0]) & 0x7FFFFFFFFFFFFFFF
    return int(seed)


def spawn_rngs(seed: SeedLike, count: int) -> List[np.random.Generator]:
    """Spawn ``count`` statistically independent generators from one seed.

    The returned generators are independent even when ``seed`` is ``None``;
    when ``seed`` is an integer the whole family is reproducible.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive children from the parent's bit generator state in a
        # reproducible way by drawing child seeds from the parent.
        child_seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in child_seeds]
    sequence = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in sequence.spawn(count)]


class RngMixin:
    """Mixin for classes that own a random generator.

    Sub-classes call :meth:`_init_rng` in ``__init__`` and use ``self.rng``
    afterwards.  ``reseed`` restores a reproducible state, which the tests use
    to verify that stochastic components are deterministic under a fixed seed.
    """

    _rng: np.random.Generator

    def _init_rng(self, seed: SeedLike = None) -> None:
        self._seed = seed if not isinstance(seed, np.random.Generator) else None
        self._rng = as_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        """The generator driving this component's randomness."""
        return self._rng

    def reseed(self, seed: SeedLike) -> None:
        """Replace the internal generator with a freshly seeded one."""
        self._seed = seed if not isinstance(seed, np.random.Generator) else None
        self._rng = as_rng(seed)


def random_bits(rng: np.random.Generator, shape: Union[int, Iterable[int]],
                probability_of_one: float = 0.5) -> np.ndarray:
    """Draw a ``uint8`` array of 0/1 bits with the given probability of one."""
    if not 0.0 <= probability_of_one <= 1.0:
        raise ValueError(
            f"probability_of_one must be within [0, 1], got {probability_of_one}"
        )
    return (rng.random(shape) < probability_of_one).astype(np.uint8)


def deterministic_hash_seed(*parts: Optional[object]) -> int:
    """Build a stable 63-bit seed from arbitrary hashable parts.

    Used to give every (network, layer, block) combination its own
    reproducible stream without storing per-block seeds explicitly.
    """
    # A small FNV-1a style mix keeps this independent from PYTHONHASHSEED.
    acc = 0xCBF29CE484222325
    for part in parts:
        for byte in repr(part).encode("utf-8"):
            acc ^= byte
            acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc & 0x7FFFFFFFFFFFFFFF
