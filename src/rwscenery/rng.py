"""Counter-based randomness: reproducible streams and site-keyed hashing.

Two mechanisms, both stateless given their keys:

* ``philox_gen(seed)`` wraps numpy's Philox counter-based generator for
  drawing walk increments and evaluation points.  Streams are keyed, so
  parallel scheduling cannot change results.
* ``hash_sites(seed, coords)`` maps (seed, lattice site) to a uint64 by a
  splitmix64 finalizer chain.  The same site always hashes to the same
  word, which is what makes a lazily materialized scenery consistent
  across windows and across re-visits without storing the infinite field.
"""

from __future__ import annotations

import hashlib

import numpy as np

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)


def splitmix64(x):
    """splitmix64 finalizer; wraps on uint64 like the reference C code.

    ``x`` is copied once and never written; the rounds then run in place on
    the copy with one scratch array for the shifts, so a call allocates two
    arrays of x's size whatever the number of rounds.
    """
    z = np.array(x, dtype=np.uint64)
    t = np.empty_like(z)
    z += _GOLDEN
    z ^= np.right_shift(z, _U64(30), out=t)
    z *= _MIX1
    z ^= np.right_shift(z, _U64(27), out=t)
    z *= _MIX2
    z ^= np.right_shift(z, _U64(31), out=t)
    return z[()]  # a numpy scalar for scalar input, like a ufunc


def derive_seed(master_seed: int, *parts) -> int:
    """Derive a 64-bit sub-seed from a master seed and a label path.

    Uses SHA-256 over the canonical repr, so the derivation is
    platform-independent and collision-safe for the handful of streams an
    experiment needs (per-omega paths, per-scenery draws, ...).
    """
    payload = repr((int(master_seed),) + tuple(parts)).encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def derive_seeds(master_seed: int, *parts, count: int) -> list:
    """[derive_seed(master_seed, *parts, j) for j in range(count)], bit for bit.

    The repr of the shared prefix is hashed once; each index only copies
    that SHA-256 state and feeds its own ``j)`` tail.
    """
    head = hashlib.sha256(("(" + ", ".join(map(repr, (int(master_seed),) + parts))
                           + ", ").encode())
    seeds = []
    for j in range(count):
        h = head.copy()
        h.update(f"{j})".encode())
        seeds.append(int.from_bytes(h.digest()[:8], "big"))
    return seeds


def philox_gen(seed: int) -> np.random.Generator:
    """Counter-based generator keyed by ``seed`` (numpy Philox 4x64)."""
    return np.random.Generator(np.random.Philox(key=np.uint64(seed & (2**64 - 1))))


def hash_sites(seed: int, coords: np.ndarray) -> np.ndarray:
    """Hash integer lattice sites to uint64 words, keyed by ``seed``.

    ``coords`` has shape (m, d); coordinates enter the chain one at a time
    so any dimension is supported.  Negative coordinates participate via
    their two's-complement uint64 image, which is well defined.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    h = np.full(coords.shape[0], _U64(seed & (2**64 - 1)), dtype=np.uint64)
    for j in range(coords.shape[1]):
        h = splitmix64(h ^ coords[:, j].astype(np.uint64))
        h = splitmix64(h + _U64(j + 1))
    return h


def u64_to_uniform(u: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles in the open interval (0, 1).

    Uses the top 53 bits plus a half-ulp offset; never returns 0 or 1, so
    inverse-CDF transforms are safe.
    """
    return ((np.asarray(u, dtype=np.uint64) >> _U64(11)).astype(np.float64) + 0.5) * 2.0**-53
