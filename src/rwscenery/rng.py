"""Counter-based randomness: reproducible streams and site-keyed hashing.

Two mechanisms, both stateless given their keys:

* ``philox_gen(seed)`` wraps numpy's Philox counter-based generator for
  drawing walk increments and evaluation points.  Streams are keyed, so
  parallel scheduling cannot change results.  ``philox_bounded(keys, ...)``
  gives the first bounded integers of many such streams at once, value for
  value, without building a Generator for each key.
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


# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC 2011): round multipliers and key bumps
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (_U64(0x9E3779B97F4A7C15), _U64(0xBB67AE8584CAA73B))
_LO32 = _U64(0xFFFFFFFF)
_S32 = _U64(32)


def _mulhilo(m: int, x: np.ndarray) -> tuple:
    """The high and low words of the 128-bit products m x, from 32-bit halves."""
    m_lo, m_hi = _U64(m & 0xFFFFFFFF), _U64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _S32
    cross1, cross2 = x_hi * m_lo, x_lo * m_hi
    mid = ((x_lo * m_lo) >> _S32) + (cross1 & _LO32) + (cross2 & _LO32)  # < 3 * 2^32
    hi = x_hi * m_hi + (cross1 >> _S32) + (cross2 >> _S32) + (mid >> _S32)
    return hi, x * _U64(m)


def _philox_block(keys: np.ndarray, counter: int) -> np.ndarray:
    """The four words Philox4x64-10 gives at ``counter`` under each key (the
    second key word 0), as eight uint32 per key, low half of each word first:
    the order numpy's Philox hands out its 32-bit draws."""
    k0, k1 = keys, np.zeros_like(keys)
    c0, c1, c2, c3 = (np.full_like(keys, v) for v in (counter, 0, 0, 0))
    for r in range(10):
        if r:
            k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack([c0, c1, c2, c3], axis=1)
    return np.stack([words & _LO32, words >> _S32], axis=2).reshape(len(keys), 8)


def philox_bounded(keys, bound: int, count: int) -> np.ndarray:
    """(len(keys), count) uint64 whose row i is, value for value,
    ``philox_gen(keys[i]).integers(0, bound, size=count, dtype=np.uint64)``,
    for 1 < bound < 2^32, with no Generator built.

    numpy's bounded draw there is Lemire's (ACM TOMACS 2019): a 32-bit word w
    gives (w bound) >> 32 unless the low 32 bits of w bound are below
    2^32 mod bound, and then the key's next word is tried.  Numpy's Philox
    bumps its counter to 1 before its first block; each further block (the
    counter 2, 3, ...) is drawn for every key once some key has run out of
    accepted words.
    """
    if not 1 < bound < 2**32:
        raise ValueError(f"bound = {bound}: expected 1 < bound < 2^32")
    keys = np.array([int(k) & (2**64 - 1) for k in keys], dtype=np.uint64)
    threshold = _U64((1 << 32) % bound)
    blocks = []
    while True:
        blocks.append(_philox_block(keys, len(blocks) + 1) * _U64(bound))
        scaled = np.hstack(blocks)
        accepted = (scaled & _LO32) >= threshold
        if (accepted.sum(axis=1) >= count).all():
            break
    first = np.argsort(~accepted, axis=1, kind="stable")[:, :count]
    return np.take_along_axis(scaled, first, axis=1) >> _S32


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
