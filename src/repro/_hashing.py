"""Deterministic integer hashing used for reproducible per-pair jitter.

Path properties (router-hop jitter, asymmetry) must be *stable*: every
packet of a flow must see the same path, and re-running an experiment with
the same seed must regenerate identical traces.  Drawing from a stateful RNG
inside the packet path would break both, so instead we derive pseudo-random
values from a stateless splitmix64-style hash of (src, dst, seed).

All functions operate on numpy ``uint64`` arrays (C wrap-around semantics)
and accept scalars transparently.
"""

from __future__ import annotations

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix_in_place(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser applied to ``x`` (a uint64 array) in place."""
    shifted = np.empty_like(x)
    np.right_shift(x, np.uint64(30), out=shifted)
    x ^= shifted
    x *= _M1
    np.right_shift(x, np.uint64(27), out=shifted)
    x ^= shifted
    x *= _M2
    np.right_shift(x, np.uint64(31), out=shifted)
    x ^= shifted
    return x


def mix64(x: np.ndarray | int) -> np.ndarray:
    """The splitmix64 finaliser: a high-quality 64-bit bijective mixer."""
    return _mix_in_place(np.array(x, dtype=np.uint64))


def pair_hash(a: np.ndarray | int, b: np.ndarray | int, seed: int = 0) -> np.ndarray:
    """Hash an ordered pair of 32-bit values (plus a seed) to 64 bits.

    Ordered: ``pair_hash(a, b) != pair_hash(b, a)`` in general, which is what
    models forward/reverse path asymmetry.  A scalar ``a`` against an array
    ``b`` (one source, many destinations) builds one fresh uint64 key and
    mixes it in place.
    """
    # Fold the seed in Python-int space (explicit wrap) to avoid numpy's
    # scalar-overflow warning; array ops below wrap silently by design.
    folded = (int(seed) + int(_GOLDEN)) & _MASK64
    salt = int(mix64(folded))
    if np.ndim(a) == 0:
        # The key's high half is a constant: fold it into the salt (its bits
        # are disjoint from the masked low half, so ``|`` and ``^`` agree).
        key = np.array(b, dtype=np.uint64)
        key &= np.uint64(0xFFFFFFFF)
        key ^= np.uint64(((int(a) << 32) & _MASK64) ^ salt)
    else:
        a64 = np.asarray(a, dtype=np.uint64)
        b64 = np.asarray(b, dtype=np.uint64)
        key = (a64 << np.uint64(32)) | (b64 & np.uint64(0xFFFFFFFF))
        key ^= np.uint64(salt)
    return _mix_in_place(key)


def pair_uniform(
    a: np.ndarray | int, b: np.ndarray | int, seed: int = 0
) -> np.ndarray:
    """Deterministic uniform(0, 1) values derived from ordered pairs."""
    h = pair_hash(a, b, seed)
    # 53 significant bits, like random.random().
    return (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def pair_randint(
    a: np.ndarray | int, b: np.ndarray | int, bound: int, seed: int = 0
) -> np.ndarray:
    """Deterministic integers in ``[0, bound)`` derived from ordered pairs."""
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    h = pair_hash(a, b, seed)
    h %= np.uint64(bound)
    # Every value is below ``bound``, so the int64 view reads it unchanged;
    # ``[()]`` hands scalar inputs a scalar back.
    return h.view(np.int64)[()]
