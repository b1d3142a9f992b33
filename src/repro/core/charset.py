"""256-symbol character sets.

Automata in this library are *homogeneous*: every state carries the set of
input symbols it matches (Micron AP / ANML semantics).  The symbol alphabet
is the 256 byte values.  :class:`CharSet` represents one such set as a
256-bit integer mask, which makes union/intersection/complement single
integer operations and keeps millions of states cheap to store.

Bit-level automata (File Carving, Section IX-B of the paper) use the same
type restricted to symbols 0 and 1.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "CharSet",
    "ALL_BYTES",
    "NO_BYTES",
    "BIT_ZERO",
    "BIT_ONE",
    "pack_membership",
]

_FULL_MASK = (1 << 256) - 1
#: Charsets per unpack/pack round in :func:`pack_membership`: a multiple of 8,
#: small enough that the unpacked bits (256 bytes per set) stay a few MB.
_PACK_CHUNK = 4096


def _mask_of(symbols: Iterable[int]) -> int:
    mask = 0
    for sym in symbols:
        if not 0 <= sym <= 255:
            raise ValueError(f"symbol out of range 0..255: {sym!r}")
        mask |= 1 << sym
    return mask


class CharSet:
    """An immutable set of byte symbols (0..255).

    Instances support the standard set algebra via operators::

        a | b     union
        a & b     intersection
        a - b     difference
        ~a        complement (within 0..255)
        s in a    membership (int or length-1 bytes/str)

    Construction helpers:

    >>> CharSet.from_chars("abc").cardinality()
    3
    >>> CharSet.from_ranges([(0x30, 0x39)]) == CharSet.from_chars("0123456789")
    True
    """

    __slots__ = ("_mask",)

    def __init__(self, symbols: Iterable[int] = ()) -> None:
        self._mask = _mask_of(symbols)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_mask(cls, mask: int) -> "CharSet":
        """Build from a raw 256-bit integer mask (internal representation)."""
        if mask < 0 or mask > _FULL_MASK:
            raise ValueError("mask outside 256-bit range")
        cs = cls.__new__(cls)
        cs._mask = mask
        return cs

    @classmethod
    def from_chars(cls, chars: str | bytes) -> "CharSet":
        """Build from the characters of a string (latin-1) or bytes."""
        if isinstance(chars, str):
            chars = chars.encode("latin-1")
        return cls.from_mask(_mask_of(chars))

    @classmethod
    def from_ranges(cls, ranges: Iterable[tuple[int, int]]) -> "CharSet":
        """Build from inclusive ``(lo, hi)`` symbol ranges."""
        mask = 0
        for lo, hi in ranges:
            if not (0 <= lo <= hi <= 255):
                raise ValueError(f"bad range ({lo}, {hi})")
            mask |= ((1 << (hi - lo + 1)) - 1) << lo
        return cls.from_mask(mask)

    @classmethod
    def single(cls, symbol: int) -> "CharSet":
        """The singleton set {symbol}."""
        if not 0 <= symbol <= 255:
            raise ValueError(f"symbol out of range 0..255: {symbol!r}")
        return cls.from_mask(1 << symbol)

    @classmethod
    def all_bytes(cls) -> "CharSet":
        """The full alphabet (regex ``.`` with DOTALL, ANML ``*``)."""
        return cls.from_mask(_FULL_MASK)

    @classmethod
    def none(cls) -> "CharSet":
        """The empty set (matches no symbol)."""
        return cls.from_mask(0)

    # -- set algebra -------------------------------------------------------

    @property
    def mask(self) -> int:
        """The raw 256-bit membership mask."""
        return self._mask

    def __or__(self, other: "CharSet") -> "CharSet":
        return CharSet.from_mask(self._mask | other._mask)

    def __and__(self, other: "CharSet") -> "CharSet":
        return CharSet.from_mask(self._mask & other._mask)

    def __sub__(self, other: "CharSet") -> "CharSet":
        return CharSet.from_mask(self._mask & ~other._mask & _FULL_MASK)

    def __invert__(self) -> "CharSet":
        return CharSet.from_mask(~self._mask & _FULL_MASK)

    def __contains__(self, symbol: int | str | bytes) -> bool:
        if isinstance(symbol, (str, bytes)):
            if len(symbol) != 1:
                raise ValueError("membership test needs a single character")
            symbol = symbol[0] if isinstance(symbol, bytes) else ord(symbol)
        return bool((self._mask >> symbol) & 1)

    def matches(self, symbol: int) -> bool:
        """True if the byte value ``symbol`` is in the set (no conversion)."""
        return bool((self._mask >> symbol) & 1)

    def is_empty(self) -> bool:
        return self._mask == 0

    def is_full(self) -> bool:
        return self._mask == _FULL_MASK

    def cardinality(self) -> int:
        """Number of symbols in the set."""
        return self._mask.bit_count()

    def issubset(self, other: "CharSet") -> bool:
        return self._mask & ~other._mask == 0

    def __iter__(self) -> Iterator[int]:
        mask = self._mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.cardinality()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CharSet) and self._mask == other._mask

    def __hash__(self) -> int:
        return hash(self._mask)

    def __bool__(self) -> bool:
        return self._mask != 0

    # -- conversions -------------------------------------------------------

    def to_bool_array(self) -> np.ndarray:
        """A length-256 boolean numpy array (used by the vector engine)."""
        raw = self._mask.to_bytes(32, "little")
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return bits.astype(bool)

    def ranges(self) -> list[tuple[int, int]]:
        """The set as a minimal list of inclusive (lo, hi) ranges."""
        out: list[tuple[int, int]] = []
        start: int | None = None
        prev = -2
        for sym in self:
            if sym != prev + 1:
                if start is not None:
                    out.append((start, prev))
                start = sym
            prev = sym
        if start is not None:
            out.append((start, prev))
        return out

    def __repr__(self) -> str:
        if self.is_full():
            return "CharSet[*]"
        if self.is_empty():
            return "CharSet[]"
        parts = []
        for lo, hi in self.ranges():
            if lo == hi:
                parts.append(_sym_repr(lo))
            else:
                parts.append(f"{_sym_repr(lo)}-{_sym_repr(hi)}")
        return "CharSet[" + "".join(parts) + "]"


def _sym_repr(symbol: int) -> str:
    if 0x21 <= symbol <= 0x7E and chr(symbol) not in "-[]\\":
        return chr(symbol)
    return f"\\x{symbol:02x}"


#: The full alphabet, shared instance.
ALL_BYTES = CharSet.all_bytes()
#: The empty set, shared instance.
NO_BYTES = CharSet.none()
#: Bit-level automata symbols.
BIT_ZERO = CharSet.single(0)
BIT_ONE = CharSet.single(1)


def pack_membership(charsets: Sequence[CharSet]) -> np.ndarray:
    """Symbol-major packed membership of a list of charsets.

    Returns a ``uint8`` array of shape ``(256, ceil(n / 8))`` whose bit
    ``i & 7`` of ``[s, i >> 3]`` is set iff ``charsets[i]`` contains ``s``.
    The masks are joined into one buffer and unpacked by one numpy call per
    chunk, instead of one :meth:`CharSet.to_bool_array` per set; each group
    of eight sets is then packed across the sets, symbol by symbol.
    """
    n = len(charsets)
    out = np.zeros((256, (n + 7) // 8), dtype=np.uint8)
    for base in range(0, n, _PACK_CHUNK):
        chunk = charsets[base : base + _PACK_CHUNK]
        raw = b"".join(cs._mask.to_bytes(32, "little") for cs in chunk)
        raw += bytes(32 * (-len(chunk) % 8))
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 8, 32)
        bits = np.unpackbits(rows, axis=2, bitorder="little")
        packed = np.packbits(bits, axis=1, bitorder="little").reshape(-1, 256)
        out[:, base // 8 : base // 8 + len(packed)] = packed.T
    return out
