"""Unit tests for repro.core.charset."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.charset import (
    ALL_BYTES,
    BIT_ONE,
    BIT_ZERO,
    CharSet,
    NO_BYTES,
    pack_membership,
)


class TestConstruction:
    def test_empty(self):
        assert CharSet().is_empty()
        assert len(CharSet()) == 0

    def test_from_chars_str(self):
        cs = CharSet.from_chars("abc")
        assert "a" in cs and "b" in cs and "c" in cs
        assert "d" not in cs

    def test_from_chars_bytes(self):
        cs = CharSet.from_chars(b"\x00\xff")
        assert 0 in cs and 255 in cs

    def test_from_ranges(self):
        cs = CharSet.from_ranges([(0x30, 0x39)])
        assert cs == CharSet.from_chars("0123456789")

    def test_from_ranges_multiple(self):
        cs = CharSet.from_ranges([(0, 2), (250, 255)])
        assert cs.cardinality() == 9

    def test_single(self):
        assert CharSet.single(65) == CharSet.from_chars("A")

    def test_bad_symbol_rejected(self):
        with pytest.raises(ValueError):
            CharSet([256])
        with pytest.raises(ValueError):
            CharSet.single(-1)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            CharSet.from_ranges([(5, 3)])
        with pytest.raises(ValueError):
            CharSet.from_ranges([(0, 256)])

    def test_all_and_none(self):
        assert ALL_BYTES.cardinality() == 256
        assert ALL_BYTES.is_full()
        assert NO_BYTES.is_empty()

    def test_bit_constants(self):
        assert list(BIT_ZERO) == [0]
        assert list(BIT_ONE) == [1]


class TestAlgebra:
    def test_union(self):
        assert CharSet.from_chars("ab") | CharSet.from_chars("bc") == CharSet.from_chars("abc")

    def test_intersection(self):
        assert CharSet.from_chars("ab") & CharSet.from_chars("bc") == CharSet.from_chars("b")

    def test_difference(self):
        assert CharSet.from_chars("abc") - CharSet.from_chars("b") == CharSet.from_chars("ac")

    def test_complement(self):
        cs = ~CharSet.from_chars("a")
        assert cs.cardinality() == 255
        assert "a" not in cs
        assert ~ALL_BYTES == NO_BYTES

    def test_double_complement_identity(self):
        cs = CharSet.from_chars("xyz")
        assert ~~cs == cs

    def test_issubset(self):
        assert CharSet.from_chars("a").issubset(CharSet.from_chars("ab"))
        assert not CharSet.from_chars("ac").issubset(CharSet.from_chars("ab"))

    def test_bool(self):
        assert not CharSet()
        assert CharSet.single(0)


class TestConversions:
    def test_iter_sorted(self):
        cs = CharSet([5, 1, 200])
        assert list(cs) == [1, 5, 200]

    def test_membership_forms(self):
        cs = CharSet.from_chars("a")
        assert ord("a") in cs
        assert "a" in cs
        assert b"a" in cs
        with pytest.raises(ValueError):
            "ab" in cs

    def test_to_bool_array(self):
        cs = CharSet([0, 7, 255])
        arr = cs.to_bool_array()
        assert arr.dtype == bool and arr.shape == (256,)
        assert list(np.flatnonzero(arr)) == [0, 7, 255]

    def test_ranges_roundtrip(self):
        cs = CharSet([1, 2, 3, 10, 250, 251])
        assert cs.ranges() == [(1, 3), (10, 10), (250, 251)]
        assert CharSet.from_ranges(cs.ranges()) == cs

    def test_repr_forms(self):
        assert repr(ALL_BYTES) == "CharSet[*]"
        assert repr(NO_BYTES) == "CharSet[]"
        assert "a-c" in repr(CharSet.from_chars("abc"))

    def test_hashable(self):
        assert len({CharSet.from_chars("a"), CharSet.from_chars("a")}) == 1


symbol_sets = st.frozensets(st.integers(0, 255), max_size=40)


class TestProperties:
    @given(symbol_sets, symbol_sets)
    def test_union_matches_set_semantics(self, a, b):
        assert set(CharSet(a) | CharSet(b)) == a | b

    @given(symbol_sets, symbol_sets)
    def test_intersection_matches_set_semantics(self, a, b):
        assert set(CharSet(a) & CharSet(b)) == a & b

    @given(symbol_sets)
    def test_complement_partition(self, a):
        cs = CharSet(a)
        assert (cs | ~cs).is_full()
        assert (cs & ~cs).is_empty()

    @given(symbol_sets)
    def test_bool_array_agrees_with_membership(self, a):
        arr = CharSet(a).to_bool_array()
        assert set(np.flatnonzero(arr)) == a

    @given(symbol_sets)
    def test_ranges_cover_exactly(self, a):
        cs = CharSet(a)
        covered = {s for lo, hi in cs.ranges() for s in range(lo, hi + 1)}
        assert covered == a

    @given(st.lists(symbol_sets, max_size=40), st.sampled_from([8, 16, 4096]))
    def test_pack_membership_matches_per_set_arrays(self, sets, chunk):
        """The one-buffer packing equals packing each set's bool array, for
        any count (not only multiples of 8) and any number of chunks."""
        import repro.core.charset as charset_module

        charsets = [CharSet(a) for a in sets]
        rows = [cs.to_bool_array() for cs in charsets] or np.zeros((0, 256), bool)
        expected = np.packbits(np.array(rows).T, axis=1, bitorder="little")
        original = charset_module._PACK_CHUNK
        charset_module._PACK_CHUNK = chunk
        try:
            packed = pack_membership(charsets)
        finally:
            charset_module._PACK_CHUNK = original
        assert packed.tolist() == expected.tolist()
