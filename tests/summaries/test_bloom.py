"""Tests for Bloom filters, including the paper's merge conditions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.summaries.bloom import BigIntBloomFilter, BloomFilter, bits_for


class TestSizing:
    def test_paper_configuration(self):
        # One hash function at 5% FP means roughly 20 bits per item.
        assert bits_for(1000, 0.05, 1) == pytest.approx(1000 / 0.05, rel=0.05)

    def test_min_size_for_empty(self):
        assert bits_for(0, 0.05, 1) >= 64

    def test_bad_fp_rejected(self):
        with pytest.raises(ValueError):
            bits_for(10, 0.0, 1)
        with pytest.raises(ValueError):
            bits_for(10, 1.5, 1)

    def test_more_hashes_allowed(self):
        assert bits_for(1000, 0.01, 4) > 0


class TestMembership:
    def test_no_false_negatives(self):
        bloom = BloomFilter.from_values(range(500))
        assert all(v in bloom for v in range(500))

    def test_false_positive_rate_near_target(self):
        bloom = BloomFilter.from_values(range(2000), fp_rate=0.05)
        false_hits = sum(1 for v in range(10_000, 30_000) if v in bloom)
        assert false_hits / 20_000 < 0.10  # 5% target, generous bound

    def test_empty_filter_rejects(self):
        bloom = BloomFilter(100)
        assert 42 not in bloom

    def test_strings_and_mixed_values(self):
        bloom = BloomFilter.from_values(["FRANCE", "GERMANY", 7])
        assert "FRANCE" in bloom
        assert 7 in bloom

    def test_requires_hash_function(self):
        with pytest.raises(ValueError):
            BloomFilter(10, n_hashes=0)


class TestMerge:
    def test_intersection_superset_of_true_intersection(self):
        a = BloomFilter(300, n_bits=8192)
        b = BloomFilter(300, n_bits=8192)
        for v in range(0, 300):
            a.add(v)
        for v in range(200, 500):
            b.add(v)
        merged = a.intersect(b)
        assert all(v in merged for v in range(200, 300))

    def test_union_contains_both(self):
        a = BloomFilter(100)
        b = BloomFilter(100)
        a.add("x")
        b.add("y")
        merged = a.union(b)
        assert "x" in merged and "y" in merged

    def test_incompatible_geometry_rejected(self):
        a = BloomFilter(10)
        b = BloomFilter(100_000)
        assert not a.compatible_with(b)
        with pytest.raises(ValueError):
            a.intersect(b)
        with pytest.raises(ValueError):
            a.union(b)

    def test_different_seed_rejected(self):
        a = BloomFilter(100, seed=1)
        b = BloomFilter(100, seed=2)
        with pytest.raises(ValueError):
            a.intersect(b)


class TestAccounting:
    def test_byte_size(self):
        bloom = BloomFilter(1000, fp_rate=0.05, n_hashes=1)
        assert bloom.byte_size() == bloom.n_bits // 8 + 1

    def test_fill_fraction_grows(self):
        bloom = BloomFilter(100)
        before = bloom.fill_fraction
        for v in range(50):
            bloom.add(v)
        assert bloom.fill_fraction > before


def _pair(values, seed=3, n_bits=4096):
    """The same value set in both storage implementations."""
    word = BloomFilter(0, seed=seed, n_bits=n_bits)
    ref = BigIntBloomFilter(0, seed=seed, n_bits=n_bits)
    word.add_many(values)
    ref.add_many(values)
    return word, ref


class TestWordBitsetEquivalence:
    """The word-indexed bitset must hold *identical bit positions* to
    the original big-int layout — the invariant every pruning-decision
    equivalence guarantee rests on."""

    def test_identical_bits_and_bookkeeping(self):
        word, ref = _pair(list(range(700)) + ["FRANCE", ("k", 2)])
        assert word.bits_as_int() == ref.bits_as_int()
        assert word.n_added == ref.n_added
        assert word.byte_size() == ref.byte_size()
        assert word.fill_fraction == pytest.approx(ref.fill_fraction)

    def test_probe_agreement(self):
        word, ref = _pair(range(0, 600, 2))
        probes = list(range(900)) + ["x"]
        assert word.might_contain_many(probes) == ref.might_contain_many(probes)
        assert [p in word for p in probes] == word.might_contain_many(probes)

    def test_multi_hash_agreement(self):
        word = BloomFilter(0, n_hashes=4, seed=9, n_bits=2048)
        ref = BigIntBloomFilter(0, n_hashes=4, seed=9, n_bits=2048)
        word.add_many(range(100))
        ref.add_many(range(100))
        assert word.bits_as_int() == ref.bits_as_int()
        probes = range(400)
        assert word.might_contain_many(probes) == ref.might_contain_many(probes)


class TestMergeAcrossImplementations:
    """``intersect``/``union`` over word arrays must equal the big-int
    reference results bit-for-bit, including ``n_added`` bookkeeping and
    ``byte_size`` — in all four operand-implementation pairings."""

    def _quads(self):
        a_vals, b_vals = list(range(0, 300)), list(range(200, 500))
        wa, ra = _pair(a_vals, seed=7, n_bits=8192)
        wb, rb = _pair(b_vals, seed=7, n_bits=8192)
        return (wa, ra), (wb, rb)

    @pytest.mark.parametrize("op", ["intersect", "union"])
    def test_merge_bit_identical(self, op):
        (wa, ra), (wb, rb) = self._quads()
        reference = getattr(ra, op)(rb)
        for left, right in ((wa, wb), (wa, rb), (ra, wb)):
            merged = getattr(left, op)(right)
            assert merged.bits_as_int() == reference.bits_as_int()
            assert merged.n_added == reference.n_added
            assert merged.byte_size() == reference.byte_size()

    def test_merge_result_implementation_follows_left_operand(self):
        (wa, ra), (wb, rb) = self._quads()
        assert type(wa.intersect(rb)) is BloomFilter
        assert type(ra.intersect(wb)) is BigIntBloomFilter

    def test_incompatible_still_rejected_across_impls(self):
        word = BloomFilter(100, seed=1)
        ref = BigIntBloomFilter(100, seed=2)
        with pytest.raises(ValueError):
            word.intersect(ref)


class TestPayloadRoundTrip:
    """Distributed shipping serializes filters by geometry + words; both
    implementations speak the same little-endian wire format."""

    def test_round_trip_preserves_bits(self):
        word, ref = _pair(range(250), seed=11)
        assert word.to_payload() == ref.to_payload()
        for cls in (BloomFilter, BigIntBloomFilter):
            clone = cls.from_payload(word.to_payload())
            assert clone.bits_as_int() == word.bits_as_int()
            assert clone.n_added == word.n_added
            assert clone.compatible_with(word)
            assert clone.might_contain_many(range(400)) == \
                word.might_contain_many(range(400))

    def test_geometry_mismatch_rejected(self):
        word, _ = _pair(range(10))
        payload = word.to_payload()
        payload["words"] = payload["words"][:-8]
        with pytest.raises(ValueError):
            BloomFilter.from_payload(payload)

    def test_non_bloom_payload_rejected(self):
        with pytest.raises(ValueError):
            BloomFilter.from_payload({"kind": "hashset"})


class TestBloomProperties:
    @given(st.lists(st.integers(), max_size=200), st.integers())
    @settings(max_examples=60, deadline=None)
    def test_membership_property(self, values, probe):
        bloom = BloomFilter.from_values(values)
        for v in values:
            assert v in bloom
        # A probe never in the values may be a false positive, but adding
        # it must make it present.
        bloom.add(probe)
        assert probe in bloom

    @given(st.lists(st.integers(), max_size=100),
           st.lists(st.integers(), max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_union_law(self, xs, ys):
        a = BloomFilter(256, seed=5, n_bits=4096)
        b = BloomFilter(256, seed=5, n_bits=4096)
        for x in xs:
            a.add(x)
        for y in ys:
            b.add(y)
        merged = a.union(b)
        for v in xs + ys:
            assert v in merged


class TestBatchKernelsMatchPerElement:
    """``add_many``/``might_contain_many`` hash ints without calling
    ``stable_key``; every key type must still set the same words and
    give the same verdicts as per-element ``add``/``might_contain``."""

    KEYS = {
        "int": [0, 1, -7, 2**40, 123456789, 42, 42],
        "bool": [True, False, True],
        "float": [0.5, -1.25, 3.0, 1e300],
        "str": ["", "BRASS", "ECONOMY ANODIZED", "ÄÖÜ"],
        "tuple": [(1, "a"), (2, 3.5), ("x", ("y", 4)), ()],
    }

    @pytest.mark.parametrize("n_hashes", [1, 3])
    @pytest.mark.parametrize("kind", sorted(KEYS))
    def test_words_and_verdicts(self, kind, n_hashes):
        keys = self.KEYS[kind]
        probes = keys + [10**6, "absent", (9, "z"), 7.75, False]
        batch = BloomFilter(8, n_hashes=n_hashes, seed=5)
        single = BloomFilter(8, n_hashes=n_hashes, seed=5)
        batch.add_many(keys)
        for key in keys:
            single.add(key)
        assert batch._words == single._words
        assert batch.n_added == single.n_added
        assert batch.might_contain_many(probes) == [
            single.might_contain(p) for p in probes
        ]
        assert all(batch.might_contain_many(keys))
