"""Tests for Bloom filters, including the paper's merge conditions."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.summaries.bloom import BloomFilter, bits_for

from tests.goldens import BLOOM, assert_matches_golden, bloom_fields


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


def _paper_filter():
    """The paper's configuration, sized by ``from_values``."""
    return BloomFilter.from_values(range(500))


class TestMembership:
    def test_no_false_negatives(self):
        bloom = _paper_filter()
        assert all(v in bloom for v in range(500))
        assert_matches_golden("paper/500", bloom_fields(bloom), BLOOM)

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

    def test_incompatible_geometry_rejected(self):
        a = BloomFilter(10)
        b = BloomFilter(100_000)
        assert not a.compatible_with(b)
        with pytest.raises(ValueError):
            a.intersect(b)

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


def _filled(values, seed=3, n_bits=4096, n_hashes=1):
    """An explicit-geometry filter (the AIP-set form) over ``values``."""
    bloom = BloomFilter(0, n_hashes=n_hashes, seed=seed, n_bits=n_bits)
    bloom.add_many(values)
    return bloom


def _observe(bloom, probes=None):
    """The golden fields of ``bloom``, plus its verdicts on ``probes``
    as a 0/1 string."""
    fields = bloom_fields(bloom)
    if probes is not None:
        fields["probe_hits"] = "".join(
            "1" if hit else "0" for hit in bloom.might_contain_many(probes)
        )
    return fields


BITS_VALUES = list(range(700)) + ["FRANCE", ("k", 2)]
PROBES = list(range(900)) + ["x"]
MERGE_A, MERGE_B = range(0, 300), range(200, 500)


def _merged(op):
    """The ``op/seed7/8192`` cell's filter: the two operands'
    ``intersect``, or for ``union`` the filter over both operands'
    values, which is bit for bit the OR of their words."""
    if op == "union":
        return _filled(list(MERGE_A) + list(MERGE_B), seed=7, n_bits=8192)
    a = _filled(MERGE_A, seed=7, n_bits=8192)
    b = _filled(MERGE_B, seed=7, n_bits=8192)
    return a.intersect(b)


class TestWordBitsetEquivalence:
    """The word-indexed bitset holds the bit positions in
    ``tests/goldens/bloom.json``, recorded from this implementation and
    from the original big-int layout alike — the invariant every
    pruning-decision equivalence guarantee rests on."""

    def test_identical_bits_and_bookkeeping(self):
        word = _filled(BITS_VALUES)
        assert_matches_golden("bits/seed3/4096", _observe(word), BLOOM)
        # bits_as_int() is the big-int layout of the same words.
        assert word.bits_as_int() == int.from_bytes(
            word.to_payload()["words"], "little",
        )
        assert word.fill_fraction == pytest.approx(
            bin(word.bits_as_int()).count("1") / word.n_bits
        )

    def test_probe_agreement(self):
        word = _filled(range(0, 600, 2))
        assert_matches_golden(
            "probe/seed3/4096", _observe(word, PROBES), BLOOM,
        )
        assert [p in word for p in PROBES] == word.might_contain_many(PROBES)

    def test_multi_hash_agreement(self):
        word = _filled(range(100), seed=9, n_bits=2048, n_hashes=4)
        assert_matches_golden(
            "hashes4/seed9/2048", _observe(word, range(400)), BLOOM,
        )


class TestMergeAcrossImplementations:
    """``intersect`` over word arrays, and a filter built over both
    operands' values, equal the golden ``intersect`` and ``union``
    results bit-for-bit, including ``n_added`` bookkeeping and
    ``byte_size``; the golden was recorded from the word-indexed and the
    big-int implementations alike, the union as the OR of the operands'
    words."""

    @pytest.mark.parametrize("op", ["intersect", "union"])
    def test_merge_bit_identical(self, op):
        assert_matches_golden("%s/seed7/8192" % op, _observe(_merged(op)), BLOOM)


class TestPayloadRoundTrip:
    """Distributed shipping serializes filters by geometry + words, as
    little-endian 64-bit words."""

    def test_round_trip_preserves_bits(self):
        word = _filled(range(250), seed=11)
        assert_matches_golden("payload/seed11/4096", _observe(word), BLOOM)
        clone = BloomFilter.from_payload(word.to_payload())
        assert clone.bits_as_int() == word.bits_as_int()
        assert clone.n_added == word.n_added
        assert clone.compatible_with(word)
        assert clone.might_contain_many(range(400)) == \
            word.might_contain_many(range(400))

    def test_geometry_mismatch_rejected(self):
        payload = _filled(range(10)).to_payload()
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

    @classmethod
    def batch_filter(cls, kind, n_hashes):
        batch = BloomFilter(8, n_hashes=n_hashes, seed=5)
        batch.add_many(cls.KEYS[kind])
        return batch

    @pytest.mark.parametrize("n_hashes", [1, 3])
    @pytest.mark.parametrize("kind", sorted(KEYS))
    def test_words_and_verdicts(self, kind, n_hashes):
        keys = self.KEYS[kind]
        probes = keys + [10**6, "absent", (9, "z"), 7.75, False]
        batch = self.batch_filter(kind, n_hashes)
        single = BloomFilter(8, n_hashes=n_hashes, seed=5)
        for key in keys:
            single.add(key)
        assert_matches_golden(
            "kernel/%s/hashes%d" % (kind, n_hashes), _observe(batch), BLOOM,
        )
        assert batch._words == single._words
        assert batch.n_added == single.n_added
        assert batch.might_contain_many(probes) == [
            single.might_contain(p) for p in probes
        ]
        assert all(batch.might_contain_many(keys))


#: Keys whose equal members must share bit positions: equal numbers of
#: three types (``1``/``1.0``/``True``), signed zeros, a fresh NaN
#: object per draw (no two are equal), strings, tuples and ``None``.
MIXED_KEYS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([1, 1.0, True, 0, 0.0, -0.0, False, 2**70, 0.5]),
    st.builds(float, st.just("nan")),
    st.text(max_size=3),
    st.tuples(st.integers(0, 2), st.sampled_from(["x", 1.0, True, -0.0])),
    st.none(),
)


class TestDistinctKeyKernels:
    """``add_many`` and ``might_contain_many`` hash each distinct key
    once; on mixed keys with repeats they must still give exactly the
    per-value words and verdicts, and the big-int merges exactly the
    word-by-word ones."""

    @given(
        st.lists(MIXED_KEYS, max_size=60),
        st.lists(MIXED_KEYS, max_size=30),
        st.sampled_from([1, 3]),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_equals_per_value(self, values, probes, n_hashes):
        # Repeat keys, the same NaN objects included.
        values = values + values[::2]
        per_value = BloomFilter(0, n_hashes=n_hashes, seed=13, n_bits=512)
        for v in values:
            per_value.add(v)
        for batch_input in (values, iter(values)):
            batch = BloomFilter(0, n_hashes=n_hashes, seed=13, n_bits=512)
            batch.add_many(batch_input)
            assert batch._words == per_value._words
            assert batch.n_added == per_value.n_added == len(values)
        probes = probes + values
        assert batch.might_contain_many(probes) == [
            batch.might_contain(p) for p in probes
        ]
        assert batch.might_contain_many(iter(probes)) == [
            batch.might_contain(p) for p in probes
        ]

    @given(st.lists(MIXED_KEYS, max_size=80),
           st.lists(MIXED_KEYS, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_merges_equal_the_word_loop(self, xs, ys):
        a = _filled(xs, seed=7, n_bits=1000)
        b = _filled(ys, seed=7, n_bits=1000)
        assert a.intersect(b)._words == array(
            "Q", (x & y for x, y in zip(a._words, b._words))
        )


def golden_cells():
    """``(suite, key, record)`` for every filter this module checks: the
    recorder's input (``python -m tests.goldens.record``)."""
    cells = {
        "paper/500": lambda: _observe(_paper_filter()),
        "bits/seed3/4096": lambda: _observe(_filled(BITS_VALUES)),
        "probe/seed3/4096": lambda: _observe(
            _filled(range(0, 600, 2)), PROBES,
        ),
        "hashes4/seed9/2048": lambda: _observe(
            _filled(range(100), seed=9, n_bits=2048, n_hashes=4), range(400),
        ),
        "intersect/seed7/8192": lambda: _observe(_merged("intersect")),
        "union/seed7/8192": lambda: _observe(_merged("union")),
        "payload/seed11/4096": lambda: _observe(_filled(range(250), seed=11)),
    }
    for kind in TestBatchKernelsMatchPerElement.KEYS:
        for n_hashes in (1, 3):
            cells["kernel/%s/hashes%d" % (kind, n_hashes)] = (
                lambda k=kind, n=n_hashes: _observe(
                    TestBatchKernelsMatchPerElement.batch_filter(k, n)
                )
            )
    for key, record in cells.items():
        yield BLOOM, key, record
