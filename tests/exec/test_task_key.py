"""Canonicalization of cache-key payloads (repro.exec.cache).

The content hash behind the result cache and the resume journal must
be a pure function of configuration *content*: representation
accidents (dict insertion order, ``-0.0`` vs ``0.0``, tuple vs list)
must not fork the key space, and values with no canonical form (NaN,
infinities, non-string mapping keys) must be rejected loudly rather
than hashed into silent cache aliasing.
"""

import math

import pytest

from repro.exec import canonical_blob, canonicalize


class TestMappingOrder:
    def test_insertion_order_does_not_change_blob(self):
        forward = {"rob": 32, "lsq": 16, "alus": 4}
        backward = {}
        for key in reversed(list(forward)):
            backward[key] = forward[key]
        assert list(forward) != list(backward)
        assert canonical_blob(forward) == canonical_blob(backward)

    def test_nested_mapping_order(self):
        a = {"config": {"x": 1, "y": 2}, "trace": "gzip"}
        b = {"trace": "gzip", "config": {"y": 2, "x": 1}}
        assert canonical_blob(a) == canonical_blob(b)

    def test_non_string_keys_rejected(self):
        with pytest.raises(ValueError, match="string keys"):
            canonicalize({1: "x"})

    def test_key_order_is_sorted(self):
        assert list(canonicalize({"b": 1, "a": 2})) == ["a", "b"]


class TestFloatCanonicalization:
    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            canonicalize({"latency": float("nan")})

    def test_infinities_rejected(self):
        for bad in (float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite"):
                canonicalize([bad])

    def test_negative_zero_normalized(self):
        assert canonical_blob({"x": -0.0}) == canonical_blob({"x": 0.0})
        value = canonicalize(-0.0)
        assert value == 0.0 and not math.copysign(1.0, value) < 0

    def test_ordinary_floats_unchanged(self):
        assert canonicalize(1.5) == 1.5
        assert canonicalize(-2.25) == -2.25


class TestContainers:
    def test_sets_become_sorted_lists(self):
        assert canonicalize({3, 1, 2}) == [1, 2, 3]
        assert canonicalize(frozenset({"b", "a"})) == ["a", "b"]

    def test_tuples_and_lists_converge(self):
        assert canonical_blob((1, 2, 3)) == canonical_blob([1, 2, 3])

    def test_bools_are_not_floats(self):
        # bool is an int subclass; it must survive untouched rather
        # than normalize through the float path.
        assert canonicalize(True) is True

    def test_fallback_stringifies_exotic_scalars(self):
        class Tag:
            def __str__(self):
                return "tag"

        assert canonicalize(Tag()) == "tag"

    def test_blob_is_compact_stable_json(self):
        blob = canonical_blob({"b": [2.0, {"z": 1}], "a": None})
        assert blob == b'{"a":null,"b":[2.0,{"z":1}]}'


class TestTaskKeyIntegration:
    def test_key_stable_across_payload_representation(self):
        """task_key level: two tasks whose configs differ only in
        field *ordering* of the underlying dict hash identically
        (dataclasses fix the order; this guards the hashing layer
        against regressions if the payload is ever built by hand)."""
        from repro.cpu import MachineConfig
        from repro.exec import SimTask, task_key
        from repro.workloads import benchmark_trace

        trace = benchmark_trace("gzip", 600)
        a = SimTask(config=MachineConfig(), trace=trace)
        b = SimTask(config=MachineConfig(), trace=trace)
        assert task_key(a) == task_key(b)

    def test_precompute_table_insertion_order_irrelevant(self):
        from repro.cpu import MachineConfig
        from repro.exec import SimTask, task_key
        from repro.workloads import benchmark_trace

        trace = benchmark_trace("gzip", 600)
        a = SimTask(config=MachineConfig(), trace=trace,
                    precompute_table=frozenset([3, 1, 2]))
        b = SimTask(config=MachineConfig(), trace=trace,
                    precompute_table=frozenset([2, 3, 1]))
        assert task_key(a) == task_key(b)


class TestCoreFamily:
    """Only the normalized core *family* enters a cache key: the
    equivalent batched names share entries, while the reference
    oracle's measurements never mix with the cores it arbitrates."""

    def test_batched_variants_share_keys(self):
        from repro.cpu import MachineConfig
        from repro.exec import SimTask, task_key
        from repro.workloads import benchmark_trace

        trace = benchmark_trace("gzip", 600)
        keys = {
            task_key(SimTask(config=MachineConfig(), trace=trace,
                             core=core))
            for core in ("batched", "batched-native")
        }
        assert len(keys) == 1

    def test_reference_is_segregated(self):
        from repro.cpu import MachineConfig
        from repro.exec import SimTask, task_key
        from repro.workloads import benchmark_trace

        trace = benchmark_trace("gzip", 600)
        batched = task_key(SimTask(config=MachineConfig(),
                                   trace=trace, core="batched"))
        reference = task_key(SimTask(config=MachineConfig(),
                                     trace=trace, core="reference"))
        assert batched != reference

    def test_family_normalization(self):
        from repro.exec import core_family

        assert core_family("reference") == "reference"
        for core in ("batched", "batched-native"):
            assert core_family(core) == "batched"
