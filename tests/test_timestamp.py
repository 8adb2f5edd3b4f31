"""Unit and property tests for repro.core.timestamp."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Timestamp, ZERO


def ts(epoch, *counters):
    return Timestamp(epoch, tuple(counters))


timestamps = st.builds(
    Timestamp,
    st.integers(min_value=0, max_value=5),
    st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=2).map(tuple),
)


class TestConstruction:
    def test_zero(self):
        assert ZERO.epoch == 0
        assert ZERO.counters == ()
        assert ZERO.depth == 0

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            Timestamp(-1)

    def test_negative_counter_rejected(self):
        with pytest.raises(ValueError):
            Timestamp(0, (1, -2))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            ZERO.epoch = 3

    def test_counters_coerced_to_tuple(self):
        assert Timestamp(0, [1, 2]).counters == (1, 2)

    def test_equality_and_hash(self):
        assert ts(1, 2, 3) == ts(1, 2, 3)
        assert hash(ts(1, 2, 3)) == hash(ts(1, 2, 3))
        assert ts(1, 2, 3) != ts(1, 2, 4)
        assert ts(0) != ts(1)

    def test_repr(self):
        assert "Timestamp" in repr(ts(1, 2))


class TestPartialOrder:
    def test_epoch_order(self):
        assert ts(0).less_equal(ts(1))
        assert not ts(1).less_equal(ts(0))

    def test_product_order_requires_both(self):
        # epoch up but counters down: incomparable.
        assert not ts(1, 0).less_equal(ts(0, 5))
        assert not ts(0, 5).less_equal(ts(1, 0))
        assert not ts(1, 0).comparable(ts(0, 5))

    def test_lexicographic_counters(self):
        assert ts(0, 1, 9).less_equal(ts(0, 2, 0))
        assert not ts(0, 2, 0).less_equal(ts(0, 1, 9))

    def test_depth_mismatch_raises(self):
        with pytest.raises(ValueError):
            ts(0).less_equal(ts(0, 1))

    def test_non_timestamp_raises(self):
        with pytest.raises(TypeError):
            ts(0).less_equal("nope")

    def test_strictness(self):
        assert not ts(0, 1).less_than(ts(0, 1))
        assert ts(0, 1).less_than(ts(0, 2))

    @given(timestamps)
    def test_reflexive(self, t):
        assert t.less_equal(t)

    @given(timestamps, timestamps)
    def test_antisymmetric(self, a, b):
        if a.less_equal(b) and b.less_equal(a):
            assert a == b

    @given(timestamps, timestamps, timestamps)
    def test_transitive(self, a, b, c):
        if a.less_equal(b) and b.less_equal(c):
            assert a.less_equal(c)

    @given(timestamps, timestamps)
    def test_join_is_least_upper_bound(self, a, b):
        j = a.join(b)
        assert a.less_equal(j) and b.less_equal(j)

    @given(timestamps, timestamps)
    def test_meet_is_lower_bound(self, a, b):
        m = a.meet(b)
        assert m.less_equal(a) and m.less_equal(b)

    @given(timestamps, timestamps)
    def test_total_order_refines_partial(self, a, b):
        # The scheduling order (lexicographic) must refine the partial order.
        if a.less_equal(b):
            assert a <= b


class TestLoopActions:
    def test_entered(self):
        assert ts(3).entered() == ts(3, 0)
        assert ts(3, 1).entered() == ts(3, 1, 0)

    def test_left(self):
        assert ts(3, 1, 4).left() == ts(3, 1)

    def test_left_at_top_level_raises(self):
        with pytest.raises(ValueError):
            ts(3).left()

    def test_incremented(self):
        assert ts(3, 1).incremented() == ts(3, 2)
        assert ts(3, 1, 0).incremented() == ts(3, 1, 1)
        assert ts(3, 1).incremented(by=4) == ts(3, 5)

    def test_incremented_outside_loop_raises(self):
        with pytest.raises(ValueError):
            ts(3).incremented()

    def test_enter_then_leave_roundtrip(self):
        assert ts(2, 7).entered().left() == ts(2, 7)

    def test_paper_table(self):
        # The ingress/egress/feedback table from section 2.1.
        t = ts(5, 1, 2)
        assert t.entered() == ts(5, 1, 2, 0)
        assert ts(5, 1, 2, 9).left() == ts(5, 1, 2)
        assert t.incremented() == ts(5, 1, 3)

    def test_with_epoch(self):
        assert ts(2, 7).with_epoch(9) == ts(9, 7)


class TestValueContract:
    """A Timestamp is the tuple ``(epoch, counters)``: equality, hash and
    order are the tuple's, computed in C."""

    def test_hash_is_the_tuple_hash(self):
        # Pins dict and set iteration order to what it was before
        # Timestamp became a tuple.
        for t in (ZERO, ts(3), ts(1, 2, 3), ts(7, 0, 0, 9)):
            assert hash(t) == hash((t.epoch, t.counters))

    def test_equals_the_plain_tuple(self):
        # The one deliberate semantic change of the tuple base.
        assert ts(1, 2) == (1, (2,))
        assert (1, (2,)) == ts(1, 2)
        assert {(1, (2,)): "x"}[ts(1, 2)] == "x"
        assert ts(1, 2) != (1, (3,))

    def test_pickle_round_trip(self):
        import pickle

        t = ts(4, 1, 2)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(t, protocol))
            assert type(back) is Timestamp
            assert (back.epoch, back.counters) == (4, (1, 2))

    def test_copy_returns_self(self):
        import copy

        t = ts(4, 1, 2)
        assert copy.copy(t) is t
        assert copy.deepcopy(t) is t
        assert copy.deepcopy([t])[0] is t

    def test_no_attribute_can_be_set(self):
        t = ts(1, 2)
        with pytest.raises(AttributeError):
            t.epoch = 5
        with pytest.raises(AttributeError):
            t.counters = ()
        with pytest.raises(AttributeError):
            t.extra = 1
        assert (t.epoch, t.counters) == (1, (2,))

    def test_partial_order_rejects_plain_tuples(self):
        with pytest.raises(TypeError):
            ZERO.less_equal((0, ()))

    def test_negative_counter_anywhere_rejected(self):
        for counters in [(-1,), (0, -1), (3, 0, -5)]:
            with pytest.raises(ValueError):
                Timestamp(0, counters)
        assert Timestamp(0, ()).counters == ()

    @settings(derandomize=True, max_examples=200)
    @given(
        st.lists(
            st.builds(
                Timestamp,
                st.integers(min_value=0, max_value=4),
                st.lists(st.integers(min_value=0, max_value=3), max_size=3).map(tuple),
            ),
            max_size=12,
        )
    )
    def test_order_and_equality_are_the_tuples(self, stamps):
        def key(t):
            return (t.epoch, t.counters)

        assert [key(t) for t in sorted(stamps)] == sorted(key(t) for t in stamps)
        for a in stamps:
            for b in stamps:
                assert (a == b) == (key(a) == key(b))
                assert (a < b) == (key(a) < key(b))
                assert (a <= b) == (key(a) <= key(b))
