import pytest
from hypothesis import given
from hypothesis import strategies as st

from polyfrac.streams import BitStream


def test_deterministic_across_instances():
    a = BitStream(7, "point", 3, "coord", 1)
    b = BitStream(7, "point", 3, "coord", 1)
    assert [a.take_bits(13) for _ in range(40)] == [b.take_bits(13) for _ in range(40)]


def test_labels_change_the_stream():
    base = BitStream(0, "x").take_bits(64)
    assert BitStream(0, "y").take_bits(64) != base
    assert BitStream(1, "x").take_bits(64) != base
    # joined labels must not collide with split ones
    assert BitStream(0, "ab", "c").take_bits(64) != BitStream(0, "a", "bc").take_bits(64)


# 700 bits of the stream for coordinate 1, block 2 of point 3 at seed 7,
# frozen so that any change to the key or counter layout fails loudly
GOLDEN_700 = (
    "6b831c06eeb9ca1b352881126a08a12aa9e848f6c02eeb9febfb0266d39f155c"
    "74b1687e75147ad888fc571ff580e6fc68e70baff9cf1b722a471776a0a84dab"
    "55e66453d3309c3e5a3529744113ed8f7c2ea58874952fe")


def test_stream_layout_frozen():
    bits = BitStream(7, "point", 3, "coord", 1, "block", 2).take_bits(700)
    assert format(bits, "0175x") == GOLDEN_700


def test_child_extends_the_label_path():
    root = BitStream(7, "point", 3, "coord")
    root.take_bits(100)  # what the parent drew does not matter
    for labels in [(1, "block", 2), (0,), ()]:
        child = root.child(*labels)
        assert child.take_bits(1500) == \
            BitStream(7, "point", 3, "coord", *labels).take_bits(1500)
    grand = BitStream(7, "point").child(3).child("coord", 1, "block", 2)
    assert format(grand.take_bits(700), "0175x") == GOLDEN_700


def test_chunking_does_not_matter():
    whole = BitStream(3, "chunk").take_bits(700)
    s = BitStream(3, "chunk")
    parts = 0
    for n in (1, 511, 7, 181):
        parts = (parts << n) | s.take_bits(n)
    assert parts == whole


def test_refill_boundary():
    # 512 bits per block; draw exactly one block then cross into the next
    s = BitStream(9, "edge")
    first = s.take_bits(512)
    assert 0 <= first < 1 << 512
    assert s.take_bits(1) in (0, 1)


def test_take_bits_zero():
    s = BitStream(0)
    assert s.take_bits(0) == 0
    with pytest.raises(ValueError):
        s.take_bits(-1)


def test_seed_range():
    BitStream((1 << 64) - 1)
    for bad in (-1, 1 << 64, 7.5):
        with pytest.raises(ValueError):
            BitStream(bad)


@given(st.integers(min_value=1, max_value=1000))
def test_randrange_in_range(n):
    s = BitStream(5, "rr", n)
    for _ in range(20):
        assert 0 <= s.randrange(n) < n


def test_randrange_rejects_nonpositive():
    with pytest.raises(ValueError):
        BitStream(0).randrange(0)


def test_take_bit_is_single():
    s = BitStream(2, "bits")
    seen = {s.take_bit() for _ in range(64)}
    assert seen <= {0, 1}
    assert len(seen) == 2  # 64 fair coin flips collapsing to one value: 2**-63
