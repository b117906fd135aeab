import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polyfrac.streams import (BitStream, child_bits, index_states, label_path,
                              path_state)


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


def test_slash_in_a_label_is_refused():
    # "a/b" would hash like the two labels "a", "b"
    for labels in [("a/b",), ("point", "/"), (1, "x/")]:
        with pytest.raises(ValueError):
            label_path(*labels)
        with pytest.raises(ValueError):
            BitStream(0, *labels)
    assert label_path("a", "b") == b"/a/b"
    assert label_path() == b""


# 700 bits of the stream for coordinate 1, block 2 of point 3 at seed 7,
# frozen so that any change to the key or counter layout fails loudly
GOLDEN_700 = (
    "6b831c06eeb9ca1b352881126a08a12aa9e848f6c02eeb9febfb0266d39f155c"
    "74b1687e75147ad888fc571ff580e6fc68e70baff9cf1b722a471776a0a84dab"
    "55e66453d3309c3e5a3529744113ed8f7c2ea58874952fe")


def test_stream_layout_frozen():
    bits = BitStream(7, "point", 3, "coord", 1, "block", 2).take_bits(700)
    assert format(bits, "0175x") == GOLDEN_700


def test_child_bits_extend_the_label_path():
    root = path_state(7, "point", 3, "coord")
    for labels in [(1, "block", 2), (0,), ()]:
        assert child_bits([root], label_path(*labels), 1500) == \
            [BitStream(7, "point", 3, "coord", *labels).take_bits(1500)]
    grand = child_bits([path_state(7, "point")],
                       label_path(3, "coord", 1, "block", 2), 700)
    assert [format(g, "0175x") for g in grand] == [GOLDEN_700]
    # index_states extends a path by an int label and a tail path
    [state] = index_states(path_state(7, "point"), [3], label_path("coord"))
    assert child_bits([state], label_path(1, "block", 2), 700) == grand


_LABEL = st.one_of(st.integers(min_value=-10**6, max_value=10**6),
                   st.text(alphabet="abcxyz019_ -", max_size=6))


@given(n=st.integers(min_value=0, max_value=2100),
       prefix=st.lists(_LABEL, max_size=3),
       labels=st.lists(_LABEL, max_size=3),
       ahead=st.integers(min_value=0, max_value=20))
@example(n=511, prefix=[], labels=[1, "block", 2], ahead=0)
@example(n=512, prefix=["coord"], labels=[0], ahead=3)
@example(n=513, prefix=["point", 3], labels=["coord", 1], ahead=512)
@example(n=1024, prefix=[], labels=[], ahead=0)
@example(n=1025, prefix=["x"], labels=["7", 7], ahead=1)
# deep's widest draw: 19 blocks of one keyed stream
@example(n=9600, prefix=["point", 3, "coord"], labels=[0, "block", 6],
         ahead=0)
def test_child_bits_match_the_full_path(n, prefix, labels, ahead):
    # the stream is last in a batch of ahead + 1: its place there does not
    # matter
    states = index_states(path_state(11, *prefix), range(ahead), b"")
    states.append(path_state(11, *prefix))
    want = BitStream(11, *prefix, *labels).take_bits(n)
    got = child_bits(states, label_path(*labels), n)
    assert len(got) == ahead + 1 and got[-1] == want
    if ahead:  # and the first sibling, path (11, *prefix, 0), is its own
        assert got[0] == BitStream(11, *prefix, 0, *labels).take_bits(n)
    # the states are only copied: a second batch draws the same bits
    assert child_bits(states, label_path(*labels), n)[-1] == want


def test_child_bits_reject_negative_count():
    s = path_state(0, "x")
    assert child_bits([s], label_path("y"), 0) == [0]
    with pytest.raises(ValueError):
        child_bits([s], label_path("y"), -1)
    with pytest.raises(ValueError):
        path_state(-1, "x")


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
    for bad in (-1, 1 << 64, 7.5, True):
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
    seen = {s.take_bits(1) for _ in range(64)}
    assert seen <= {0, 1}
    assert len(seen) == 2  # 64 fair coin flips collapsing to one value: 2**-63
