import pytest
from hypothesis import given
from hypothesis import strategies as st

from tautloop import words


def w(spec):
    """Compact word builder: 'a b- a' -> ((a,1),(b,-1),(a,1))."""
    out = []
    for part in spec.split():
        if part.endswith("-"):
            out.append((part[:-1], -1))
        else:
            out.append((part, 1))
    return tuple(out)


letters = st.tuples(st.sampled_from("abc"), st.sampled_from([1, -1]))
word_st = st.lists(letters, max_size=12).map(tuple)


def test_word_rejects_bad_exponent():
    # an exponent is the integer 1 or -1, not a boolean or float equal to one
    for exp in (2, True, 1.0, -1.0):
        with pytest.raises(ValueError):
            words.word([("a", exp)])


def test_invert_reverses_and_flips():
    assert words.invert(w("a b-")) == w("b a-")
    assert words.invert(()) == ()


def test_free_reduce_cancels_adjacent_pairs():
    assert words.free_reduce(w("a a- b")) == w("b")
    assert words.free_reduce(w("a b b- a-")) == ()
    assert words.free_reduce(w("a b a-")) == w("a b a-")


def test_cyclic_reduce_strips_conjugation():
    assert words.cyclic_reduce(w("a b a-")) == w("b")
    assert words.cyclic_reduce(w("a b- c b a-")) == w("c")


def test_normalize_collapses_formal_inverse_pairs():
    # 'b' is declared the formal inverse of 'a'; the lex-smaller symbol wins
    pairing = {"a": "b", "b": "a"}
    assert words.normalize(w("b"), pairing) == w("a-")
    assert words.free_reduce(words.normalize(w("a b"), pairing)) == ()


@pytest.mark.parametrize("pairs", [[("a", "a")], [("a", "c"), ("b", "c")], [("a", "b"), ("b", "a")]])
def test_pairing_map_rejects_a_self_pair_and_a_symbol_in_two_pairs(pairs):
    with pytest.raises(ValueError):
        words.pairing_map(pairs)


def test_canonical_cyclic_identifies_rotations_and_inverses():
    base = w("a a b")
    for rot in words.rotations(base):
        assert words.canonical_cyclic(rot) == words.canonical_cyclic(base)
    assert words.canonical_cyclic(words.invert(base)) == words.canonical_cyclic(base)


def test_format_word():
    assert words.format_word(()) == "1"
    assert words.format_word(w("a b-")) == "a b^-1"


@given(word_st)
def test_free_reduce_idempotent(u):
    r = words.free_reduce(u)
    assert words.free_reduce(r) == r


@given(word_st)
def test_inverse_cancels_to_empty(u):
    assert words.free_reduce(u + words.invert(u)) == ()


@given(word_st)
def test_json_round_trip(u):
    assert words.from_json(words.to_json(u)) == u


@given(word_st)
def test_canonical_cyclic_is_a_fixed_point(u):
    c = words.canonical_cyclic(u)
    assert words.canonical_cyclic(c) == c


@given(word_st)
def test_canonical_cyclic_is_the_least_of_all_rotations(u):
    # the least rotation of the cyclic reduction, either way round, with
    # every rotation built
    r = words.cyclic_reduce(u)
    want = min(words.rotations(r) + words.rotations(words.invert(r))) if r else ()
    assert words.canonical_cyclic(u) == want
