import pytest

from prmlearn import (
    Alphabet,
    EMPTY_LABEL,
    EPSILON,
    label_str,
    parse_label,
    parse_word,
    word_str,
)
from prmlearn.alphabet import format_reward, label_sort_key, parse_reward


def test_alphabet_rejects_duplicates_and_bad_names():
    with pytest.raises(ValueError):
        Alphabet(["a", "a"])
    with pytest.raises(ValueError):
        Alphabet([""])
    with pytest.raises(ValueError):
        Alphabet(["a&b"])
    with pytest.raises(ValueError):
        Alphabet(["a;b"])
    # marks the text formats split on, and whitespace, which they strip
    for name in ["a,b", "a:b", "a/b", "a--b", "a b", "a\tb", " a", "a ", "a\n", "\u2028a"]:
        with pytest.raises(ValueError):
            Alphabet([name])


def test_labels_enumerates_power_set_in_canonical_order():
    ap = Alphabet(["b", "a"])
    labels = ap.labels()
    assert labels == sorted(labels, key=label_sort_key)
    assert len(labels) == 4
    assert labels[0] == EMPTY_LABEL
    assert frozenset({"a", "b"}) in labels


def test_labels_cap():
    ap = Alphabet([f"p{i}" for i in range(20)])
    with pytest.raises(ValueError):
        ap.labels()


def test_validate_label():
    ap = Alphabet(["a"])
    assert ap.validate_label(frozenset({"a"})) == frozenset({"a"})
    with pytest.raises(ValueError):
        ap.validate_label(frozenset({"z"}))


def test_label_round_trip():
    for text in ("a", "a&b", "ε", "~", ""):
        label = parse_label(text)
        assert parse_label(label_str(label)) == label
    assert parse_label("b&a") == frozenset({"a", "b"})
    assert label_str(frozenset({"b", "a"})) == "a&b"
    assert label_str(EMPTY_LABEL) == "ε"


def test_word_round_trip():
    word = (frozenset({"c"}), EMPTY_LABEL, frozenset({"a", "b"}))
    assert parse_word(word_str(word)) == word
    assert parse_word("c;~;a&b") == word
    assert parse_word("") == EPSILON
    assert word_str(EPSILON) == "ε"


def test_malformed_label():
    with pytest.raises(ValueError):
        parse_label("a&&b")


def test_reward_formatting():
    assert format_reward(1.0) == "1"
    assert format_reward(0) == "0"
    assert parse_reward(format_reward(0.5)) == 0.5
    assert parse_reward("1") == 1.0


@pytest.mark.parametrize("text", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
def test_non_finite_reward_rejected(text):
    with pytest.raises(ValueError, match="finite"):
        parse_reward(text)
