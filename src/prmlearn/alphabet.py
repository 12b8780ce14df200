"""Atomic propositions, labels and words.

A label is a subset of atomic propositions (a frozenset of proposition
names); a word is a finite tuple of labels.  Canonical serialization:
propositions sorted and joined by "&", the empty label printed as
EMPTY_LABEL_CHAR.  On the command line "~" is accepted for the empty
label and labels inside a word are separated by ";".
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import Iterable

Label = frozenset
Word = tuple

EMPTY_LABEL: Label = frozenset()
EPSILON: Word = ()

EMPTY_LABEL_CHAR = "ε"  # ε
CLI_EMPTY_LABEL_CHAR = "~"
WORD_SEPARATOR = ";"
LABELS_CAP = 2 ** 16
# What the text formats split on: "&" within a label, ";" between labels
# and trace fields, "," in a machine's `ap:` line, and ":", "/" and "--"
# in its edge lines.  A proposition name holds none of them and no
# whitespace, which the formats strip or split lines on.
RESERVED_MARKS = ("&", ";", ",", ":", "/", "--")


class Alphabet:
    """An ordered finite set of atomic proposition names."""

    def __init__(self, props: Iterable[str]):
        props = tuple(props)
        if len(set(props)) != len(props):
            raise ValueError("duplicate proposition names: %r" % (props,))
        for p in props:
            if (
                not p
                or p in (EMPTY_LABEL_CHAR, CLI_EMPTY_LABEL_CHAR)
                or any(mark in p for mark in RESERVED_MARKS)
                or any(ch.isspace() for ch in p)
            ):
                raise ValueError("invalid proposition name: %r" % (p,))
        self.props = props
        self._index = {p: i for i, p in enumerate(props)}
        self._labels = None   # labels(), built on first use

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.props == other.props

    def __repr__(self) -> str:
        return "Alphabet(%r)" % (list(self.props),)

    def validate_label(self, label: Label) -> Label:
        for p in label:
            if p not in self._index:
                raise ValueError("label %s uses unknown proposition %r" % (label_str(label), p))
        return label

    def labels(self) -> list:
        """A new list of all of 2^AP in canonical order.  Errors out past
        LABELS_CAP labels."""
        n = 2 ** len(self.props)
        if n > LABELS_CAP:
            raise ValueError(
                "enumeration of 2^AP needs %d labels, exceeding the cap of %d" % (n, LABELS_CAP)
            )
        if self._labels is None:
            out = [EMPTY_LABEL]
            for k in range(1, len(self.props) + 1):
                out.extend(map(frozenset, combinations(self.props, k)))
            self._labels = sorted(out, key=label_sort_key)
        return list(self._labels)


def label_sort_key(label: Label):
    return (len(label), tuple(sorted(label)))


def label_str(label: Label) -> str:
    if not label:
        return EMPTY_LABEL_CHAR
    return "&".join(sorted(label))


def parse_label(text: str) -> Label:
    text = text.strip()
    if text in ("", EMPTY_LABEL_CHAR, CLI_EMPTY_LABEL_CHAR):
        return EMPTY_LABEL
    parts = [p.strip() for p in text.split("&")]
    if any(not p for p in parts):
        raise ValueError("malformed label: %r" % (text,))
    return frozenset(parts)


def word_str(word: Word) -> str:
    if not word:
        return EMPTY_LABEL_CHAR
    return WORD_SEPARATOR.join(label_str(l) for l in word)


def parse_word(text: str) -> Word:
    text = text.strip()
    if text in ("", EMPTY_LABEL_CHAR):
        return EPSILON
    return tuple(parse_label(part) for part in text.split(WORD_SEPARATOR))


def format_reward(value: float) -> str:
    value = float(value)
    if value == int(value):
        return str(int(value))
    return repr(value)


def parse_reward(text: str) -> float:
    text = text.strip()
    try:
        value = float(text)
    except ValueError:
        value = math.nan   # rejected below, with the text
    if not math.isfinite(value):
        raise ValueError("reward must be a finite number: %r" % (text,))
    return value
