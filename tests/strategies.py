"""Shared hypothesis strategies and alphabets for the test suite."""

from hypothesis import strategies as st

from lyndonkit import OrderedAlphabet, Word

BINARY = OrderedAlphabet("ab")
TERNARY = OrderedAlphabet("abc")


def words(alphabet: OrderedAlphabet = BINARY, min_size: int = 1, max_size: int = 12):
    ranks = st.integers(min_value=0, max_value=len(alphabet) - 1)
    return st.lists(ranks, min_size=min_size, max_size=max_size).map(
        lambda ls: Word(alphabet, ls)
    )


@st.composite
def long_pairs(draw, alphabet: OrderedAlphabet = BINARY):
    """Two words of 30 to 150 letters, each a power of a short root, with or
    without a one-letter tail.  Half the pairs share their root, so their
    extensions agree far into the scan, or forever.
    """
    ranks = st.integers(min_value=0, max_value=len(alphabet) - 1)
    roots = st.lists(ranks, min_size=1, max_size=4).map(tuple)
    shared = draw(roots)

    def power():
        root = shared if draw(st.booleans()) else draw(roots)
        n = draw(st.integers(min_value=30, max_value=150))
        tail = tuple(draw(st.lists(ranks, max_size=1)))
        return Word(alphabet, (root * n)[: n - len(tail)] + tail)

    return power(), power()


def pairs(alphabet: OrderedAlphabet = BINARY):
    """Pairs of words of at most 7 letters, and long pairs of periodic words."""
    short = words(alphabet, max_size=7)
    return st.one_of(st.tuples(short, short), long_pairs(alphabet))
