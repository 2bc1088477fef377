"""Alphabets and words for non-commutative series.

A word is a tuple of letter indices into its alphabet.  Words are ordered
by (degree, letter sequence); every table in this package iterates in that
order so output is reproducible.
"""

from functools import lru_cache


class Alphabet:
    """A finite ordered alphabet; each letter carries a positive weight."""

    __slots__ = ("names", "weights", "_index", "degree")

    def __init__(self, names, weights=None):
        self.names = tuple(names)
        self.weights = tuple(weights) if weights is not None else (1,) * len(self.names)
        if len(self.weights) != len(self.names):
            raise ValueError("one weight per letter required")
        self._index = {n: i for i, n in enumerate(self.names)}
        # the degree of a word: its length when every weight is 1
        self.degree = len if set(self.weights) <= {1} else self._weighted_degree

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Alphabet)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.names, self.weights))

    def index(self, name):
        return self._index[name]

    def _weighted_degree(self, word):
        w = self.weights
        return sum(w[i] for i in word)

    def word_key(self, word):
        return (self.degree(word), word)

    def words_of_degree(self, d):
        """All words of the given degree, in word order."""
        if d == 0:
            yield ()
            return
        for i in range(len(self.names)):
            wi = self.weights[i]
            if wi <= d:
                for tail in self.words_of_degree(d - wi):
                    yield (i,) + tail

    def format_word(self, word):
        if not word:
            return "1"
        return ".".join(self.names[i] for i in word)

    def parse_word(self, text):
        if text == "1":
            return ()
        return tuple(self._index[name] for name in text.split("."))


X_ALPHABET = Alphabet(("X0", "X1"))


@lru_cache(maxsize=None)
def y_alphabet(max_weight):
    """Letters Y1..Yn graded by weight; letters above the truncation cannot occur."""
    n = max_weight
    return Alphabet(tuple("Y%d" % i for i in range(1, n + 1)), tuple(range(1, n + 1)))


@lru_cache(maxsize=256)
def shuffle_words(u, v):
    """All interleavings of u and v with multiplicity, as a word -> int table."""
    if not u:
        return {v: 1}
    if not v:
        return {u: 1}
    out = {}
    for w, m in shuffle_words(u[1:], v).items():
        w = (u[0],) + w
        out[w] = out.get(w, 0) + m
    for w, m in shuffle_words(u, v[1:]).items():
        w = (v[0],) + w
        out[w] = out.get(w, 0) + m
    return out
