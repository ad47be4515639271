import random
import sys
from pathlib import Path

from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from stargen import Digraph  # noqa: E402


@st.composite
def digraphs(draw, min_n=1, max_n=6, min_outdegree_one=True):
    """Random labeled digraphs; by default every vertex keeps at least one prey."""
    n = draw(st.integers(min_n, max_n))
    low = 1 if min_outdegree_one else 0
    rows = draw(
        st.lists(st.integers(low, 2**n - 1), min_size=n, max_size=n)
    )
    return Digraph(n, rows)


def every_digraph(n):
    """Every digraph on n vertices, vertices without prey included."""
    for code in range(2 ** (n * n)):
        yield Digraph(n, [code >> n * u & (1 << n) - 1 for u in range(n)])


def wide_digraphs(seed, count=20):
    """Seeded sparse digraphs of orders 65..90, so every row is wider than
    64 bits; about one arc per vertex leaves several weak components,
    sources and vertices without prey.
    """
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(65, 90)
        rows = [0] * n
        for _ in range(rng.randint(n // 2, 2 * n)):
            rows[rng.randrange(n)] |= 1 << rng.randrange(n)
        yield Digraph(n, rows)
