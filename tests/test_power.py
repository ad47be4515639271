"""The shared power helper that squares until the squares repeat."""

import random

from stargen import bitslice, digraph
from stargen.digraph import _power, _row_power, _row_product, from_arc_list, m_step_digraph
from stargen.generate import digraph_at

RNG_SEED = 20


def _step(rows, base):
    # one more arc on every walk, without the library's product
    out = []
    for row in rows:
        acc = 0
        for v in range(len(base)):
            if row >> v & 1:
                acc |= base[v]
        out.append(acc)
    return tuple(out)


def _naive_power(rows, m):
    """D^m by stepping one arc at a time until a power repeats."""
    rows = tuple(rows)
    seen = {rows: 1}
    powers = [None, rows]
    while True:
        nxt = _step(powers[-1], rows)
        if nxt in seen:
            first = seen[nxt]
            period = len(powers) - first
            break
        seen[nxt] = len(powers)
        powers.append(nxt)
    if m < len(powers):
        return list(powers[m])
    return list(powers[first + (m - first) % period])


def _random_rows(rng, n):
    return [rng.randrange(2**n) for _ in range(n)]


def _cycle(n):
    return from_arc_list(n, [(v, (v + 1) % n) for v in range(n)])


class TestRowPower:
    def test_small_m_against_stepping(self):
        rng = random.Random(RNG_SEED)
        for _ in range(40):
            rows = _random_rows(rng, rng.randint(1, 8))
            for m in range(1, 301):
                assert _row_power(rows, m) == _naive_power(rows, m), (rows, m)

    def test_large_m_against_stepping(self):
        rng = random.Random(RNG_SEED + 1)
        for _ in range(200):
            rows = _random_rows(rng, rng.randint(1, 8))
            ms = [2**k for k in range(81)] + [rng.getrandbits(200) | 1 << 199 for _ in range(5)]
            for m in ms:
                assert _row_power(rows, m) == _naive_power(rows, m), (rows, m)

    def test_five_cycle_squares_four_times_at_huge_m(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(1)
            return _row_product(a, b)

        c5 = _cycle(5)
        # 2**60 = 1 mod 5, so C5^(2**60) = C5; plain squaring takes 60 products
        assert _power(list(c5.out_rows), 2**60, counting) == list(c5.out_rows)
        assert len(calls) <= 4
        calls.clear()
        monkeypatch.setattr(digraph, "_row_product", counting)
        assert m_step_digraph(c5, 2**60) == c5
        assert len(calls) <= 4

    def test_tuple_rows_repeat_like_list_squares(self, monkeypatch):
        # a Digraph holds tuple rows; the first square is a list and must match them
        calls = []

        def counting(a, b):
            calls.append(1)
            return _row_product(a, b)

        monkeypatch.setattr(digraph, "_row_product", counting)
        assert _row_power((1, 2, 4), 2**60) == [1, 2, 4]
        assert len(calls) == 1

    def test_generic_values_need_only_equality(self):
        # integers mod 12 under multiplication: 2**(2**t) repeats 4, 4, ...
        def mul(a, b):
            return a * b % 12

        for m in list(range(1, 100)) + [2**60, 3**90]:
            assert _power(2, m, mul) == pow(2, m, 12), m


class TestPlanePower:
    def test_partial_batch_at_huge_m_matches_row_power(self):
        n, m = 4, 2**60
        indices = range(20_000, 20_400)
        plane = bitslice.draws(n, indices)
        power = plane.power(m)
        for b, index in enumerate(indices):
            rows = _row_power(digraph_at(n, index).out_rows, m)
            got = [sum((power[u][w] >> b & 1) << w for w in range(n)) for u in range(n)]
            assert got == rows, index

    def test_batch_power_squares_until_the_batch_repeats(self, monkeypatch):
        calls = []
        product = bitslice._product

        def counting(a, b):
            calls.append(1)
            return product(a, b)

        monkeypatch.setattr(bitslice, "_product", counting)
        (plane,) = bitslice.batches(3)
        plane.power(2**60)
        assert len(calls) <= 8  # 5 when measured; plain squaring takes 60
