"""Tests for the fixed-base / multi-exponentiation accelerator.

Everything here checks *agreement with native ``pow``* — the accelerator is
a pure performance layer and must be bit-for-bit equivalent on every input.
"""

import secrets

import pytest

from repro.crypto import fastexp
from repro.crypto.params import PARAMS_1024_160, PARAMS_TEST_512

P = PARAMS_TEST_512


@pytest.fixture(autouse=True)
def _fresh_caches():
    fastexp.clear_caches()
    yield
    fastexp.clear_caches()


class TestFixedBaseTable:
    def test_matches_native_pow(self):
        table = fastexp.FixedBaseTable(P.g, P.p, P.q.bit_length())
        for _ in range(20):
            e = secrets.randbelow(P.q)
            assert table.pow(e) == pow(P.g, e, P.p)

    def test_edge_exponents(self):
        table = fastexp.FixedBaseTable(P.g, P.p, P.q.bit_length())
        for e in (0, 1, 2, P.q - 1, P.q):
            assert table.pow(e) == pow(P.g, e, P.p)

    def test_order_reduction(self):
        table = fastexp.FixedBaseTable(P.g, P.p, P.q.bit_length(), order=P.q)
        e = secrets.randbelow(P.q)
        # g has order q, so exponents reduce mod q.
        assert table.pow(e + P.q) == pow(P.g, e, P.p)
        assert table.pow(2 * P.q) == 1

    def test_overflow_falls_back(self):
        # Exponent wider than the table was built for: still correct.
        table = fastexp.FixedBaseTable(P.g, P.p, 16)
        e = secrets.randbelow(P.q)
        assert table.pow(e) == pow(P.g, e, P.p)

    def test_window_sizes_agree(self):
        e = secrets.randbelow(P.q)
        for window in (1, 2, 4, 5, 8):
            table = fastexp.FixedBaseTable(P.g, P.p, P.q.bit_length(), window=window)
            assert table.pow(e) == pow(P.g, e, P.p)


class TestTableWindows:
    def test_wide_precompute_upgrades_a_narrow_cached_table(self):
        narrow = fastexp.precompute(P.g, P.p, P.q.bit_length(), order=P.q)
        assert narrow.window == fastexp.CACHED_WINDOW
        wide = fastexp.precompute(
            P.g, P.p, P.q.bit_length(), order=P.q, window=fastexp.WIDE_WINDOW
        )
        assert wide.window == fastexp.WIDE_WINDOW
        assert fastexp.fixed_base(P.g, P.p) is wide
        for e in (0, 1, P.q - 1, secrets.randbelow(P.q), secrets.randbelow(P.q)):
            assert wide.pow(e) == pow(P.g, e, P.p)
            assert fastexp.mod_pow(P.g, e, P.p, order=P.q) == pow(P.g, e, P.p)

    def test_narrow_request_never_downgrades_a_wide_table(self):
        wide = fastexp.precompute(
            P.g, P.p, P.q.bit_length(), order=P.q, window=fastexp.WIDE_WINDOW
        )
        assert fastexp.precompute(P.g, P.p, P.q.bit_length(), order=P.q) is wide
        # A rebuild for more bits keeps the wide window.
        wider = fastexp.precompute(P.g, P.p, P.p.bit_length())
        assert wider.window == fastexp.WIDE_WINDOW
        e = secrets.randbelow(P.p)
        assert wider.pow(e) == pow(P.g, e, P.p)

    def test_wide_tables_are_capped(self):
        bases = [pow(P.g, 1000 + i, P.p) for i in range(fastexp._MAX_WIDE_TABLES + 2)]
        for base in bases:
            fastexp.precompute(base, P.p, 16, window=fastexp.WIDE_WINDOW)
        # The oldest wide tables went; the newest stayed.
        assert fastexp.fixed_base(bases[0], P.p) is None
        assert fastexp.fixed_base(bases[1], P.p) is None
        assert all(fastexp.fixed_base(b, P.p) is not None for b in bases[2:])


class TestBatchInverse:
    def test_empty(self):
        assert fastexp.batch_inverse([], P.p) == []

    def test_single(self):
        x = pow(P.g, 777, P.p)
        assert fastexp.batch_inverse([x], P.p) == [pow(x, -1, P.p)]

    def test_many_random(self):
        values = [secrets.randbelow(P.p - 1) + 1 for _ in range(64)]
        assert fastexp.batch_inverse(values, P.p) == [pow(v, -1, P.p) for v in values]


class TestModPow:
    def test_matches_native(self):
        base = pow(P.g, 12345, P.p)
        for _ in range(10):
            e = secrets.randbelow(P.q)
            assert fastexp.mod_pow(base, e, P.p, order=P.q) == pow(base, e, P.p)

    def test_promotion_after_repeated_use(self):
        base = pow(P.g, 999, P.p)
        e = secrets.randbelow(P.q)
        for _ in range(fastexp.PROMOTE_AFTER + 1):
            assert fastexp.mod_pow(base, e, P.p, order=P.q) == pow(base, e, P.p)
        # A table now exists and keeps agreeing with pow.
        assert fastexp.fixed_base(base, P.p) is not None
        e2 = secrets.randbelow(P.q)
        assert fastexp.mod_pow(base, e2, P.p, order=P.q) == pow(base, e2, P.p)


class TestMultiExp:
    def _native(self, pairs, modulus):
        out = 1
        for base, exp in pairs:
            out = (out * pow(base, exp, modulus)) % modulus
        return out

    def test_pairs_match_native(self):
        for count in (1, 2, 3, 5):
            pairs = [
                (pow(P.g, secrets.randbelow(P.q), P.p), secrets.randbelow(P.q))
                for _ in range(count)
            ]
            assert fastexp.multi_exp(pairs, P.p, order=P.q) == self._native(pairs, P.p)

    def test_zero_exponents(self):
        pairs = [(P.g, 0), (pow(P.g, 7, P.p), 0)]
        assert fastexp.multi_exp(pairs, P.p, order=P.q) == 1

    def test_empty(self):
        assert fastexp.multi_exp([], P.p) == 1

    @pytest.mark.parametrize("params", [P, PARAMS_1024_160], ids=["512", "1024"])
    @pytest.mark.parametrize("order_known", [True, False])
    @pytest.mark.parametrize(
        "lengths",
        [
            # Straus sizes (fewer than _PIPPENGER_MIN ad-hoc bases).
            [63, 64, 65, "full", "full"],
            [64] * (fastexp._PIPPENGER_MIN - 1),
            # Bucket sizes: a lone full-length exponent among 64-bit ones;
            # a skewed mix like a batched signature check's; an even mix.
            [64] * (fastexp._PIPPENGER_MIN - 1) + ["full"],
            [64] * 150 + [63] * 30 + [65] * 5 + ["full"] * 9,
            [63, 64, 65, "full"] * 40,
        ],
        ids=["straus-mixed", "straus-max", "bucket-lone-full", "bucket-skewed", "bucket-even"],
    )
    def test_mixed_exponent_lengths_match_native(self, params, order_known, lengths):
        # Ad-hoc bases only (promote=False, no tables): the product must be
        # exact however the exponent lengths are mixed.
        pairs = []
        for length in lengths:
            bits = params.q.bit_length() if length == "full" else length
            exponent = secrets.randbits(bits) | (1 << (bits - 1))  # exactly `bits` long
            pairs.append((pow(params.g, 2 + secrets.randbelow(params.q - 2), params.p), exponent))
        order = params.q if order_known else None
        assert fastexp.multi_exp(pairs, params.p, order=order, promote=False) == self._native(
            pairs, params.p
        )

    def test_with_cached_table(self):
        fastexp.precompute(P.g, P.p, P.q.bit_length(), order=P.q)
        y = pow(P.g, 4242, P.p)
        pairs = [(P.g, secrets.randbelow(P.q)), (y, secrets.randbelow(P.q))]
        assert fastexp.multi_exp(pairs, P.p, order=P.q) == self._native(pairs, P.p)


class TestMembership:
    def test_agrees_with_definition(self):
        member = pow(P.g, 123, P.p)
        assert fastexp.is_member(member, P.q, P.p)
        assert fastexp.is_member(member, P.q, P.p)  # memoized path
        non_member = 2
        while pow(non_member, P.q, P.p) == 1:  # pragma: no cover
            non_member += 1
        assert not fastexp.is_member(non_member, P.q, P.p)

    def test_tabled_nonmember_is_still_rejected(self):
        # Regression guard: a base with an order-reduced cached table must
        # not shortcut the membership test (x**(q mod q) == 1 for anything).
        non_member = 2
        while pow(non_member, P.q, P.p) == 1:  # pragma: no cover
            non_member += 1
        fastexp.precompute(non_member, P.p, P.q.bit_length(), order=P.q)
        assert not fastexp.is_member(non_member, P.q, P.p)


class TestCaches:
    def test_clear_caches(self):
        fastexp.precompute(P.g, P.p, P.q.bit_length(), order=P.q)
        assert fastexp.fixed_base(P.g, P.p) is not None
        fastexp.clear_caches()
        assert fastexp.fixed_base(P.g, P.p) is None

    def test_distinct_moduli_do_not_collide(self):
        fastexp.precompute(P.g, P.p, P.q.bit_length(), order=P.q)
        q2, p2, g2 = PARAMS_1024_160.q, PARAMS_1024_160.p, PARAMS_1024_160.g
        e = secrets.randbelow(q2)
        assert fastexp.mod_pow(g2, e, p2, order=q2) == pow(g2, e, p2)
