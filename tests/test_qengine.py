"""Unit tests for the exact q-polynomial engine and the coefficient recursion."""

import functools
import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smirnov
from smirnov import qengine
from smirnov.qengine import (QPolynomial, SfCoefficientTable, hilbert_table, q_binomial,
                             sf_h_coefficient, standard_q_count)
from smirnov.stats import sdinv_count, sminv_count, stat_distributions
from smirnov.words import enumerate_words, partitions_of

polys = st.lists(st.integers(min_value=0, max_value=50), max_size=6).map(QPolynomial)
# long, wide coefficient lists with many zeros, including interior ones
wide_lists = st.lists(st.one_of(st.just(0), st.integers(min_value=0, max_value=9),
                                st.integers(min_value=0, max_value=2 ** 200)),
                      max_size=300)


def _trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _naive_product(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _naive_sum(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return _trim(out)


# --- the coefficient recursion as first written: an r, a, i triple loop over
# plain tuples, with schoolbook products and its own q-binomials ---

@functools.lru_cache(maxsize=None)
def _old_q_binomial(a, b):
    if b < 0 or b > a:
        return ()
    if b == 0:
        return (1,)
    shifted = _old_q_binomial(a - 1, b)
    shifted = (0,) * b + shifted if shifted else ()
    return _naive_sum(_old_q_binomial(a - 1, b - 1), shifted)


def _old_shift(p, k):
    return (0,) * k + p if p else p


def _old_coefficient(n, k, l, mu, memo):
    if n == 0:
        return (1,) if (k, l) == (0, 0) else ()
    if n < 0 or k < 0 or l < 0 or k + l >= n:
        return ()
    key = (n, k, l, mu)
    if key in memo:
        return memo[key]
    j = mu[-1]
    mu_minus = mu[:-1]
    B = n - k - l
    total = ()
    for r in range(j + 1):
        for a in range(j + 1):
            for i in range(j + 1):
                sub = _old_coefficient(n - j, k - r, l - a, mu_minus, memo)
                if not sub:
                    continue
                d = j - r - a + i
                factor = _old_q_binomial(B, d)
                factor = _naive_product(factor, _old_shift(_old_q_binomial(B - d, a - i),
                                                           (a - i) * (a - i - 1) // 2))
                factor = _naive_product(factor, _old_shift(_old_q_binomial(B - d, r - i),
                                                           (r - i) * (r - i - 1) // 2))
                if i:
                    factor = _naive_product(factor, _old_q_binomial(B - (j - r - a) - 1, i))
                total = _naive_sum(total, _naive_product(factor, sub))
    memo[key] = total
    return total


def _smirnov_word_count(mu):
    """|SW(mu)| by a transfer DP over letter sequences: each gap between unequal
    adjacent letters may be cut or not, a gap between equal ones must be cut."""
    @functools.lru_cache(maxsize=None)
    def tail(rest, last):
        if not any(rest):
            return 1
        total = 0
        for x, m in enumerate(rest):
            if m:
                weight = 1 if x == last or last is None else 2
                total += weight * tail(rest[:x] + (m - 1,) + rest[x + 1:], x)
        return total
    return tail(tuple(mu), None)


class TestQPolynomial:
    def test_trimming_and_zero(self):
        assert QPolynomial((1, 0, 0)).coeffs == (1,)
        assert QPolynomial(()) == QPolynomial.zero()
        assert not QPolynomial.zero()

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            QPolynomial((1, -2))

    @pytest.mark.parametrize("c", [1.5, 1.0, True, "1"])
    def test_coefficients_must_be_ints(self, c):
        with pytest.raises(ValueError, match="^QPolynomial coefficients must be nonnegative, got"):
            QPolynomial((1, c))

    def test_immutable(self):
        p = QPolynomial((1, 2))
        with pytest.raises(AttributeError):
            p.coeffs = (3,)

    def test_str(self):
        assert str(QPolynomial.zero()) == "0"
        assert str(QPolynomial((1, 1, 1))) == "1+q+q^2"
        assert str(QPolynomial((3, 0, 2))) == "3+2q^2"
        assert str(QPolynomial((0, 1))) == "q"

    def test_q_power_and_times(self):
        assert QPolynomial((1, 1)).times_q_power(2) == QPolynomial((0, 0, 1, 1))
        assert QPolynomial.zero().times_q_power(5) == QPolynomial.zero()

    @pytest.mark.parametrize("k", [-1, True])
    def test_q_power_must_be_a_nonnegative_int(self, k):
        # -1 returned 1+2q unchanged, True returned q+2q^2
        with pytest.raises(ValueError, match="k must be a nonnegative int"):
            QPolynomial([1, 2]).times_q_power(k)

    def test_int_comparison(self):
        assert QPolynomial((5,)) == 5
        assert QPolynomial.zero() == 0
        assert QPolynomial((1, 1)) != 2

    def test_comparison_with_a_negative_int_is_false(self):
        # building a polynomial from -1 used to raise ValueError
        assert (QPolynomial((1,)) == -1) is False
        assert QPolynomial.zero() != -3

    @given(polys, polys)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(polys, polys, st.integers(min_value=0, max_value=5))
    def test_evaluation_is_a_homomorphism(self, a, b, x):
        assert (a * b)(x) == a(x) * b(x)
        assert (a + b)(x) == a(x) + b(x)

    @given(polys, polys, polys)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(wide_lists, wide_lists)
    @example([], [3, 0, 5])
    @example([0, 0, 0], [2 ** 200])
    @example([2 ** 200] * 300, [2 ** 200 - 1, 0, 0, 7])
    def test_product_matches_naive_convolution(self, a, b):
        product = QPolynomial(a) * QPolynomial(b)
        expected = QPolynomial(tuple(_naive_product(a, b)))
        assert product.coeffs == _naive_product(a, b)
        assert product == expected and hash(product) == hash(expected)

    @settings(max_examples=60, deadline=None)
    @given(wide_lists, wide_lists, st.integers(min_value=0, max_value=5))
    @example([], [0, 0], 3)
    def test_sum_and_shift_are_trimmed_and_match_validated(self, a, b, k):
        total = QPolynomial(a) + QPolynomial(b)
        expected = QPolynomial(tuple(_naive_sum(a, b)))
        assert total.coeffs == _naive_sum(a, b)
        assert total == expected and hash(total) == hash(expected)
        shifted = QPolynomial(a).times_q_power(k)
        assert shifted.coeffs == (_old_shift(_trim(a), k))


class TestPackedInts:
    @pytest.mark.parametrize("w", [1, 2, 3, 4, 5, 8, 9, 17, 18])
    def test_pack_unpack_round_trip(self, w):
        top = (1 << 8 * w) - 1
        for coeffs in [(1,), (top,), (0, 0, 5), (7, 0, 0, 0, top, 0, 1),
                       tuple(range(1, 40)) + (0,) * 9 + (top, 3), (top, 0) * 20 + (1,)]:
            x = qengine._pack(coeffs, w)
            assert x == sum(c << 8 * w * i for i, c in enumerate(coeffs))
            assert qengine._unpack(x, w).coeffs == coeffs
        assert qengine._pack((), w) == 0 and qengine._unpack(0, w) == 0


class TestQBinomial:
    def test_fixtures(self):
        assert q_binomial(3, 2) == QPolynomial((1, 1, 1))
        assert q_binomial(4, 2) == QPolynomial((1, 1, 2, 1, 1))
        assert q_binomial(0, 0) == 1
        assert q_binomial(5, 0) == 1
        assert q_binomial(5, 5) == 1

    def test_out_of_range_vanishes(self):
        assert q_binomial(3, 4) == 0
        assert q_binomial(3, -1) == 0
        assert q_binomial(-1, 0) == 0
        assert q_binomial(-2, -1) == 0

    @pytest.mark.parametrize("a", range(9))
    def test_symmetry_and_counting(self, a):
        for b in range(a + 1):
            assert q_binomial(a, b) == q_binomial(a, a - b)
            assert q_binomial(a, b)(1) == math.comb(a, b)

    def test_slots_are_as_wide_as_the_binomial_coefficient(self):
        # [a choose b] has coefficients summing to C(a, b), so an edge, where
        # C(a, b) = 1, needs 1-byte slots whatever a is and widens nothing
        q_binomial.cache_clear()
        try:
            assert q_binomial(500, 1) == QPolynomial((1,) * 500)
            assert q_binomial.w == 2  # C(500, 1) < 2^16
            assert q_binomial(10 ** 6, 0) == q_binomial(10 ** 6, 10 ** 6) == 1
            assert q_binomial.w == 2
        finally:
            q_binomial.cache_clear()

    def test_deep_arguments_need_no_deep_stack(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(smirnov.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        # Both recursions descend 150+ levels, past a limit of 100 frames.  The
        # cell (n, 1, n - 2) is sum_i C(n, i + 2) q^i, an Eulerian number at q = 1;
        # unlike (n, 0, 0), the q-factorial, it costs milliseconds at n = 150.
        # The h-coefficient strips one part of mu per level: a thousand levels.
        code = ("import math, sys\n"
                "from smirnov.qengine import q_binomial, sf_h_coefficient, standard_q_count\n"
                "sys.setrecursionlimit(100)\n"
                "assert q_binomial(300, 2)(1) == math.comb(300, 2)\n"
                "poly = standard_q_count(150, 1, 148)\n"
                "assert poly.coeffs == tuple(math.comb(150, i + 2) for i in range(149))\n"
                "assert poly(1) == 2 ** 150 - 151\n"
                "assert sf_h_coefficient(1000, 0, 999, (1,) * 1000) == 1\n")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


# float, str and bool sizes; a negative size is an error for hilbert_table only
_BAD_SIZES = [
    ("sf_h_coefficient", (2.0, 0, 0, (2,))), ("sf_h_coefficient", (2, True, 0, (1, 1))),
    ("sf_h_coefficient", (3, 0, "1", (3,))), ("standard_q_count", (3.0, 0, 0)),
    ("standard_q_count", (3, True, 0)), ("standard_q_count", (3, 0, 1.0)),
    ("q_binomial", (2.0, 1)), ("q_binomial", (3, "1")), ("q_binomial", (True, 1)),
    ("hilbert_table", (3.0,)), ("hilbert_table", (True,)), ("hilbert_table", (-1,))]


class TestRecursion:
    def test_base_cases(self):
        assert sf_h_coefficient(0, 0, 0, ()) == 1
        assert sf_h_coefficient(1, 0, 0, (1,)) == 1

    def test_one_block_constant(self):
        # a single Smirnov block with n distinct letters in either order
        for n in range(1, 7):
            assert sf_h_coefficient(n, 0, 0, (n,)) == 1

    def test_standard_n3_fixture(self):
        assert sf_h_coefficient(3, 1, 1, (1, 1, 1)) == QPolynomial((3, 1))
        assert standard_q_count(3, 1, 1) == QPolynomial((3, 1))

    def test_content_sum_mismatch(self):
        with pytest.raises(ValueError):
            sf_h_coefficient(3, 0, 0, (2, 2))

    def test_k_plus_l_too_large(self):
        with pytest.raises(ValueError):
            sf_h_coefficient(3, 2, 1, (1, 1, 1))

    def test_negative_arguments(self):
        with pytest.raises(ValueError):
            sf_h_coefficient(-1, 0, 0, ())
        with pytest.raises(ValueError):
            sf_h_coefficient(3, -1, 0, (3,))

    @pytest.mark.parametrize("mu", [(1.0, 1.0), (2.0,), (True, True), (1, True), ("2",), (2, 0.0)])
    def test_content_parts_must_be_ints(self, mu):
        with pytest.raises(ValueError, match="^content parts must be nonnegative, got"):
            sf_h_coefficient(2, 0, 0, mu)

    def test_memo_key_sorts_content(self):
        table = SfCoefficientTable()
        a = sf_h_coefficient(5, 1, 1, (2, 2, 1), table)
        b = sf_h_coefficient(5, 1, 1, (1, 2, 2), table)
        assert a == b
        assert all(key[3] == tuple(sorted(key[3], reverse=True)) for key in table.memo)

    def test_table_dump_load_round_trip(self, tmp_path):
        table = SfCoefficientTable()
        sf_h_coefficient(4, 1, 1, (2, 1, 1), table)
        path = str(tmp_path / "memo.json")
        table.dump(path)
        fresh = SfCoefficientTable()
        fresh.load(path)
        assert fresh.memo == table.memo
        sf_h_coefficient(4, 1, 1, (2, 1, 1), fresh)
        assert fresh.cache_info() == (1, 0, None, 1)  # a loaded entry is a hit

    def test_regrouped_recursion_matches_first_formula(self):
        n = 8
        table, memo = SfCoefficientTable(), {}
        for mu in partitions_of(n):
            at_one = 0
            for k in range(n):
                for l in range(n - k):
                    poly = sf_h_coefficient(n, k, l, mu, table)
                    assert poly.coeffs == _old_coefficient(n, k, l, mu, memo), (mu, k, l)
                    at_one += poly(1)
            assert at_one == _smirnov_word_count(mu), mu

    def test_wider_slots_give_the_same_values(self):
        # n = 8 needs wider slots than n = 4; the packed state restarts at the new
        # width, and cells first asked at n = 4 afterwards are computed in it
        table, memo = SfCoefficientTable(), {}
        steps = [(4, [(k, 0) for k in range(4)]), (8, qengine.cells(8)), (4, qengine.cells(4))]
        widths = []
        for n, cells in steps:
            for mu in partitions_of(n):
                for k, l in cells:
                    poly = sf_h_coefficient(n, k, l, mu, table)
                    assert poly.coeffs == _old_coefficient(n, k, l, mu, memo), (mu, k, l)
            widths.append(table.w)
        assert widths[0] < widths[1] == widths[2]
        assert all(poly.coeffs == _old_coefficient(*key, memo) for key, poly in table.memo.items())

    def test_memo_holds_only_the_queried_cells(self):
        # each cell is held under its k <= l key, so a k > l query is a memo hit
        table = SfCoefficientTable()
        for mu in partitions_of(8):
            for k, l in qengine.cells(8):
                sf_h_coefficient(8, k, l, mu, table)
        assert set(table.memo) == {(8, min(k, l), max(k, l), mu) for mu in partitions_of(8)
                                   for k, l in qengine.cells(8)}
        assert len(table.packed) > len(table.memo)  # the sub-keys stay packed
        mirrored = sum(k > l for k, l in qengine.cells(8)) * len(list(partitions_of(8)))
        assert table.cache_info() == (mirrored, len(table.memo), None, len(table.memo))
        assert sf_h_coefficient(8, 3, 1, (4, 4), table) is table.memo[8, 1, 3, (4, 4)]

    @pytest.mark.parametrize("name", ["sf_h_coefficient", "standard_q_count", "q_binomial"])
    def test_a_sub_key_left_unfilled_is_an_error(self, name, monkeypatch):
        # each _value reads `packed` at exactly the sub-keys its _terms listed,
        # so a fill that computes only the queried key raises on the first of
        # them instead of reading a missing key as 0 or 1
        table = SfCoefficientTable()
        fn, key, query = {
            "sf_h_coefficient": (table, (4, 1, 1, (2, 1, 1)),
                                 lambda: sf_h_coefficient(4, 1, 1, (2, 1, 1), table)),
            "standard_q_count": (standard_q_count, (5, 1, 2), lambda: standard_q_count(5, 1, 2)),
            "q_binomial": (q_binomial, (6, 3), lambda: q_binomial(6, 3))}[name]
        real = qengine._fill

        def only_top(packed, top, terms, value):
            if value.__self__ is not fn:  # the table's own q-binomials are filled in full
                return real(packed, top, terms, value)
            packed[top] = value(top, terms(top))
        monkeypatch.setattr(qengine, "_fill", only_top)
        fn.cache_clear()
        try:
            with pytest.raises(KeyError) as exc:
                query()
            assert exc.value.args[0] == fn._terms(key)[0][0]
        finally:
            fn.cache_clear()

    def test_sub_key_is_served_from_packed_without_a_fill(self, monkeypatch):
        table = SfCoefficientTable()
        sf_h_coefficient(7, 2, 1, (3, 2, 1, 1), table)
        sub, held = (6, 2, 1, (3, 2, 1)), (6, 1, 2, (3, 2, 1))
        assert held in table.packed and sub not in table.packed and held not in table.memo

        def fail(*args):
            raise AssertionError("a packed key was filled again")
        monkeypatch.setattr(qengine, "_fill", fail)
        poly = sf_h_coefficient(*sub, table)
        assert poly and poly.coeffs == _old_coefficient(*sub, {})
        assert table.memo[held] is poly and sub not in table.memo
        assert table.cache_info() == (1, 1, None, 2)

    def test_mirrored_cells_match_the_first_formula(self):
        # the first formula never swaps k and l, so it checks every k > l cell
        # that the table serves from its k <= l key
        table, memo = SfCoefficientTable(), {}
        for n in range(1, 10):
            for mu in partitions_of(n):
                for k, l in qengine.cells(n):
                    if k > l:
                        assert sf_h_coefficient(n, k, l, mu, table).coeffs == \
                            _old_coefficient(n, k, l, mu, memo), (n, mu, k, l)

    def test_full_tables_compute_only_the_k_le_l_half(self):
        table = SfCoefficientTable()
        for mu in partitions_of(12):
            for k, l in qengine.cells(12):
                sf_h_coefficient(12, k, l, mu, table)
        assert table.cache_info() == (2772, 3234, None, 3234)
        assert all(k <= l for _, k, l, _ in table.packed)
        # F is packed only for a term whose sub-value is not 0; packing it for
        # every listed term packed 975
        assert len(table.factors) == 692
        standard_q_count.cache_clear()
        hilbert_table(30)
        assert standard_q_count.cache_info() == (225, 240, None, 240)
        assert all(k <= l for _, k, l in standard_q_count.packed)

    def test_factors_live_on_the_table(self):
        table = SfCoefficientTable()
        sf_h_coefficient(5, 1, 1, (2, 2, 1), table)
        assert table.factors
        assert all(type(v) is int for v in table.factors.values())  # packed at table.w
        assert not SfCoefficientTable().factors

    @pytest.mark.parametrize("n", range(7))
    def test_standard_matches_table(self, n):
        for k in range(n + 1):
            for l in range(n + 1 - k):
                if n > 0 and k + l >= n:
                    assert standard_q_count(n, k, l) == 0
                else:
                    assert standard_q_count(n, k, l) == sf_h_coefficient(n, k, l, (1,) * n)

    def test_enumerative_sum_fixture(self):
        # content (2,1): one polynomial per (k, l) cell, and no word in cell (2, 0)
        by_sminv, by_sdinv = stat_distributions(enumerate_words((2, 1)), sminv_count, sdinv_count)
        assert by_sminv[(0, 0)] == QPolynomial((1, 1, 1))
        assert by_sminv[(1, 0)] == QPolynomial((1, 1))
        assert by_sminv[(0, 1)] == QPolynomial((1, 1))
        assert by_sminv[(1, 1)] == QPolynomial((1,))
        assert (2, 0) not in by_sminv
        assert by_sdinv[(0, 0)] == QPolynomial((1, 1, 1))

    def test_stat_distributions_read_the_words_once(self):
        # every statistic's (k, l) map from one pass over a single-use iterator
        expected = {(0, 0): QPolynomial((1, 1, 1)), (1, 0): QPolynomial((1, 1)),
                    (0, 1): QPolynomial((1, 1)), (1, 1): QPolynomial((1,))}
        words = iter(list(enumerate_words((2, 1))))
        assert stat_distributions(words, sminv_count, sdinv_count) == [expected, expected]

    def test_hilbert_table(self):
        table = hilbert_table(3)
        assert table[(1, 1)] == QPolynomial((3, 1))
        assert table[(0, 2)] == 1
        assert set(table) == {(k, l) for k in range(3) for l in range(3 - k)}

    def test_hilbert_table_matches_a_plain_recursion(self):
        # the standard-case recursion on coefficient tuples, with schoolbook products
        ref = {(0, 0, 0): (1,)}
        standard_q_count.cache_clear()
        for n in range(21):  # the slots widen from 1 to 11 bytes on the way
            for k, l in qengine.cells(n):
                if n:
                    rest = ()
                    for dk in (0, 1):
                        for dl in (0, 1):
                            rest = _naive_sum(rest, ref.get((n - 1, k - dk, l - dl), ()))
                    ref[n, k, l] = _naive_product((1,) * (n - k - l), rest)
            assert {kl: p.coeffs for kl, p in hilbert_table(n).items()} == \
                {(k, l): ref[n, k, l] for k, l in qengine.cells(n)}, n
        total = sum(p(1) for p in hilbert_table(30).values())
        assert total == math.factorial(30) * 2 ** 29

    def test_cache_clear_leaves_nothing(self):
        table = SfCoefficientTable()
        for fn, query, args in ((standard_q_count, standard_q_count, (6, 1, 2)),
                                (q_binomial, q_binomial, (7, 3)),
                                (table, functools.partial(sf_h_coefficient, table=table),
                                 (5, 1, 1, (2, 2, 1)))):
            query(*args)
            assert fn.cache_info().currsize and len(fn.packed) > len(type(fn).SEED)
            fn.cache_clear()
            assert fn.cache_info() == (0, 0, None, 0)
            assert fn.memo == {} and getattr(fn, "factors", {}) == {}
            assert fn.packed == type(fn).SEED
            query(*args)
            assert (fn.cache_info().hits, fn.cache_info().misses) == (0, 1)
            query(*args)
            assert (fn.cache_info().hits, fn.cache_info().misses) == (1, 1)

    def test_cleared_table_serves_narrower_slots(self):
        # the q-binomials of the n = 8 table are packed at its wider slots, so a
        # clear must drop them with the rest of the packed state
        table, memo = SfCoefficientTable(), {}
        for mu in partitions_of(8):
            for k, l in qengine.cells(8):
                sf_h_coefficient(8, k, l, mu, table)
        table.cache_clear()
        for mu in partitions_of(4):
            for k, l in qengine.cells(4):
                assert sf_h_coefficient(4, k, l, mu, table).coeffs == \
                    _old_coefficient(4, k, l, mu, memo), (mu, k, l)
        assert table.w == qengine._count_slot(4)

    @pytest.mark.parametrize("name, args", _BAD_SIZES, ids=["%s%r" % case for case in _BAD_SIZES])
    def test_sizes_must_be_ints(self, name, args):
        shown = repr(args[0]) if name == "hilbert_table" else repr(args[:3])
        with pytest.raises(ValueError, match="must be .*ints?, got %s$" % re.escape(shown)):
            getattr(qengine, name)(*args)

    @pytest.mark.parametrize("counts", [{-2: 1, 3: 1}, {True: 1}])
    def test_histogram_exponents_must_be_nonnegative_ints(self, counts):
        # these answered q^2+q^3 (q^-2 through a negative list index) and q
        with pytest.raises(ValueError, match="exponents must be nonnegative ints"):
            qengine.histogram_poly(counts)

    def test_cells(self):
        assert qengine.cells(0) == [(0, 0)]
        assert hilbert_table(0) == {(0, 0): QPolynomial((1,))}
        assert qengine.cells(3) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)]
        assert all(len(qengine.cells(n)) == n * (n + 1) // 2 for n in range(1, 9))


def _write_memo(path, entries, digest=None):
    text = json.dumps(entries, separators=(",", ":"))
    if digest is None:
        digest = hashlib.sha256(text.encode()).hexdigest()
    with open(path, "w") as fh:
        fh.write('{"version": 2, "sha256": "%s", "entries": %s}' % (digest, text))


class TestMemoFile:
    def dumped(self, tmp_path):
        table = SfCoefficientTable()
        for k, l in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
            sf_h_coefficient(3, k, l, (1, 1, 1), table)
        path = str(tmp_path / "memo.json")
        table.dump(path)
        return table, path

    def test_format_and_atomic_replace(self, tmp_path):
        table, path = self.dumped(tmp_path)
        with open(path) as fh:
            data = json.load(fh)
        assert data["version"] == qengine.MEMO_VERSION
        text = json.dumps(data["entries"], separators=(",", ":"))
        assert data["sha256"] == hashlib.sha256(text.encode()).hexdigest()
        assert [3, 1, 1, [1, 1, 1], ["3", "1"]] in data["entries"]
        assert os.listdir(tmp_path) == ["memo.json"]

    def test_failed_dump_keeps_the_old_file(self, tmp_path, monkeypatch):
        table, path = self.dumped(tmp_path)
        with open(path) as fh:
            before = fh.read()

        def fail(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(qengine.os, "replace", fail)
        sf_h_coefficient(4, 1, 1, (2, 1, 1), table)
        with pytest.raises(OSError):
            table.dump(path)
        with open(path) as fh:
            assert fh.read() == before
        assert os.listdir(tmp_path) == ["memo.json"]

    def test_file_with_sub_keys_loads_and_serves_them(self, tmp_path, monkeypatch):
        # a version-2 file may hold the sub-keys of a query, zero values
        # included: here those of (4, 1, 1, (2, 1, 1))
        entries = [[2, 0, 1, [2], []], [2, 1, 0, [2], []], [2, 0, 0, [2], ["1"]],
                   [3, 1, 1, [2, 1], ["1"]], [3, 0, 0, [2, 1], ["1", "1", "1"]],
                   [3, 1, 0, [2, 1], ["1", "1"]], [3, 0, 1, [2, 1], ["1", "1"]],
                   [4, 1, 1, [2, 1, 1], ["4", "7", "4", "1"]]]
        path = str(tmp_path / "memo.json")
        _write_memo(path, entries)
        table = SfCoefficientTable()
        table.load(path)

        def fail(*args):
            raise AssertionError("a loaded key was computed")
        monkeypatch.setattr(qengine, "_fill", fail)
        for n, k, l, mu, coeffs in entries:
            poly = sf_h_coefficient(n, k, l, mu, table)
            assert poly.coeffs == tuple(map(int, coeffs))
            assert poly.coeffs == _old_coefficient(n, k, l, tuple(mu), {})
        assert table.packed == {(0, 0, 0, ()): 1}

    def test_file_with_both_halves_loads_under_k_le_l_keys(self, tmp_path, monkeypatch):
        # a version-2 file as written before cells were held under k <= l
        # keys: every queried cell, the k > l half included
        entries = [[n, k, l, list(mu), list(map(str, _old_coefficient(n, k, l, mu, {})))]
                   for n in range(1, 5) for mu in partitions_of(n) for k, l in qengine.cells(n)]
        path = str(tmp_path / "memo.json")
        _write_memo(path, entries)
        table = SfCoefficientTable()
        table.load(path)
        assert set(table.memo) == {(n, min(k, l), max(k, l), tuple(mu))
                                   for n, k, l, mu, _ in entries}

        def fail(*args):
            raise AssertionError("a loaded key was computed")
        monkeypatch.setattr(qengine, "_fill", fail)
        for n, k, l, mu, coeffs in entries:
            assert sf_h_coefficient(n, k, l, mu, table).coeffs == tuple(map(int, coeffs))
        assert table.cache_info().misses == 0

    def test_mirrored_entries_that_disagree_are_rejected(self, tmp_path):
        table, path = self.dumped(tmp_path)
        before = dict(table.memo)
        # (3, 0, 1) is right; its mirror (3, 1, 0) was edited and the checksum redone
        entries = [[3, 0, 1, [1, 1, 1], ["2", "3", "1"]],
                   [3, 0, 0, [1, 1, 1], ["1", "2", "2", "1"]],
                   [3, 1, 0, [1, 1, 1], ["2", "3", "2"]]]
        _write_memo(path, entries)
        with pytest.raises(ValueError, match="memo file .*memo.json: .*disagree"):
            table.load(path)
        assert table.memo == before

    def test_edited_value_fails_checksum(self, tmp_path):
        # the hand edit that used to be printed as the answer
        _, path = self.dumped(tmp_path)
        with open(path) as fh:
            data = json.load(fh)
        for entry in data["entries"]:
            if entry[:4] == [3, 1, 1, [1, 1, 1]]:
                entry[4] = ["99"]
        _write_memo(path, data["entries"], data["sha256"])
        fresh = SfCoefficientTable()
        with pytest.raises(ValueError, match="memo file .*memo.json: checksum"):
            fresh.load(path)
        assert fresh.memo == {}

    @pytest.mark.parametrize("text", ['[{"n": 3}]', "{", '{"version": 1, "entries": []}',
                                      '{"version": 2, "sha256": "0", "entries": {}}'])
    def test_malformed_file_is_one_value_error(self, tmp_path, text):
        path = tmp_path / "memo.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="memo file .*memo.json"):
            SfCoefficientTable().load(str(path))

    @pytest.mark.parametrize("entry", [
        [3, 1, 1, [1, 2], ["1"]],          # mu not sorted descending
        [3, 1, 1, [2, 1, 0], ["1"]],       # zero part
        [3, 1, 1, [2, 2], ["1"]],          # sum(mu) != n
        [3, 2, 1, [1, 1, 1], ["1"]],       # k + l >= n
        [3, -1, 1, [1, 1, 1], ["1"]],      # negative k
        [3, 1, 1, [1, 1, 1], ["-3"]],      # negative coefficient
        [3, 1, 1, [1, 1, 1], ["3", "0"]],  # untrimmed value
        [3, 1, 1, [1, 1, 1], ["x"]],       # not an integer
        [3, 1, 1, [1, 1, 1], [3]],         # number instead of decimal string
        {"n": 3},                          # not an entry list
        [3, 1, 1, [1, 1, 1]],              # no value
    ])
    def test_entries_are_checked_even_with_a_good_checksum(self, tmp_path, entry):
        path = str(tmp_path / "memo.json")
        _write_memo(path, [[3, 0, 0, [1, 1, 1], ["1", "2", "2", "1"]], entry])
        fresh = SfCoefficientTable()
        with pytest.raises(ValueError, match="memo file .*memo.json"):
            fresh.load(path)
        assert fresh.memo == {}
