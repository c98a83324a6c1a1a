"""Exact q-polynomial arithmetic, q-binomials, and the memoized coefficient recursion.

Every quantity in this package is a counting series, so QPolynomial only
supports addition and multiplication of two QPolynomials; coefficients are
arbitrary-precision nonnegative integers and subtraction is deliberately absent.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
import os
import struct
import sys
from array import array
from collections.abc import Iterable, Sequence


class QPolynomial:
    """A polynomial in q with nonnegative integer coefficients, dense ascending.

    The constructor checks and trims its input.  Sums and products of trimmed
    nonnegative polynomials are again trimmed and nonnegative, so `+`, `*` and
    `times_q_power` build their results with the unchecked `_poly`.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        for c in cs:
            if type(c) is not int or c < 0:
                raise ValueError("QPolynomial coefficients must be nonnegative, got %r" % (c,))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPolynomial is immutable")

    def __reduce__(self):
        # pickle's default would restore the slot through __setattr__
        return QPolynomial, (self.coeffs,)

    @classmethod
    def zero(cls) -> "QPolynomial":
        return _ZERO

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.coeffs == ((other,) if other else ())
        if not isinstance(other, QPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return _poly(tuple(map(operator.add, a, b)) + a[len(b):])

    def __mul__(self, other: "QPolynomial") -> "QPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        # Kronecker substitution q -> 2^(8w): a product coefficient is a sum of
        # at most min(len) terms, each below 2^(bits(max a) + bits(max b)), so it
        # fits in a w-byte slot and no slot carries into the next one.
        w = _slot(max(a).bit_length() + max(b).bit_length() + min(len(a), len(b)).bit_length())
        return _unpack(_pack(a, w) * _pack(b, w), w)

    def times_q_power(self, k: int) -> "QPolynomial":
        if not self.coeffs or k <= 0:
            return self
        return _poly((0,) * k + self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for p, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if p == 0:
                terms.append(str(c))
            else:
                qp = "q" if p == 1 else "q^%d" % p
                terms.append(qp if c == 1 else "%d%s" % (c, qp))
        return "+".join(terms)

    def __repr__(self) -> str:
        return "QPolynomial(%r)" % (self.coeffs,)


def _poly(coeffs: tuple) -> QPolynomial:
    """A QPolynomial from a tuple already known to be trimmed and nonnegative."""
    p = object.__new__(QPolynomial)
    object.__setattr__(p, "coeffs", coeffs)
    return p


_ZERO = _poly(())
_ONE = _poly((1,))


# --- packed ints ------------------------------------------------------------
# The recursions below run on plain ints.  A polynomial P whose coefficients
# lie in [0, 2^(8w)) is held as P(2^(8w)): one w-byte slot per coefficient,
# lowest degree first.  `+`, `*` and `<< 8w·k` (times q^k) are exact on these
# ints whatever they hold, so only unpacking needs each coefficient of the
# result to fit in its slot.  Every value unpacked is a count with
# nonnegative coefficients, each at most its value at q = 1.

_NATIVE = {array(code).itemsize: code for code in "BHILQ"}  # slot bytes -> array type code


def _slot(bits: int) -> int:
    """Bytes of a slot that holds `bits` bits: 1, 2, 4 or 8, which `_unpack`
    reads as an `array` at C speed, or the bytes needed beyond that."""
    w = (bits + 7) >> 3
    return 1 << (w - 1).bit_length() if w <= 8 else w


def _count_slot(n: int) -> int:
    """The slot for the counts of size <= n: W = bits(n! 2^n) + 1 bits.

    A Smirnov word of size m has one of at most m! letter orders and 2^(m-1)
    cuttings, so no coefficient of an h-coefficient or a Hilbert cell of size
    m <= n exceeds n! 2^(n-1) < 2^W.
    """
    return _slot((math.factorial(n) << n).bit_length() + 1)


def _pack(coeffs: Iterable[int], w: int) -> int:
    """The value at q = 2^(8w) of the polynomial with these coefficients."""
    return int.from_bytes(b"".join([c.to_bytes(w, "little") for c in coeffs]), "little")


def _unpack(x: int, w: int) -> QPolynomial:
    """The polynomial whose value at q = 2^(8w) is x, each coefficient below 2^(8w)."""
    if not x:
        return _ZERO
    size = -(-x.bit_length() // (8 * w)) * w
    data = x.to_bytes(size, "little")
    code = _NATIVE.get(w)
    if code is None:  # struct cuts the slots and map converts them: no loop in bytecode
        return _poly(tuple(map(int.from_bytes,
                               itertools.chain.from_iterable(struct.iter_unpack("%ds" % w, data)),
                               itertools.repeat("little"))))
    slots = array(code, data)
    if sys.byteorder == "big":
        slots.byteswap()
    return _poly(tuple(slots))


def _fill(packed: dict, top, terms, value) -> None:
    """Put `top` and every key below it that `packed` lacks into `packed`,
    lowest level first.

    `terms(key)` lists the (sub-key, weight) pairs of the recursion at `key`,
    seeds included, and `value(key, terms)` combines them, reading `packed`
    at exactly those sub-keys: a sub-key that was not filled is a KeyError,
    never a silent 0.  Only missing keys are visited, and nothing recurses,
    so the stack stays flat at any size.
    """
    todo, levels = [top], []
    while todo:
        level = [(key, terms(key)) for key in todo]
        levels.append(level)
        todo = list({sub for _, subs in level for sub, _ in subs if sub not in packed})
    for level in reversed(levels):
        for key, subs in level:
            packed[key] = value(key, subs)


_CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


class _PackedRecursion:
    """A recursion on packed ints, called like the `functools.lru_cache`
    function it stands for, with the same `cache_clear()` and `cache_info()`.

    `memo` holds what callers were handed, each unpacked once.  `packed`
    holds every key computed at the current slot width `w` (bytes), filled
    by `_fill` from the subclass's `_terms` and `_value`.  A query that
    needs wider slots starts `packed` again from `SEED`: narrower slots are
    never reused.  It serves one thread; the verification pool's workers are
    processes, each with its own.
    """

    SEED: dict = {}

    def __init__(self):
        self.cache_clear()

    def cache_clear(self) -> None:
        """Drop every value, packed or not, and the hit and miss counts."""
        self.memo, self.hits, self.misses = {}, 0, 0
        self._restart(0)

    def _restart(self, w: int) -> None:
        """Start the packed state again, at slots of w bytes."""
        self.w, self.shift, self.packed = w, 8 * w, dict(self.SEED)

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, None, len(self.memo))

    def _get(self, key: tuple, size: int) -> QPolynomial:
        hit = self.memo.get(key)
        if hit is not None:
            self.hits += 1
            return hit
        x = self._packed(key, self._width(size))
        hit = self.memo[key] = _unpack(x, self.w)
        return hit

    def _packed(self, key: tuple, w: int) -> int:
        """The packed value of `key` at slots of self.w >= w bytes; a miss
        is a call that has to compute it."""
        if w > self.w:
            self._restart(w)
        x = self.packed.get(key)
        if x is not None:
            self.hits += 1
            return x
        self.misses += 1
        _fill(self.packed, key, self._terms, self._value)
        return self.packed[key]


class _QBinomial(_PackedRecursion):
    """Gaussian binomial [a choose b]_q; zero when b < 0 or b > a (so for all a < 0).

    By q-Pascal, [a choose b] = [a-1 choose b-1] + q^b [a-1 choose b]; a query
    fills the band of rows below it that this reaches.
    """

    def __call__(self, a: int, b: int) -> QPolynomial:
        if not (type(a) is type(b) is int):
            raise ValueError("a, b must be ints, got %r" % ((a, b),))
        if b < 0 or b > a:
            return _ZERO
        # no coefficient of [a choose b], or of a key below it, exceeds C(a, b)
        return self._get((a, b), math.comb(a, b).bit_length())

    _width = staticmethod(_slot)

    def _packed(self, key: tuple, w: int) -> int:
        a, b = key
        if b < 0 or b > a:
            return 0
        return super()._packed(key, w)

    @staticmethod
    def _terms(key: tuple) -> list:
        """q-Pascal's two terms, each weighted by its power of q; an edge of
        the triangle, b = 0 or b = a, has none."""
        a, b = key
        return [((a - 1, b - 1), 0), ((a - 1, b), b)] if 0 < b < a else []

    def _value(self, key: tuple, terms: list) -> int:
        if not terms:
            return 1  # [a choose 0] = [a choose a] = 1
        (left, _), (right, p) = terms  # q^0 [a-1 choose b-1] + q^b [a-1 choose b]
        return self.packed[left] + (self.packed[right] << p * self.shift)


q_binomial = _QBinomial()


def _binom2(x: int) -> int:
    return x * (x - 1) // 2


def _canonical_mu(mu: Sequence[int]) -> tuple:
    """Sorted-descending partition key with zero parts dropped."""
    parts = []
    for p in mu:
        if type(p) is not int or p < 0:
            raise ValueError("content parts must be nonnegative, got %r" % (p,))
        if p:
            parts.append(p)
    parts.sort(reverse=True)
    return tuple(parts)


MEMO_VERSION = 2


class SfCoefficientTable(_PackedRecursion):
    """Memoized map (n, k, l, sorted mu) -> QPolynomial via the coefficient recursion.

    The recursion strips the j occurrences of the largest letter (j = last
    positive part of mu) and sums over 0 <= r, a <= j the sub-coefficient
    times the factor F(B, j, r, a), itself a sum over 0 <= i <= j of four
    q-binomials (`_factor`).  F does not depend on mu or on the sub-problem,
    so each table caches it in `factors`.

    The width `w` is set by the largest n the table has served.  Beside
    `packed`, a restart drops `factors`, the packed F, and `binomials`, the
    packed q-binomials, which must be packed at the table's width.  `memo`
    also holds what `load` merged; a sub-key is unpacked only when it is
    asked for.

    The coefficient is symmetric in k and l (the Theta operators commute,
    and F is symmetric in r and a), so a cell (k, l) is held under
    (min(k, l), max(k, l)): `memo` and `packed` hold only keys with k <= l.
    """

    SEED = {(0, 0, 0, ()): 1}

    _width = staticmethod(_count_slot)

    def _restart(self, w: int) -> None:
        super()._restart(w)
        self.factors, self.binomials = {}, _QBinomial()

    def _terms(self, key: tuple) -> list:
        """The sub-keys (m, k - r, l - a, rest) inside the cells of size m,
        each weighted by the key (B, j, r, a) of its factor F."""
        n, k, l, mu = key
        j = mu[-1]  # multiplicity of the largest letter (mu sorted descending)
        m, rest, B = n - j, mu[:-1], n - k - l
        top, terms = max(m, 1), []
        for r in range(min(j, k) + 1):
            for a in range(min(j, l) + 1):
                k2, l2 = k - r, l - a
                if k2 + l2 < top:
                    terms.append(((m, k2, l2, rest) if k2 <= l2 else (m, l2, k2, rest),
                                  (B, j, r, a)))
        return terms

    def _value(self, key: tuple, terms: list) -> int:
        """The sum of F times each sub-value; F is packed only for a
        sub-key whose value is not 0."""
        packed, factors, total = self.packed, self.factors, 0
        for sub, weight in terms:
            x = packed[sub]
            if x:
                F = factors.get(weight)
                if F is None:
                    F = self._factor(*weight)
                total += F * x
        return total

    def _factor(self, B: int, j: int, r: int, a: int) -> int:
        """F(B, j, r, a), packed: the sum over i of the four-binomial product.

        Terms with i > min(r, a) vanish, because a q-binomial with a negative
        lower index is zero.
        """
        qb, w = self.binomials._packed, self.w
        F = 0
        for i in range(min(r, a) + 1):
            d = j - r - a + i
            term = (qb((B, d), w) * qb((B - d, a - i), w) * qb((B - d, r - i), w)
                    << (_binom2(a - i) + _binom2(r - i)) * self.shift)
            if i:  # for i = 0 the peak factor is the empty product,
                # even when the intermediate word has no separators
                term *= qb((B - (j - r - a) - 1, i), w)
            F += term
        self.factors[B, j, r, a] = F
        return F

    def dump(self, path: str) -> None:
        """Write the memo atomically: a temporary file in the same directory,
        then a rename over `path`.  The file records MEMO_VERSION and the
        SHA-256 of its compact entries list, which `load` checks."""
        import json  # here and in _memo_entries: json adds ~2.5 ms to `import smirnov`
        import tempfile

        entries = json.dumps([[n, k, l, list(mu), list(map(str, poly.coeffs))]
                              for (n, k, l, mu), poly in self.memo.items()],
                             separators=(",", ":"))
        digest = _digest(entries)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".memo-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write('{"version":%d,"sha256":"%s","entries":' % (MEMO_VERSION, digest))
                fh.write(entries)
                fh.write("}")
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def load(self, path: str) -> None:
        """Merge a file written by `dump` into the memo, each entry under
        its k <= l key, so a file that also holds the k > l half loads too.

        Raises ValueError naming `path` if the file is not valid JSON, has
        another version, fails its checksum, holds an entry whose key is
        not canonical (mu positive, sorted descending and summing to n;
        k, l >= 0 and k + l < n) or whose value is not a trimmed list of
        nonnegative integers written as strings, or holds entries (k, l) and
        (l, k) that disagree.  Nothing is merged then.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                self.memo.update(_memo_entries(fh.read()))
        except ValueError as exc:
            raise ValueError("memo file %s: %s" % (path, exc)) from None


def _digest(entries: str) -> str:
    import hashlib  # here, not at the top: loading OpenSSL adds ~4 ms to `import smirnov`

    return hashlib.sha256(entries.encode()).hexdigest()


# {"version": V, "sha256": "<hex>", "entries": ...}, up to the entries
_MEMO_HEAD = r'\s*\{\s*"version"\s*:\s*(\d+)\s*,\s*"sha256"\s*:\s*"(\w*)"\s*,\s*"entries"\s*:\s*'


def _memo_entries(text: str) -> dict:
    """The checked {key: QPolynomial} of the text of a memo file (see `load`).

    The checksum covers the entries list as the file spells it."""
    import json
    import re

    head = re.match(_MEMO_HEAD, text)
    if head is None or head[1] != str(MEMO_VERSION):
        raise ValueError("not a version-%d memo" % MEMO_VERSION)
    entries, end = json.JSONDecoder().raw_decode(text, head.end())
    if text[end:].strip() != "}":
        raise ValueError("not a version-%d memo" % MEMO_VERSION)
    if not isinstance(entries, list):
        raise ValueError("no entries list")
    if head[2] != _digest(text[head.end():end]):
        raise ValueError("checksum mismatch: the entries were changed after they were written")
    memo = {}
    for entry in entries:
        if not (type(entry) is list and len(entry) == 5
                and set(map(type, entry[:3])) == {int}
                and type(entry[3]) is list and set(map(type, entry[3])) <= {int}
                and type(entry[4]) is list and set(map(type, entry[4])) <= {str}):
            raise ValueError("malformed entry %.80s" % json.dumps(entry))
        n, k, l, mu, coeffs = entry
        if (min(mu, default=1) < 1 or mu != sorted(mu, reverse=True)
                or sum(mu) != n or k < 0 or l < 0 or k + l >= n):
            raise ValueError("non-canonical key n=%d k=%d l=%d mu=%r" % (n, k, l, mu))
        values = tuple(map(int, coeffs))
        if values and (min(values) < 0 or values[-1] == 0):
            raise ValueError("value of n=%d k=%d l=%d mu=%r is not a trimmed list of "
                             "nonnegative integers" % (n, k, l, mu))
        key = (n, k, l, tuple(mu)) if k <= l else (n, l, k, tuple(mu))
        if memo.setdefault(key, _poly(values)).coeffs != values:
            raise ValueError("two entries of n=%d mu=%r with {k, l} = {%d, %d} disagree"
                             % (n, mu, k, l))
    return memo


_DEFAULT_TABLE = SfCoefficientTable()


def sf_h_coefficient(n: int, k: int, l: int, mu: Sequence[int],
                     table: SfCoefficientTable | None = None) -> QPolynomial:
    """The h_mu-coefficient of the symmetric-function side, by the memoized recursion.

    Requires k + l < n (or n = 0): the underlying symmetric function is only
    defined with at least one block.  The combinatorial sum for k + l >= n is
    genuinely zero.
    """
    if not (type(n) is type(k) is type(l) is int) or n < 0 or k < 0 or l < 0:
        raise ValueError("n, k, l must be nonnegative ints, got %r" % ((n, k, l),))
    key = _canonical_mu(mu)
    if sum(key) != n:
        raise ValueError("content %r does not sum to n=%d" % (tuple(mu), n))
    if n > 0 and k + l >= n:
        raise ValueError("sf_h_coefficient requires k+l < n (got n=%d, k=%d, l=%d)" % (n, k, l))
    if n == 0:
        return _ONE if (k, l) == (0, 0) else _ZERO
    if table is None:
        table = _DEFAULT_TABLE
    return table._get((n, k, l, key) if k <= l else (n, l, k, key), n)


class _StandardCount(_PackedRecursion):
    """SW_q(1^n, k, l) by the standard-case recursion; zero when k+l >= n > 0.

    H(n, k, l) = [n-k-l]_q (H(n-1, k, l) + H(n-1, k, l-1) + H(n-1, k-1, l)
    + H(n-1, k-1, l-1)); a query fills the rows below it that this reaches.
    The sum is symmetric in k and l, so a cell is held under its k <= l key.
    """

    SEED = {(0, 0, 0): 1}

    def __call__(self, n: int, k: int, l: int) -> QPolynomial:
        if not (type(n) is type(k) is type(l) is int):
            raise ValueError("n, k, l must be ints, got %r" % ((n, k, l),))
        if n < 0 or k < 0 or l < 0 or k + l >= max(n, 1):  # outside the cells of size n
            return _ZERO
        return self._get((n, k, l) if k <= l else (n, l, k), n)

    _width = staticmethod(_count_slot)

    @staticmethod
    def _terms(key: tuple) -> list:
        """Each (k - dk, l - dl), dk, dl in {0, 1}, that is a cell of size n - 1,
        under its k <= l key and of weight 1: (k, l - 1) is out of order only
        when k = l, and then it is (k - 1, l), listed twice."""
        n, k, l = key
        m = n - 1
        top, terms = max(m, 1), []
        for k2, l2 in ((k, l), (k, l - 1) if k < l else (k - 1, l), (k - 1, l), (k - 1, l - 1)):
            if k2 >= 0 and k2 + l2 < top:
                terms.append(((m, k2, l2), 1))
        return terms

    def _value(self, key: tuple, terms: list) -> int:
        n, k, l = key
        packed, subs = self.packed, iter(terms)
        rest = packed[next(subs)[0]]  # not 0 + ...: that would copy the first int
        for sub, _ in subs:
            rest += packed[sub]
        # times [B]_q, B = n - k - l, by doubling along the bits of B: [2m]_q =
        # [m]_q (1 + q^m) and [m + 1]_q = 1 + q [m]_q, so O(log B) shifts and
        # adds of rest-sized ints, where a division by 2^(8w) - 1 costs per digit
        shift, out, m = self.shift, rest, 1
        for bit in bin(n - k - l)[3:]:
            out += out << m * shift
            m *= 2
            if bit == "1":
                out = rest + (out << shift)
                m += 1
        return out


standard_q_count = _StandardCount()


def histogram_poly(counts: dict) -> QPolynomial:
    """The sum of c q^v over the items (v, c) of a histogram; zero when it is empty."""
    if not counts:
        return _ZERO
    out = [0] * (max(counts) + 1)
    for v, c in dict(counts).items():  # a list of ints is Python's TypeError here
        out[v] = c
    return QPolynomial(out)


def cells(n: int) -> list:
    """The cells (k, l) of size n: every k + l < n, or (0, 0) alone when n = 0."""
    if n == 0:
        return [(0, 0)]
    return [(k, l) for k in range(n) for l in range(n - k)]


def hilbert_table(n: int) -> dict:
    """Table (k, l) -> standard_q_count(n, k, l) over the cells of size n."""
    if type(n) is not int or n < 0:
        raise ValueError("n must be a nonnegative int, got %r" % (n,))
    return {(k, l): standard_q_count(n, k, l) for k, l in cells(n)}


def trivariate(table: dict) -> str:
    """Render {(k, l): QPolynomial} as a polynomial in q, u, v."""
    terms = []
    for (k, l), poly in sorted(table.items()):
        if not poly:
            continue
        coeff = str(poly)
        if "+" in coeff:
            coeff = "(%s)" % coeff
        factors = [] if coeff == "1" and (k or l) else [coeff]
        if k:
            factors.append("u" if k == 1 else "u^%d" % k)
        if l:
            factors.append("v" if l == 1 else "v^%d" % l)
        terms.append("".join(factors))
    return " + ".join(terms) or "0"
