"""Exact q-polynomial arithmetic, q-binomials, and the memoized coefficient recursion.

Every quantity in this package is a counting series, so QPolynomial only
supports addition and multiplication; coefficients are arbitrary-precision
nonnegative integers and subtraction is deliberately absent.
"""

from __future__ import annotations

import functools
import json
import operator
import os
import threading
from typing import Iterable, Sequence


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
            if c < 0:
                raise ValueError("QPolynomial coefficients must be nonnegative, got %r" % (c,))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("QPolynomial is immutable")

    @classmethod
    def zero(cls) -> "QPolynomial":
        return _ZERO

    @classmethod
    def one(cls) -> "QPolynomial":
        return _ONE

    @classmethod
    def q_power(cls, k: int) -> "QPolynomial":
        return cls((0,) * k + (1,))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else float("-inf")

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

    def __mul__(self, other):
        if isinstance(other, int):
            return QPolynomial(c * other for c in self.coeffs)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        # Kronecker substitution q -> 2^(8w): a product coefficient is a sum of
        # at most min(len) terms, each below 2^(bits(max a) + bits(max b)), so it
        # fits in a w-byte slot and no slot carries into the next one.
        w = (max(a).bit_length() + max(b).bit_length()
             + min(len(a), len(b)).bit_length() + 7) >> 3
        x = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in a]), "little")
        y = int.from_bytes(b"".join([c.to_bytes(w, "little") for c in b]), "little")
        size = w * (len(a) + len(b) - 1)
        data = (x * y).to_bytes(size, "little")
        return _poly(tuple([int.from_bytes(data[i:i + w], "little")
                            for i in range(0, size, w)]))

    __rmul__ = __mul__

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

    def to_json(self) -> dict:
        return {"coeffs": [str(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "QPolynomial":
        return cls(int(c) for c in data["coeffs"])


def _poly(coeffs: tuple) -> QPolynomial:
    """A QPolynomial from a tuple already known to be trimmed and nonnegative."""
    p = object.__new__(QPolynomial)
    object.__setattr__(p, "coeffs", coeffs)
    return p


_ZERO = _poly(())
_ONE = _poly((1,))


class _FillState(threading.local):
    active = False


_fill_state = _FillState()


def _fill_bottom_up(fn, cells: Iterable[tuple]) -> None:
    """Call the memoized recursion `fn` on `cells`, given predecessors first.

    Each of those calls then finds the cells it recurses into already cached,
    so the stack stays a few frames deep at any size.  Calls made while a fill
    runs in this thread skip their own fill: their predecessors are cached.
    """
    if _fill_state.active:
        return
    _fill_state.active = True
    try:
        for cell in cells:
            fn(*cell)
    finally:
        _fill_state.active = False


@functools.lru_cache(maxsize=None)
def q_binomial(a: int, b: int) -> QPolynomial:
    """Gaussian binomial [a choose b]_q; zero when b < 0 or b > a (so for all a < 0)."""
    if b < 0 or b > a:
        return _ZERO
    if b == 0 or b == a:
        return _ONE
    _fill_bottom_up(q_binomial, ((a2, b2) for a2 in range(2, a)
                                 for b2 in range(max(1, b - (a - a2)), min(b, a2 - 1) + 1)))
    return q_binomial(a - 1, b - 1) + q_binomial(a - 1, b).times_q_power(b)


def q_int(n: int) -> QPolynomial:
    """[n]_q = 1 + q + ... + q^(n-1); zero for n <= 0."""
    if n <= 0:
        return _ZERO
    return _poly((1,) * n)


def _binom2(x: int) -> int:
    return x * (x - 1) // 2


def _canonical_mu(mu: Sequence[int]) -> tuple:
    """Sorted-descending partition key with zero parts dropped."""
    parts = sorted((p for p in mu if p != 0), reverse=True)
    for p in parts:
        if p < 0:
            raise ValueError("content parts must be nonnegative, got %r" % (p,))
    return tuple(parts)


MEMO_VERSION = 2


class SfCoefficientTable:
    """Memoized map (n, k, l, sorted mu) -> QPolynomial via the coefficient recursion.

    The recursion strips the j occurrences of the largest letter (j = last
    positive part of mu) and sums over 0 <= r, a <= j the sub-coefficient
    times the factor F(B, j, r, a), itself a sum over 0 <= i <= j of four
    q-binomials (`factor`).  F does not depend on mu or on the sub-problem, so
    each table caches it in `factors` beside `memo`.
    """

    def __init__(self):
        self.memo: dict = {}
        self.factors: dict = {}

    def coefficient(self, n: int, k: int, l: int, mu: tuple) -> QPolynomial:
        if n == 0:
            return _ONE if (k, l) == (0, 0) else _ZERO
        if n < 0 or k < 0 or l < 0 or k + l >= n:
            return _ZERO
        key = (n, k, l, mu)
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        j = mu[-1]  # multiplicity of the largest letter (mu sorted descending)
        mu_minus = mu[:-1]
        B = n - k - l
        total = _ZERO
        for r in range(j + 1):
            for a in range(j + 1):
                sub = self.coefficient(n - j, k - r, l - a, mu_minus)
                if sub:
                    total = total + self.factor(B, j, r, a) * sub
        self.memo[key] = total
        return total

    def factor(self, B: int, j: int, r: int, a: int) -> QPolynomial:
        """F(B, j, r, a): the sum over i of the four-binomial product.

        Terms with i > min(r, a) vanish, because a q-binomial with a negative
        lower index is zero.
        """
        key = (B, j, r, a)
        F = self.factors.get(key)
        if F is not None:
            return F
        F = _ZERO
        for i in range(min(r, a) + 1):
            d = j - r - a + i
            term = (q_binomial(B, d)
                    * q_binomial(B - d, a - i).times_q_power(_binom2(a - i))
                    * q_binomial(B - d, r - i).times_q_power(_binom2(r - i)))
            if i:  # for i = 0 the peak factor is the empty product,
                # even when the intermediate word has no separators
                term = term * q_binomial(B - (j - r - a) - 1, i)
            F = F + term
        self.factors[key] = F
        return F

    def dump(self, path: str) -> None:
        """Write the memo atomically: a temporary file in the same directory,
        then a rename over `path`.  The file records MEMO_VERSION and the
        SHA-256 of its compact entries list, which `load` checks."""
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
        """Merge a file written by `dump` into the memo.

        Raises ValueError naming `path` if the file is not valid JSON, has
        another version, fails its checksum, or holds an entry whose key is
        not canonical (mu positive, sorted descending and summing to n;
        k, l >= 0 and k + l < n) or whose value is not a trimmed list of
        nonnegative integers written as strings.  Nothing is merged then.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                self.memo.update(_memo_entries(json.loads(fh.read())))
        except ValueError as exc:
            raise ValueError("memo file %s: %s" % (path, exc)) from None


def _digest(entries: str) -> str:
    import hashlib  # here, not at the top: loading OpenSSL adds ~4 ms to `import smirnov`

    return hashlib.sha256(entries.encode()).hexdigest()


def _memo_entries(data) -> dict:
    """The checked {key: QPolynomial} of a parsed memo file (see `load`)."""
    if not isinstance(data, dict) or data.get("version") != MEMO_VERSION:
        raise ValueError("not a version-%d memo" % MEMO_VERSION)
    entries = data.get("entries")
    if not isinstance(entries, list):
        raise ValueError("no entries list")
    if data.get("sha256") != _digest(json.dumps(entries, separators=(",", ":"))):
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
        memo[(n, k, l, tuple(mu))] = _poly(values)
    return memo


_DEFAULT_TABLE = SfCoefficientTable()


def sf_h_coefficient(n: int, k: int, l: int, mu: Sequence[int],
                     table: SfCoefficientTable | None = None) -> QPolynomial:
    """The h_mu-coefficient of the symmetric-function side, by the memoized recursion.

    Requires k + l < n (or n = 0): the underlying symmetric function is only
    defined with at least one block.  The combinatorial sum for k + l >= n is
    genuinely zero and is available via enumerative_q_sum.
    """
    if n < 0 or k < 0 or l < 0:
        raise ValueError("n, k, l must be nonnegative")
    key = _canonical_mu(mu)
    if sum(key) != n:
        raise ValueError("content %r does not sum to n=%d" % (tuple(mu), n))
    if n > 0 and k + l >= n:
        raise ValueError("sf_h_coefficient requires k+l < n (got n=%d, k=%d, l=%d)" % (n, k, l))
    if table is None:
        table = _DEFAULT_TABLE
    return table.coefficient(n, k, l, key)


@functools.lru_cache(maxsize=None)
def standard_q_count(n: int, k: int, l: int) -> QPolynomial:
    """SW_q(1^n, k, l) by the standard-case recursion; zero when k+l >= n > 0."""
    if n == 0:
        return _ONE if (k, l) == (0, 0) else _ZERO
    if n < 0 or k < 0 or l < 0 or k + l >= n:
        return _ZERO
    _fill_bottom_up(standard_q_count, (
        (m, k2, l2) for m in range(1, n)
        for k2 in range(max(0, k - (n - m)), k + 1)
        for l2 in range(max(0, l - (n - m)), min(l, m - 1 - k2) + 1)))
    rest = (standard_q_count(n - 1, k, l)
            + standard_q_count(n - 1, k, l - 1)
            + standard_q_count(n - 1, k - 1, l)
            + standard_q_count(n - 1, k - 1, l - 1))
    return q_int(n - k - l) * rest


def enumerative_q_sum(mu: Sequence[int], k: int, l: int, stat: str = "sminv") -> QPolynomial:
    """Exact sum of q^stat(w) over all words of content mu with k ascents, l descents."""
    from .stats import sdinv_count, sminv_count
    from .words import enumerate_words_by_stat

    if stat == "sminv":
        fn = sminv_count
    elif stat == "sdinv":
        fn = sdinv_count
    else:
        raise ValueError("unknown statistic %r" % (stat,))
    counts: dict = {}
    for w in enumerate_words_by_stat(mu, k, l):
        v = fn(w)
        counts[v] = counts.get(v, 0) + 1
    return histogram_poly(counts)


def histogram_poly(counts: dict) -> QPolynomial:
    """The sum of c q^v over the items (v, c) of a histogram; zero when it is empty."""
    if not counts:
        return _ZERO
    out = [0] * (max(counts) + 1)
    for v, c in counts.items():
        out[v] = c
    return QPolynomial(out)


def cells(n: int) -> list:
    """The cells (k, l) of size n: every k + l < n, or (0, 0) alone when n = 0."""
    if n == 0:
        return [(0, 0)]
    return [(k, l) for k in range(n) for l in range(n - k)]


def hilbert_table(n: int) -> dict:
    """Table (k, l) -> standard_q_count(n, k, l) over the cells of size n."""
    return {(k, l): standard_q_count(n, k, l) for k, l in cells(n)}
