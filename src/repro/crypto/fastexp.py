"""Fixed-base and multi-exponentiation acceleration (the crypto hot path).

Every scheme in :mod:`repro.crypto` bottoms out in modular exponentiation,
and almost all of those exponentiations share a handful of *long-lived*
bases: the group generator ``g``, the broker's and judge's public keys, and
the roster membership keys.  Exponentiating a known base is embarrassingly
precomputable — this module provides the three standard accelerations from
the e-cash / signature literature and the machinery to apply them
transparently:

* :class:`FixedBaseTable` — windowed fixed-base precomputation
  (Brickell–Gordon–McCurley–Wilson).  A one-time table of
  ``base**(j * 2**(w*i))`` turns every later exponentiation into
  ``ceil(bits/w)`` modular multiplications and **zero** squarings — measured
  4–6× faster than CPython's native ``pow`` at our parameter sizes.  The
  window is per table: the two hottest bases get :data:`WIDE_WINDOW`.
* :func:`multi_exp` — simultaneous multi-exponentiation.  Cached bases are
  resolved through their tables; the remaining ad-hoc bases share one
  interleaved square-and-multiply loop (Straus/Shamir), so a product of
  ``k`` exponentiations costs one set of squarings instead of ``k``.
* :func:`batch_inverse` — Montgomery's trick: ``n`` modular inverses for
  one inversion plus ``3n`` multiplications.
* An **auto-promotion cache**: any base seen :data:`PROMOTE_AFTER` times for
  the same modulus gets a table built and cached (bounded LRU).  Long-lived
  keys therefore accelerate themselves; one-shot bases never pay the table
  cost.  Verifiers that only ever see a key as an integer on the wire reach
  the same cache as code holding the rich objects.

The module also memoizes subgroup-membership checks (``x**q == 1 mod p``),
which cost a full exponentiation and are repeated endlessly for the same
handful of keys by protocol code.

Thread-safety: the caches are process-local plain dicts guarded by the GIL;
entries are only ever added, and a racing duplicate build is harmless.  The
parallel sweep runner forks workers, each inheriting (then growing) its own
copy.
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = [
    "FixedBaseTable",
    "fixed_base",
    "precompute",
    "batch_inverse",
    "mod_pow",
    "multi_exp",
    "is_member",
    "clear_caches",
]

#: Build-and-cache a table for a base after this many uses with the same
#: modulus.  2 means "promote on the second sighting": the table build costs
#: roughly five native exponentiations, so a base used a handful of times
#: already breaks even, and long-lived keys win 4-6x forever after.
PROMOTE_AFTER = 2

#: Window width for cached (long-lived) tables.  Bigger windows trade build
#: time for per-exponentiation speed; 5 is the measured sweet spot when the
#: table lives for many uses.
CACHED_WINDOW = 5

#: Window width for the two hottest bases: the generator ``g``
#: (:meth:`repro.crypto.params.DlogParams.fixed_g`) and the judge's opening
#: key (:class:`repro.crypto.group_signature.GroupManager`).  Signing and
#: verifying a group signature each exponentiate ``g`` twice and the opening
#: key once per roster member, so a ~0.9 MB table (1024-bit ``p``, 160-bit ``q``; ~10 ms to build) that cuts
#: each exponentiation from 32 to 20 multiplications pays for itself within
#: one signature.  Roster keys keep :data:`CACHED_WINDOW` to bound memory.
WIDE_WINDOW = 8

#: Window width for ephemeral tables built for one signature's worth of
#: uses (e.g. the ciphertext bases inside a group-signature roster loop).
EPHEMERAL_WINDOW = 4

#: Straus interleaving window for ad-hoc simultaneous exponentiation.
_STRAUS_WINDOW = 4

#: Ad-hoc base count at which the bucket (Pippenger) method overtakes Straus.
#: Straus pays a per-base window table (``2**w - 1`` multiplications) that the
#: bucket method does not; past a dozen-odd bases the buckets win and keep
#: winning — the batched group-signature test routinely brings hundreds.
_PIPPENGER_MIN = 16

_MAX_TABLES = 256  # cached FixedBaseTable entries (LRU)
_MAX_WIDE_TABLES = 8  # of which wider than CACHED_WINDOW (LRU among themselves)
_MAX_COUNTS = 8192  # promotion counters before mass eviction
_MAX_MEMBERS = 8192  # memoized positive membership checks


class FixedBaseTable:
    """Windowed precomputation for one ``(base, modulus)`` pair.

    The table stores ``base**(j * 2**(window*i)) mod modulus`` for every
    window digit ``j`` and every digit position ``i`` up to ``max_bits``.
    :meth:`pow` then assembles ``base**e`` as a product of one table entry
    per non-zero digit of ``e`` — no squarings at all.

    ``order``, when given, is the multiplicative order of ``base`` (our
    bases are order-``q`` subgroup elements); exponents are reduced modulo
    it, which also makes the inversion-free ``base**-c == base**(order-c)``
    rewriting at call sites safe.
    """

    __slots__ = ("base", "modulus", "order", "window", "max_bits", "_rows")

    def __init__(
        self,
        base: int,
        modulus: int,
        max_bits: int,
        window: int = CACHED_WINDOW,
        order: int | None = None,
    ) -> None:
        if not (0 < base < modulus):
            raise ValueError("base must be a reduced nonzero residue")
        if max_bits < 1 or window < 1:
            raise ValueError("max_bits and window must be positive")
        self.base = base
        self.modulus = modulus
        self.order = order
        self.window = window
        self.max_bits = max_bits
        n_digits = (max_bits + window - 1) // window
        span = 1 << window
        rows: list[list[int]] = []
        b = base
        for _ in range(n_digits):
            row = [1] * span
            acc = 1
            for j in range(1, span):
                acc = (acc * b) % modulus
                row[j] = acc
            rows.append(row)
            # Next row's base is base**(2**window) relative to this row.
            b = (row[span - 1] * b) % modulus
        self._rows = rows

    def pow(self, exponent: int) -> int:
        """``base ** exponent mod modulus`` via table lookups only."""
        if self.order is not None:
            exponent %= self.order
        if exponent < 0:
            raise ValueError("negative exponent needs a known order")
        if exponent.bit_length() > self.max_bits:
            return pow(self.base, exponent, self.modulus)  # beyond the table
        w = self.window
        mask = (1 << w) - 1
        m = self.modulus
        result = 1
        i = 0
        rows = self._rows
        while exponent:
            digit = exponent & mask
            if digit:
                result = (result * rows[i][digit]) % m
            exponent >>= w
            i += 1
        return result


# -- global caches ------------------------------------------------------------

_tables: OrderedDict[tuple[int, int], FixedBaseTable] = OrderedDict()
_use_counts: dict[tuple[int, int], int] = {}
_members: OrderedDict[tuple[int, int, int], bool] = OrderedDict()


def clear_caches() -> None:
    """Drop every cached table, counter, and membership memo (test hook)."""
    _tables.clear()
    _use_counts.clear()
    _members.clear()


def _lookup(base: int, modulus: int) -> FixedBaseTable | None:
    table = _tables.get((base, modulus))
    if table is not None:
        _tables.move_to_end((base, modulus))
    return table


def precompute(
    base: int,
    modulus: int,
    max_bits: int,
    order: int | None = None,
    window: int = CACHED_WINDOW,
) -> FixedBaseTable:
    """Build (or fetch) the cached table for ``(base, modulus)``.

    Call this eagerly for keys known to be long-lived — the generator, the
    judge's opening key, roster membership keys — to skip the promotion
    warm-up entirely.  A cached table is reused when it covers ``max_bits``
    with at least ``window``; a narrower one is rebuilt (never downgraded:
    the rebuild keeps the wider of the two windows).
    """
    key = (base, modulus)
    table = _lookup(base, modulus)
    if table is not None:
        if table.max_bits >= max_bits and table.window >= window:
            return table
        window = max(window, table.window)
    table = FixedBaseTable(base, modulus, max_bits, window=window, order=order)
    _tables[key] = table
    _tables.move_to_end(key)
    while len(_tables) > _MAX_TABLES:
        _tables.popitem(last=False)
    if window > CACHED_WINDOW:
        wide = [k for k, held in _tables.items() if held.window > CACHED_WINDOW]
        for stale in wide[: max(0, len(wide) - _MAX_WIDE_TABLES)]:
            del _tables[stale]
    _use_counts.pop(key, None)
    return table


def batch_inverse(values: list[int], modulus: int) -> list[int]:
    """Modular inverses of every element of ``values`` (Montgomery's trick).

    One native inversion plus three multiplications per element, instead of
    one inversion each.  Every value must be invertible modulo ``modulus``
    (our callers pass subgroup elements modulo a prime); an empty list
    returns an empty list.
    """
    if not values:
        return []
    prefix = [0] * len(values)
    acc = 1
    for i, value in enumerate(values):
        prefix[i] = acc
        acc = (acc * value) % modulus
    inv = pow(acc, -1, modulus)  # inverse of the whole product
    out = [0] * len(values)
    for i in range(len(values) - 1, -1, -1):
        out[i] = (inv * prefix[i]) % modulus
        inv = (inv * values[i]) % modulus
    return out


def fixed_base(base: int, modulus: int) -> FixedBaseTable | None:
    """The cached table for ``(base, modulus)``, if one exists."""
    return _lookup(base, modulus)


def _note_use(base: int, modulus: int, max_bits: int, order: int | None) -> FixedBaseTable | None:
    """Count a cache miss; promote the base once it proves to be recurrent."""
    key = (base, modulus)
    count = _use_counts.get(key, 0) + 1
    if count >= PROMOTE_AFTER:
        return precompute(base, modulus, max_bits, order=order)
    if len(_use_counts) >= _MAX_COUNTS:
        _use_counts.clear()  # cheap mass eviction; counters are advisory
    _use_counts[key] = count
    return None


def mod_pow(base: int, exponent: int, modulus: int, order: int | None = None) -> int:
    """Drop-in ``pow(base, exponent, modulus)`` with transparent acceleration.

    Uses the base's fixed table when one is cached, promotes recurrent
    bases, and otherwise defers to native ``pow``.  ``order`` is the base's
    multiplicative order when known (enables exponent reduction and sizes
    the promotion table).
    """
    if modulus <= 1 or exponent < 0:
        return pow(base, exponent, modulus)
    base %= modulus
    if base in (0, 1):
        return base if exponent else 1 % modulus
    if order is not None:
        exponent %= order
    max_bits = (order or modulus).bit_length()
    table = _lookup(base, modulus)
    if table is None and exponent.bit_length() <= max_bits:
        table = _note_use(base, modulus, max_bits, order)
    if table is not None:
        return table.pow(exponent)
    return pow(base, exponent, modulus)


def _straus(pairs: list[tuple[int, int]], modulus: int) -> int:
    """Interleaved (Straus/Shamir) product of ``base**exp`` for ad-hoc bases.

    One shared squaring chain for all bases; per-base windowed digit tables
    built on the fly.  Worth it from two bases up.
    """
    w = _STRAUS_WINDOW
    span = 1 << w
    tables: list[list[int]] = []
    for base, _ in pairs:
        row = [1] * span
        acc = 1
        for j in range(1, span):
            acc = (acc * base) % modulus
            row[j] = acc
        tables.append(row)
    n_digits = (max(e.bit_length() for _, e in pairs) + w - 1) // w
    mask = span - 1
    result = 1
    for i in range(n_digits - 1, -1, -1):
        if result != 1:
            for _ in range(w):
                result = (result * result) % modulus
        shift = w * i
        for (row, (_, exponent)) in zip(tables, pairs):
            digit = (exponent >> shift) & mask
            if digit:
                result = (result * row[digit]) % modulus
    return result


def _bucket_window(n_bases: int, max_bits: int) -> int:
    """Bucket width minimizing the estimated multiplication count."""
    best_c = 1
    best_cost: int | None = None
    for c in range(1, 17):
        windows = (max_bits + c - 1) // c
        cost = n_bases * windows + windows * 2 * (1 << c) + max_bits
        if best_cost is None or cost < best_cost:
            best_c, best_cost = c, cost
    return best_c


def _pippenger(pairs: list[tuple[int, int]], modulus: int) -> int:
    """Bucket-method product of ``base**exp`` for *many* ad-hoc bases.

    Per window, each base is multiplied into the bucket of its exponent
    digit (one multiplication per base per window, no per-base tables), and
    the buckets collapse with the running-sum trick (two multiplications
    per occupied digit level).  For the hundreds of 64-bit-exponent bases a
    batched signature check produces, this costs a fraction of Straus.
    """
    max_bits = max(e.bit_length() for _, e in pairs)
    c = _bucket_window(len(pairs), max_bits)
    mask = (1 << c) - 1
    result = 1
    for i in range((max_bits + c - 1) // c - 1, -1, -1):
        if result != 1:
            for _ in range(c):
                result = (result * result) % modulus
        shift = c * i
        buckets: dict[int, int] = {}
        for base, exponent in pairs:
            digit = (exponent >> shift) & mask
            if digit:
                held = buckets.get(digit)
                buckets[digit] = base if held is None else (held * base) % modulus
        if buckets:
            acc = 1
            running = 1
            for digit in range(max(buckets), 0, -1):
                held = buckets.get(digit)
                if held is not None:
                    acc = (acc * held) % modulus
                running = (running * acc) % modulus
            result = (result * running) % modulus
    return result


def multi_exp(
    pairs,
    modulus: int,
    order: int | None = None,
    promote: bool = True,
) -> int:
    """``prod(base**exp) mod modulus`` for a sequence of ``(base, exp)``.

    The workhorse behind ``dsa_verify``'s ``g**u1 * y**u2`` and the batched
    signature checks.  Each base is resolved in order of preference: the
    global fixed-base cache, then one shared loop for whatever is left —
    Straus interleaving for a few bases, the bucket method
    (:func:`_pippenger`) once there are :data:`_PIPPENGER_MIN` or more (a
    single leftover base falls back to native ``pow``).

    ``order`` (the common multiplicative order of the bases, when known)
    reduces every exponent first — this is what lets callers write inverses
    as ``base**(order - c)`` and stay inversion-free.  ``promote=False``
    skips use-counting for uncached bases: batch verifiers pass throwaway
    per-signature bases that would only churn the promotion counters.
    """
    result = 1
    adhoc: list[tuple[int, int]] = []
    max_bits = (order or modulus).bit_length()
    for base, exponent in pairs:
        base %= modulus
        if order is not None:
            exponent %= order
        if exponent == 0 or base == 1:
            continue
        if base == 0:
            return 0
        table = _lookup(base, modulus)
        if table is None and promote and exponent.bit_length() <= max_bits:
            table = _note_use(base, modulus, max_bits, order)
        if table is not None:
            result = (result * table.pow(exponent)) % modulus
        else:
            adhoc.append((base, exponent))
    if len(adhoc) == 1:
        base, exponent = adhoc[0]
        result = (result * pow(base, exponent, modulus)) % modulus
    elif len(adhoc) >= _PIPPENGER_MIN:
        result = (result * _pippenger(adhoc, modulus)) % modulus
    elif adhoc:
        result = (result * _straus(adhoc, modulus)) % modulus
    return result


def is_member(x: int, q: int, p: int) -> bool:
    """Memoized order-``q`` subgroup membership test in ``Z_p^*``.

    Protocol code re-checks the same handful of public keys on every
    message; each check is a full exponentiation.  Positive and negative
    results are both memoized (bounded LRU) — group parameters are
    immutable, so the answer never changes.
    """
    if not 0 < x < p:
        return False
    key = (x, q, p)
    hit = _members.get(key)
    if hit is not None:
        _members.move_to_end(key)
        return hit
    # No promotion counting here: the memo below already removes repeats.
    # A cached table may only be used if it does not reduce exponents by an
    # *assumed* order q — for a non-member, x**(q % q) would lie.
    table = _lookup(x, p)
    if table is not None and table.order is None:
        ok = table.pow(q) == 1
    else:
        ok = pow(x, q, p) == 1
    _members[key] = ok
    while len(_members) > _MAX_MEMBERS:
        _members.popitem(last=False)
    return ok
