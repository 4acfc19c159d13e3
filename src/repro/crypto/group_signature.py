"""Group signatures with judge opening (Section 3.2 of the paper).

The paper requires a scheme with three properties:

* **Anonymity / unlinkability** — a verifier learns only that *some*
  registered member signed; two signatures by the same member cannot be
  linked.
* **Public verifiability** — anyone holding the group public key can check
  membership.
* **Openability** — the judge (holder of the opening key) can recover the
  signer's identity from any valid signature.

The construction implemented here is a *ring signature with an escrowed
opening key*:

1. Every member ``i`` is registered by the judge with a membership key
   ``h_i = g^{x_i}``; the judge records ``h_i → identity``.
2. A signature on message ``M`` is an ElGamal encryption ``(c1, c2) =
   (g^r, h_i · y_J^r)`` of the signer's membership key under the judge's
   opening key ``y_J``, together with a Fiat–Shamir OR-proof
   (Cramer–Damgård–Schoenmakers composition) over the member roster that,
   for **some** ``j``, the prover knows ``(r, x_j)`` with::

       c1 = g^r   ∧   c2 / h_j = y_J^r   ∧   h_j = g^{x_j}

   The proof is bound to ``M`` through the challenge hash.
3. The judge opens a signature by decrypting ``(c1, c2)`` and looking up the
   resulting ``h_i`` in its registry.

Cost (DESIGN.md §1.1).  Both sides stay exact; only the arithmetic is
arranged so that almost every exponentiation hits a cached fixed-base table:

* The signer simulates each non-signer clause ``j`` with the response
  ``s_r = e_j + r*c_j`` for a uniform ``e_j`` — a bijection of ``Z_q``, so the
  signature distribution is unchanged — which turns the clause commitments
  into ``t1 = g^{e_j}`` and ``t2 = y_J^{e_j} * h_j^{c_j} * h^{-c_j}`` (``h``
  the signer's own roster key).  Signing never exponentiates the
  per-signature ``c1``/``c2``, and the long-term secret ``x_i`` only enters
  the signer's own clause.
* Signer and verifier obtain every ``h_j^{-c_j}`` from one Montgomery batch
  inversion of the ``h_j^{c_j}`` values they compute anyway.
* ``g`` and ``y_J`` use wide-window tables (``fastexp.WIDE_WINDOW``).

Deviation note (recorded in DESIGN.md §4): the paper assumes a hypothetical
"efficient group signature scheme" with constant-size signatures and guesses
its cost at 2x DSA (Table 3).  Our scheme is a real, working one but its
sign/verify cost is linear in the roster size.  The simulator therefore pins
the paper's 2x cost model (``repro.sim.costs``); the measured cost of this
scheme is reported separately by ``benchmarks/bench_table3_relative_cost.py``.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.crypto import fastexp, primitives
from repro.crypto.elgamal import ElGamalCiphertext, ElGamalKeyPair, elgamal_generate
from repro.crypto.keys import KeyPair, PublicKey
from repro.crypto.params import DlogParams, default_params


class GroupSignatureError(Exception):
    """Raised on malformed group-signature operations (never on bad sigs)."""


@dataclass(frozen=True)
class GroupPublicKey:
    """What a verifier needs: the group, the opening key, and the roster.

    The roster is a tuple of membership keys ``h_j``.  Membership keys are
    pseudonymous — only the judge can map one back to a real identity — so
    publishing the roster leaks nothing about identities.

    ``version`` identifies the roster snapshot (it advances on every
    registration *and* every expulsion), letting verifiers fetch exactly the
    snapshot a signer used and letting the system enforce a revocation
    floor: signatures minted against pre-expulsion snapshots can be refused.
    """

    params: DlogParams
    opening_key: PublicKey
    roster: tuple[int, ...]
    version: int = 0

    def encode(self) -> bytes:
        """Stable byte encoding hashed into every challenge (memoized —
        the fields are frozen, and verifiers hash it once per signature)."""
        cached = self.__dict__.get("_encode_memo")
        if cached is None:
            parts = [self.params.encode(), self.opening_key.encode()]
            parts.extend(primitives.int_to_bytes(h) for h in self.roster)
            cached = b"|".join(parts)
            object.__setattr__(self, "_encode_memo", cached)
        return cached

    def roster_index(self, h: int) -> int | None:
        """Index of membership key ``h`` in the roster, or ``None``."""
        try:
            return self.roster.index(h)
        except ValueError:
            return None


@dataclass(frozen=True)
class GroupMemberKey:
    """A member's group private key ``gk_U``: secret exponent + roster entry."""

    params: DlogParams
    x: int
    h: int  # = g^x mod p, the membership (roster) key

    @property
    def membership_key(self) -> int:
        """The public roster entry for this member."""
        return self.h


@dataclass(frozen=True)
class GroupSignature:
    """A group signature: ciphertext + per-clause OR-proof transcripts.

    ``commitments`` is the per-clause ``(t1, t2, t3)`` commitment list — a
    *verification accelerator*, not part of the signature's security.  The
    signer computes these values anyway (the challenge hash covers them), so
    attaching them is free; :func:`group_batch_verify` uses them to replace
    the per-clause equation recomputation with one randomized batch check.
    Verifiers never trust them beyond that randomized test, individual
    verification (:func:`group_verify`) ignores them entirely, and
    signatures without them (minted by an older peer, or stripped in
    transit) remain fully valid — the batch path falls back to exact
    per-signature verification for those.  Mirrors ``DsaSignature.commit``.
    """

    ciphertext: ElGamalCiphertext
    challenges: tuple[int, ...]
    responses_r: tuple[int, ...]
    responses_x: tuple[int, ...]
    commitments: tuple[tuple[int, int, int], ...] | None = None

    def encode(self) -> bytes:
        """Stable byte encoding.

        ``commitments`` is deliberately excluded: it is untrusted metadata
        that transports may strip, and the bytes here must stay identical
        for the same underlying signature either way.
        """
        parts = [self.ciphertext.encode()]
        for seq in (self.challenges, self.responses_r, self.responses_x):
            parts.extend(primitives.int_to_bytes(v) for v in seq)
        return b"|".join(parts)


class GroupManager:
    """The judge's side of the scheme: registration and opening.

    In WhoPay there is a single group containing every user (Section 3.2,
    footnote 1).  The manager can also split its opening key among ``N``
    judges with :meth:`export_opening_shares` (Shamir, Section 3.2).
    """

    def __init__(self, params: DlogParams | None = None) -> None:
        self.params = params or default_params()
        self._opening = elgamal_generate(self.params)
        # The opening key is exponentiated in every clause of every signature
        # for the lifetime of the group: precompute its wide table now.
        _opening_table(self.params, self._opening.public.y)
        self._registry: dict[int, str] = {}  # h -> identity
        # Snapshot history: version v is _snapshots[v].  Every registration
        # and every expulsion appends a snapshot, so old signatures remain
        # verifiable against the exact roster they were minted under.
        self._snapshots: list[tuple[int, ...]] = [()]
        self._expelled: dict[str, int] = {}  # identity -> expulsion version

    @property
    def opening_keypair(self) -> ElGamalKeyPair:
        """The judge's ElGamal opening key pair (keep secret)."""
        return self._opening

    def public_key(self) -> GroupPublicKey:
        """Snapshot of the current group public key (roster included)."""
        return self.public_key_at(len(self._snapshots) - 1)

    def public_key_at(self, version: int) -> GroupPublicKey:
        """The group public key as of roster version ``version``.

        A verifier can reconstruct exactly the snapshot a signer used (the
        signer's envelope records its roster version).
        """
        if not 0 <= version < len(self._snapshots):
            raise GroupSignatureError(f"unknown roster version {version}")
        return GroupPublicKey(
            params=self.params,
            opening_key=self._opening.public,
            roster=self._snapshots[version],
            version=version,
        )

    @property
    def current_version(self) -> int:
        """The latest roster version."""
        return len(self._snapshots) - 1

    def register(self, identity: str) -> GroupMemberKey:
        """Enroll ``identity``: mint a membership key and record the mapping.

        The paper has the judge assign each user a distinct private key
        (Section 3.2); we follow that and generate the key on the judge's
        side, returning it for delivery to the member.
        """
        member = KeyPair.generate(self.params)
        if member.public.y in self._registry:  # astronomically unlikely
            raise GroupSignatureError("membership key collision")
        # Roster keys are exponentiated on every sign/verify from now on.
        fastexp.precompute(member.public.y, self.params.p, self.params.q_bits, order=self.params.q)
        self._registry[member.public.y] = identity
        self._snapshots.append(self._snapshots[-1] + (member.public.y,))
        return GroupMemberKey(params=self.params, x=member.x, h=member.public.y)

    def expel(self, identity: str) -> int:
        """Remove ``identity`` from the roster; returns the new version.

        The member can no longer produce signatures that verify against
        current (or later) snapshots.  Its registry entry is kept so the
        judge can still open the member's *historical* signatures — expelling
        a fraudster must not destroy the evidence trail.
        """
        targets = [h for h, name in self._registry.items() if name == identity]
        current = self._snapshots[-1]
        live = [h for h in targets if h in current]
        if not live:
            raise GroupSignatureError(f"{identity!r} is not an active member")
        self._snapshots.append(tuple(h for h in current if h not in live))
        self._expelled[identity] = self.current_version
        return self.current_version

    def is_expelled(self, identity: str) -> bool:
        """True if ``identity`` has been removed from the current roster."""
        return identity in self._expelled

    def member_count(self) -> int:
        """Number of currently enrolled members."""
        return len(self._snapshots[-1])

    def open(self, signature: GroupSignature) -> str | None:
        """Reveal the signer's identity (fairness).

        Returns the registered identity, or ``None`` if the decrypted
        membership key is not in the registry (which cannot happen for a
        signature that verified against this group's public key).
        """
        from repro.crypto.elgamal import elgamal_decrypt

        h = elgamal_decrypt(self._opening, signature.ciphertext)
        return self._registry.get(h)

    def export_opening_shares(self, n: int, k: int) -> list[tuple[int, int]]:
        """Split the opening exponent into ``n`` Shamir shares, threshold ``k``.

        Any ``k`` judges can jointly rebuild the opening key via
        :func:`repro.crypto.shamir.combine_shares`; fewer learn nothing.
        """
        from repro.crypto.shamir import split_secret

        return split_secret(self._opening.secret, n=n, k=k, modulus=self.params.q)


def _challenge_hash(
    gpk: GroupPublicKey,
    ciphertext: ElGamalCiphertext,
    commitments: list[tuple[int, int, int]],
    message: bytes,
) -> int:
    parts: list[bytes] = [b"group-sig-v1", gpk.encode(), ciphertext.encode()]
    for t1, t2, t3 in commitments:
        parts.append(primitives.int_to_bytes(t1))
        parts.append(primitives.int_to_bytes(t2))
        parts.append(primitives.int_to_bytes(t3))
    parts.append(message)
    return primitives.hash_to_int(*parts, modulus=gpk.params.q)


def _opening_table(params: DlogParams, y: int) -> fastexp.FixedBaseTable:
    """The cached wide-window table for the judge's opening key ``y``.

    ``y`` is exponentiated in every clause of every signature for the
    lifetime of the group, so it gets :data:`fastexp.WIDE_WINDOW`, like
    ``g`` (:meth:`DlogParams.fixed_g`).
    """
    return fastexp.precompute(
        y, params.p, params.q_bits, order=params.q, window=fastexp.WIDE_WINDOW
    )


#: Build per-signature fixed-base tables for the ciphertext elements once
#: the roster reaches this size (below it, table construction outweighs the
#: lookups it saves).
_EPHEMERAL_TABLE_MIN_ROSTER = 6


def _ciphertext_pows(
    params: DlogParams, c1: int, c2: int, n: int
) -> tuple[Callable[[int], int], Callable[[int], int]]:
    """``e -> c1**e`` and ``e -> c2**e`` for a verifier that needs ``n`` of each.

    Every clause of the OR-proof exponentiates both ciphertext halves, so a
    roster of ``n`` members amortizes a one-off ephemeral table build ``n``
    times; below :data:`_EPHEMERAL_TABLE_MIN_ROSTER` plain ``pow`` is cheaper.
    The bases are never promoted into the global cache: they are one-shot.
    """
    p = params.p
    if n < _EPHEMERAL_TABLE_MIN_ROSTER:
        return (lambda e: pow(c1, e, p)), (lambda e: pow(c2, e, p))
    tables = {
        base: fastexp.FixedBaseTable(
            base, p, params.q_bits, window=fastexp.EPHEMERAL_WINDOW, order=params.q
        )
        for base in (c1, c2)  # keyed dict dedupes c1 == c2 deterministically
    }
    return tables[c1].pow, tables[c2].pow


def group_sign(gpk: GroupPublicKey, member: GroupMemberKey, message: bytes) -> GroupSignature:
    """Sign ``message`` anonymously on behalf of the group.

    The signer must appear in ``gpk.roster``; signing against a stale roster
    snapshot that predates the member's registration raises
    :class:`GroupSignatureError`.

    Each non-signer clause ``j`` is simulated with a uniform challenge
    ``c_j``, a uniform ``s_x`` and the response ``s_r = e_j + r*c_j`` for a
    uniform ``e_j``.  For fixed ``r`` and ``c_j`` that map is a bijection of
    ``Z_q``, so ``s_r`` is exactly as uniform as a directly drawn one and the
    signature distribution is unchanged; but the clause commitments collapse
    onto bases with cached tables (``g``, ``y``, roster keys)::

        t1 = g**s_r * c1**-c_j        = g**e_j
        t2 = y**s_r * (c2/h_j)**-c_j  = y**e_j * h_j**c_j * h**(q-c_j)
        t3 = g**s_x * h_j**-c_j

    where ``h`` is the signer's own roster key.  No exponentiation of the
    per-signature ``c1``/``c2`` remains, the long-term secret ``x`` stays out
    of the loop, and every ``h_j**-c_j`` comes from one batch inversion of
    the ``h_j**c_j`` already computed for ``t2``.
    """
    params = gpk.params
    p, q = params.p, params.q
    g_pow = params.fixed_g().pow
    y_pow = _opening_table(params, gpk.opening_key.y).pow
    h = member.h
    idx = gpk.roster_index(h)
    if idx is None:
        raise GroupSignatureError("signer is not in the roster snapshot")

    # ElGamal-encrypt the signer's membership key, keeping the nonce for the proof.
    r = params.random_exponent()
    ciphertext = ElGamalCiphertext(c1=g_pow(r), c2=(h * y_pow(r)) % p)

    n = len(gpk.roster)
    challenges: list[int] = [0] * n
    responses_r: list[int] = [0] * n
    responses_x: list[int] = [0] * n
    commitments: list[tuple[int, int, int]] = [(0, 0, 0)] * n

    # Simulate every non-signer clause with a random challenge; t3 waits
    # for the batch inversion of the h_j**c_j values.
    simulated = [j for j in range(n) if j != idx]
    h_pows: list[int] = []
    partial: list[tuple[int, int, int]] = []  # (t1, t2, g**s_x)
    for j in simulated:
        c_j = primitives.randbelow(q)
        e_j = primitives.randbelow(q)
        s_x = primitives.randbelow(q)
        h_c = fastexp.mod_pow(gpk.roster[j], c_j, p, order=q)
        t2 = y_pow(e_j) * h_c % p * fastexp.mod_pow(h, q - c_j, p, order=q) % p
        challenges[j] = c_j
        responses_r[j] = (e_j + r * c_j) % q
        responses_x[j] = s_x
        h_pows.append(h_c)
        partial.append((g_pow(e_j), t2, g_pow(s_x)))
    for j, (t1, t2, g_sx), h_inv in zip(simulated, partial, fastexp.batch_inverse(h_pows, p)):
        commitments[j] = (t1, t2, g_sx * h_inv % p)

    # Honest commitment for the signer's clause.
    a = params.random_exponent()
    b = params.random_exponent()
    commitments[idx] = (g_pow(a), y_pow(a), g_pow(b))

    total = _challenge_hash(gpk, ciphertext, commitments, message)
    c_idx = (total - sum(challenges)) % q
    challenges[idx] = c_idx
    responses_r[idx] = (a + c_idx * r) % q
    responses_x[idx] = (b + c_idx * member.x) % q

    return GroupSignature(
        ciphertext=ciphertext,
        challenges=tuple(challenges),
        responses_r=tuple(responses_r),
        responses_x=tuple(responses_x),
        commitments=tuple(commitments),
    )


def group_verify(gpk: GroupPublicKey, message: bytes, signature: GroupSignature) -> bool:
    """Verify a group signature against the roster in ``gpk``.

    Pure predicate: returns ``False`` on any malformed input.

    Both ciphertext halves must be order-``q`` subgroup elements.  Honest
    signers always produce such ciphertexts; the explicit check (absent from
    the original verifier) rejects malformed ones outright *and* licenses
    the inversion-free ``base**-c == base**(q-c)`` rewriting for ``c1`` and
    ``c2``.  The roster terms ``h_j**-c_j`` come from one batch inversion of
    the ``h_j**c_j`` values the second clause equation needs anyway.  Roster
    keys and the opening key are trusted verifier inputs (they come from
    the judge), exactly as before.
    """
    params = gpk.params
    p, q = params.p, params.q
    n = len(gpk.roster)
    challenges = signature.challenges
    responses_r = signature.responses_r
    responses_x = signature.responses_x
    if not (len(challenges) == len(responses_r) == len(responses_x) == n):
        return False
    c1, c2 = signature.ciphertext.c1, signature.ciphertext.c2
    if not (params.is_element(c1) and params.is_element(c2)):
        return False
    if not all(
        0 <= c_j < q and 0 <= s_r < q and 0 <= s_x < q
        for c_j, s_r, s_x in zip(challenges, responses_r, responses_x)
    ):
        return False

    g_pow = params.fixed_g().pow
    y_pow = _opening_table(params, gpk.opening_key.y).pow
    c1_pow, c2_pow = _ciphertext_pows(params, c1, c2, n)
    h_pows = [fastexp.mod_pow(h_j, c_j, p, order=q) for h_j, c_j in zip(gpk.roster, challenges)]
    # t1 = g**s_r * c1**-c_j ; t2 = y**s_r * (c2/h_j)**-c_j ; t3 = g**s_x * h_j**-c_j
    commitments = [
        (
            g_pow(s_r) * c1_pow(q - c_j) % p,
            y_pow(s_r) * h_c % p * c2_pow(q - c_j) % p,
            g_pow(s_x) * h_inv % p,
        )
        for c_j, s_r, s_x, h_c, h_inv in zip(
            challenges, responses_r, responses_x, h_pows, fastexp.batch_inverse(h_pows, p)
        )
    ]

    total = _challenge_hash(gpk, signature.ciphertext, commitments, message)
    return sum(challenges) % q == total


#: Bit width of the per-clause randomizers in the batched equation test.
#: A forged clause survives the combination with probability ~2**-64 —
#: the same bound (and the same small-exponent technique) as
#: ``repro.crypto.dsa.dsa_batch_verify``.
BATCH_RANDOMIZER_BITS = 64


def group_batch_verify(
    gpk: GroupPublicKey, items: Sequence[tuple[bytes, GroupSignature]]
) -> bool:
    """Verify many ``(message, signature)`` pairs against one roster at once.

    The exact verifier recomputes every clause commitment ``(t1, t2, t3)``
    with three multi-exponentiations per roster member.  When a signature
    carries its ``commitments`` hint, the verifier can instead (a) check the
    Fiat–Shamir challenge hash against the *claimed* commitments — an exact,
    cheap check — and (b) confirm the claimed commitments satisfy the clause
    equations

        g**s_r           == t1 * c1**c_j
        y**s_r * h_j**c_j == t2 * c2**c_j
        g**s_x           == t3 * h_j**c_j

    with one randomized linear combination over *all* clauses of *all*
    hinted signatures: per-clause random odd 64-bit multipliers
    ``(a, b, d)`` weight the three equations, the cached bases
    (``g``, ``y``, roster keys) fold into single accumulated exponents, and
    the per-signature bases (``t*``, ``c1``, ``c2``) join one bucket-method
    product.  The final equality is checked after raising to the group
    cofactor, which projects away any small-order component an adversary
    might smuggle into a hint; the subgroup components — the only thing the
    proof system speaks about — must then cancel exactly, so a batch
    containing even one forged signature passes with probability at most
    ~2**-64.

    Two checks stay exact per signature because batching them is unsound or
    pointless: subgroup membership of ``c1``/``c2`` (cofactor components of
    *independent* ciphertexts could cancel pairwise inside a combined
    product, and fairness — judge opening — needs well-formed ciphertexts),
    and the challenge hash itself (already cheap, and it is what binds the
    claimed commitments).

    Hints are untrusted metadata: signatures whose hints are missing,
    malformed, or inconsistent with the challenge hash are verified
    individually via :func:`group_verify`, so a stripped or corrupted hint
    can never reject an honest signature — nor accept a forged one.

    Pure predicate: ``True`` iff *every* pair verifies.  Callers needing to
    identify the offender re-check individually after a ``False``.
    """
    items = list(items)
    if not items:
        return True
    params = gpk.params
    p, q, g = params.p, params.q, params.g
    y = gpk.opening_key.y
    n = len(gpk.roster)

    leftover: list[int] = []  # indices that need individual verification
    agg_g = 0  # exponent of g on the equation LHS
    agg_y = 0  # exponent of y on the equation LHS
    agg_h = [0] * n  # exponent of h_j on the LHS (E2) minus the RHS (E3)
    adhoc: list[tuple[int, int]] = []  # per-signature bases for the RHS
    randomizer_mask = (1 << BATCH_RANDOMIZER_BITS) - 1
    for index, (message, signature) in enumerate(items):
        if not (
            len(signature.challenges)
            == len(signature.responses_r)
            == len(signature.responses_x)
            == n
        ):
            return False
        c1, c2 = signature.ciphertext.c1, signature.ciphertext.c2
        if not (params.is_element(c1) and params.is_element(c2)):
            return False
        if not all(
            0 <= c_j < q and 0 <= s_r < q and 0 <= s_x < q
            for c_j, s_r, s_x in zip(
                signature.challenges, signature.responses_r, signature.responses_x
            )
        ):
            return False
        hints = signature.commitments
        if (
            hints is None
            or len(hints) != n
            or not all(
                isinstance(hint, tuple)
                and len(hint) == 3
                and all(isinstance(t, int) and 0 < t < p for t in hint)
                for hint in hints
            )
        ):
            leftover.append(index)
            continue
        total = _challenge_hash(gpk, signature.ciphertext, list(hints), message)
        if sum(signature.challenges) % q != total:
            # The hash does not match the *claimed* commitments.  The hint
            # may be corrupt while the signature is valid — decide exactly.
            leftover.append(index)
            continue
        e_c1 = 0  # exponent of this signature's c1 on the RHS
        e_c2 = 0  # exponent of this signature's c2 on the RHS
        # The signature's 3n multipliers are the disjoint 64-bit slices of
        # one uniform draw, so each is an independent uniform 64-bit value
        # (low bit then forced to 1) at the cost of one entropy call.
        draw = secrets.randbits(3 * n * BATCH_RANDOMIZER_BITS)
        randomizers = [
            ((draw >> (BATCH_RANDOMIZER_BITS * k)) & randomizer_mask) | 1
            for k in range(3 * n)
        ]
        for j in range(n):
            c_j = signature.challenges[j]
            s_r = signature.responses_r[j]
            s_x = signature.responses_x[j]
            t1, t2, t3 = hints[j]
            a, b, d = randomizers[3 * j : 3 * j + 3]
            agg_g += a * s_r + d * s_x
            agg_y += b * s_r
            agg_h[j] += (b - d) * c_j
            e_c1 += a * c_j
            e_c2 += b * c_j
            adhoc.append((t1, a))
            adhoc.append((t2, b))
            adhoc.append((t3, d))
        adhoc.append((c1, e_c1 % q))
        adhoc.append((c2, e_c2 % q))

    if adhoc:
        # RHS * LHS**-1, inversion-free: every LHS base is order-q, so its
        # exponent negates as q - e.  The t* hints have unknown order — they
        # stay on the RHS with their (positive, < q) random multipliers.
        pairs = adhoc + [(g, (-agg_g) % q), (y, (-agg_y) % q)]
        pairs.extend((h_j, (-agg_h[j]) % q) for j, h_j in enumerate(gpk.roster))
        ratio = fastexp.multi_exp(pairs, p, order=q, promote=False)
        if pow(ratio, params.cofactor, p) != 1:
            return False

    return all(group_verify(gpk, *items[index]) for index in leftover)
