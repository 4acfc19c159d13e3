"""Group signature tests: anonymity, verifiability, openability (Section 3.2)."""

import dataclasses
import functools

import pytest

from repro.crypto import fastexp
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group_signature import (
    GroupManager,
    GroupSignature,
    GroupSignatureError,
    _challenge_hash,
    group_batch_verify,
    group_sign,
    group_verify,
)
from repro.crypto.params import PARAMS_1024_160, PARAMS_TEST_512
from repro.crypto.shamir import combine_shares


@pytest.fixture(scope="module")
def group():
    manager = GroupManager(PARAMS_TEST_512)
    members = {name: manager.register(name) for name in ("alice", "bob", "carol")}
    return manager, members


class TestSignVerify:
    def test_every_member_can_sign(self, group):
        manager, members = group
        gpk = manager.public_key()
        for name, key in members.items():
            sig = group_sign(gpk, key, b"payment")
            assert group_verify(gpk, b"payment", sig), name

    def test_wrong_message_rejected(self, group):
        manager, members = group
        gpk = manager.public_key()
        sig = group_sign(gpk, members["alice"], b"pay 5")
        assert not group_verify(gpk, b"pay 6", sig)

    def test_nonmember_cannot_sign(self, group):
        manager, members = group
        other = GroupManager(PARAMS_TEST_512)
        outsider = other.register("mallory")
        gpk = manager.public_key()
        with pytest.raises(GroupSignatureError):
            group_sign(gpk, outsider, b"m")

    def test_signature_against_foreign_group_fails(self, group):
        manager, members = group
        other = GroupManager(PARAMS_TEST_512)
        other.register("x")
        sig = group_sign(manager.public_key(), members["bob"], b"m")
        assert not group_verify(other.public_key(), b"m", sig)


class TestAnonymity:
    def test_signatures_unlinkable(self, group):
        # Two signatures by the same member share no ciphertext or challenge
        # components — a verifier cannot link them.
        manager, members = group
        gpk = manager.public_key()
        a = group_sign(gpk, members["bob"], b"m")
        b = group_sign(gpk, members["bob"], b"m")
        assert a.ciphertext.c1 != b.ciphertext.c1
        assert a.challenges != b.challenges

    def test_verification_identical_across_signers(self, group):
        # Verification gives a verifier no signer-dependent output: it is a
        # boolean, and signatures from different members have identical shape.
        manager, members = group
        gpk = manager.public_key()
        sigs = [group_sign(gpk, key, b"m") for key in members.values()]
        for sig in sigs:
            assert group_verify(gpk, b"m", sig)
            assert len(sig.challenges) == manager.member_count()


class TestOpening:
    def test_judge_opens_correct_identity(self, group):
        manager, members = group
        gpk = manager.public_key()
        for name, key in members.items():
            sig = group_sign(gpk, key, b"fraudulent tx")
            assert manager.open(sig) == name

    def test_threshold_shares_reconstruct(self, group):
        manager, _members = group
        shares = manager.export_opening_shares(n=5, k=3)
        secret = combine_shares(shares[:3], PARAMS_TEST_512.q)
        assert secret == manager.opening_keypair.secret

    def test_too_few_shares_fail(self, group):
        manager, _members = group
        shares = manager.export_opening_shares(n=5, k=3)
        wrong = combine_shares(shares[:2], PARAMS_TEST_512.q)
        assert wrong != manager.opening_keypair.secret


class TestRosterVersioning:
    def test_old_snapshot_still_verifies_old_signers(self):
        manager = GroupManager(PARAMS_TEST_512)
        alice = manager.register("alice")
        gpk_v1 = manager.public_key()
        sig = group_sign(gpk_v1, alice, b"m")
        manager.register("bob")  # roster grows
        # Verifying against the version the signer used still works.
        assert group_verify(manager.public_key_at(1), b"m", sig)
        # The new snapshot has a different roster hash, so it must not.
        assert not group_verify(manager.public_key(), b"m", sig)

    def test_public_key_at_bounds(self):
        manager = GroupManager(PARAMS_TEST_512)
        manager.register("a")
        with pytest.raises(GroupSignatureError):
            manager.public_key_at(5)
        assert manager.public_key_at(0).roster == ()

    def test_versions_carried_in_snapshots(self):
        manager = GroupManager(PARAMS_TEST_512)
        manager.register("a")
        manager.register("b")
        assert manager.public_key().version == 2
        assert manager.public_key_at(1).version == 1


class TestExpulsion:
    def test_expel_shrinks_roster_and_bumps_version(self):
        manager = GroupManager(PARAMS_TEST_512)
        alice = manager.register("alice")
        bob = manager.register("bob")
        version = manager.expel("alice")
        assert version == 3  # two registrations + one expulsion
        gpk = manager.public_key()
        assert gpk.roster == (bob.h,)
        assert manager.member_count() == 1
        assert manager.is_expelled("alice")

    def test_expelled_cannot_sign_new_snapshot(self):
        manager = GroupManager(PARAMS_TEST_512)
        alice = manager.register("alice")
        manager.register("bob")
        manager.expel("alice")
        with pytest.raises(GroupSignatureError):
            group_sign(manager.public_key(), alice, b"m")

    def test_old_signatures_still_open(self):
        manager = GroupManager(PARAMS_TEST_512)
        alice = manager.register("alice")
        sig = group_sign(manager.public_key(), alice, b"evidence")
        manager.expel("alice")
        assert manager.open(sig) == "alice"

    def test_expel_inactive_member_fails(self):
        manager = GroupManager(PARAMS_TEST_512)
        manager.register("alice")
        with pytest.raises(GroupSignatureError):
            manager.expel("ghost")
        manager.expel("alice")
        with pytest.raises(GroupSignatureError):
            manager.expel("alice")

    def test_register_after_expel(self):
        manager = GroupManager(PARAMS_TEST_512)
        manager.register("alice")
        manager.expel("alice")
        carol = manager.register("carol")
        gpk = manager.public_key()
        sig = group_sign(gpk, carol, b"m")
        assert group_verify(gpk, b"m", sig)
        assert manager.open(sig) == "carol"


class TestTampering:
    def test_tampered_challenge_rejected(self, group):
        manager, members = group
        gpk = manager.public_key()
        sig = group_sign(gpk, members["carol"], b"m")
        challenges = list(sig.challenges)
        challenges[0] = (challenges[0] + 1) % PARAMS_TEST_512.q
        bad = dataclasses.replace(sig, challenges=tuple(challenges))
        assert not group_verify(gpk, b"m", bad)

    def test_tampered_response_rejected(self, group):
        manager, members = group
        gpk = manager.public_key()
        sig = group_sign(gpk, members["carol"], b"m")
        responses = list(sig.responses_x)
        responses[-1] = (responses[-1] + 1) % PARAMS_TEST_512.q
        bad = dataclasses.replace(sig, responses_x=tuple(responses))
        assert not group_verify(gpk, b"m", bad)

    def test_truncated_transcript_rejected(self, group):
        manager, members = group
        gpk = manager.public_key()
        sig = group_sign(gpk, members["alice"], b"m")
        bad = dataclasses.replace(sig, challenges=sig.challenges[:-1])
        assert not group_verify(gpk, b"m", bad)

    def test_swapped_ciphertext_rejected(self, group):
        # Re-encrypting a different member's key under the same proof must
        # fail — otherwise a signer could frame someone else.
        manager, members = group
        gpk = manager.public_key()
        sig_alice = group_sign(gpk, members["alice"], b"m")
        sig_bob = group_sign(gpk, members["bob"], b"m")
        franken = dataclasses.replace(sig_alice, ciphertext=sig_bob.ciphertext)
        assert not group_verify(gpk, b"m", franken)


# ---------------------------------------------------------------------------
# Differential tests: the accelerated signer and verifier against textbook
# references, across the roster sizes on both sides of the ephemeral-table
# threshold.
# ---------------------------------------------------------------------------


def _reference_commitments(gpk, signature):
    """Textbook clause commitments: plain ``pow`` plus modular inverses.

    Returns ``None`` when the signature is malformed (the same structural
    checks as the verifier, with an exact subgroup test).
    """
    params = gpk.params
    p, q, g = params.p, params.q, params.g
    y = gpk.opening_key.y
    n = len(gpk.roster)
    if not (len(signature.challenges) == len(signature.responses_r) == len(signature.responses_x) == n):
        return None
    c1, c2 = signature.ciphertext.c1, signature.ciphertext.c2
    for c in (c1, c2):
        if not (0 < c < p and pow(c, q, p) == 1):
            return None
    c1_inv = pow(c1, -1, p)
    commitments = []
    for h_j, c_j, s_r, s_x in zip(
        gpk.roster, signature.challenges, signature.responses_r, signature.responses_x
    ):
        if not (0 <= c_j < q and 0 <= s_r < q and 0 <= s_x < q):
            return None
        ratio_inv = pow(c2 * pow(h_j, -1, p) % p, -1, p)
        t1 = pow(g, s_r, p) * pow(c1_inv, c_j, p) % p
        t2 = pow(y, s_r, p) * pow(ratio_inv, c_j, p) % p
        t3 = pow(g, s_x, p) * pow(pow(h_j, -1, p), c_j, p) % p
        commitments.append((t1, t2, t3))
    return commitments


def _reference_verify(gpk, message, signature):
    commitments = _reference_commitments(gpk, signature)
    if commitments is None:
        return False
    total = _challenge_hash(gpk, signature.ciphertext, commitments, message)
    return sum(signature.challenges) % gpk.params.q == total


def _pre_change_verify(gpk, message, signature):
    """Replica of the verifier before the batched-inversion rewrite: one
    simultaneous multi-exponentiation per clause equation, with ephemeral
    ``c1``/``c2`` tables from roster 6 up."""
    params = gpk.params
    p, q, g = params.p, params.q, params.g
    y = gpk.opening_key.y
    n = len(gpk.roster)
    if not (len(signature.challenges) == len(signature.responses_r) == len(signature.responses_x) == n):
        return False
    c1, c2 = signature.ciphertext.c1, signature.ciphertext.c2
    if not (params.is_element(c1) and params.is_element(c2)):
        return False
    tables = {}
    if n >= 6:
        tables = {
            base: fastexp.FixedBaseTable(base, p, params.q_bits, window=4, order=q)
            for base in (c1, c2)
        }

    def multi_exp(pairs):
        # fastexp.multi_exp as it was: caller-supplied tables first.
        tabled = [tables[base].pow(e) for base, e in pairs if base in tables]
        rest = [(base, e) for base, e in pairs if base not in tables]
        result = fastexp.multi_exp(rest, p, order=q)
        for value in tabled:
            result = result * value % p
        return result

    commitments = []
    for j, h_j in enumerate(gpk.roster):
        c_j = signature.challenges[j]
        s_r = signature.responses_r[j]
        s_x = signature.responses_x[j]
        if not (0 <= c_j < q and 0 <= s_r < q and 0 <= s_x < q):
            return False
        t1 = multi_exp(((g, s_r), (c1, q - c_j)))
        t2 = multi_exp(((y, s_r), (h_j, c_j), (c2, q - c_j)))
        t3 = multi_exp(((g, s_x), (h_j, q - c_j)))
        commitments.append((t1, t2, t3))
    total = _challenge_hash(gpk, signature.ciphertext, commitments, message)
    return sum(signature.challenges) % q == total


@functools.cache
def _roster_group(params, size):
    manager = GroupManager(params)
    return manager, [manager.register(f"m{i}") for i in range(size)]


_CASES = [
    pytest.param(PARAMS_TEST_512, size, signer, id=f"512-roster{size}-{signer}")
    for size in (1, 2, 5, 6, 7)
    for signer in ("first", "last")
] + [
    pytest.param(PARAMS_1024_160, 32, signer, id=f"1024-roster32-{signer}")
    for signer in ("first", "last")
]


def _bump(values, index, q):
    values = list(values)
    values[index] = (values[index] + 1) % q
    return tuple(values)


@pytest.mark.parametrize("params,size,signer", _CASES)
class TestDifferential:
    def _setup(self, params, size, signer):
        manager, members = _roster_group(params, size)
        index = 0 if signer == "first" else size - 1
        return manager, members, index, manager.public_key()

    def test_new_signatures_pass_every_verifier(self, params, size, signer):
        manager, members, index, gpk = self._setup(params, size, signer)
        sig = group_sign(gpk, members[index], b"pay")
        assert _reference_verify(gpk, b"pay", sig)
        assert _pre_change_verify(gpk, b"pay", sig)
        assert group_verify(gpk, b"pay", sig)
        assert group_batch_verify(gpk, [(b"pay", sig)])
        assert manager.open(sig) == f"m{index}"

    def test_commitment_hints_equal_reference(self, params, size, signer):
        _manager, members, index, gpk = self._setup(params, size, signer)
        sig = group_sign(gpk, members[index], b"pay")
        assert list(sig.commitments) == _reference_commitments(gpk, sig)

    def test_tampered_variants_get_the_reference_verdict(self, params, size, signer):
        manager, members, index, gpk = self._setup(params, size, signer)
        q = params.q
        sig = group_sign(gpk, members[index], b"pay")
        other = group_sign(gpk, members[size - 1 - index], b"pay")
        last = size - 1
        variants = [
            (b"pay", dataclasses.replace(sig, challenges=_bump(sig.challenges, 0, q))),
            (b"pay", dataclasses.replace(sig, challenges=_bump(sig.challenges, last, q))),
            (b"pay", dataclasses.replace(sig, responses_r=_bump(sig.responses_r, index, q))),
            (b"pay", dataclasses.replace(sig, responses_r=_bump(sig.responses_r, last - index, q))),
            (b"pay", dataclasses.replace(sig, responses_x=_bump(sig.responses_x, 0, q))),
            (b"pay", dataclasses.replace(sig, responses_x=_bump(sig.responses_x, last, q))),
            (b"pay", dataclasses.replace(sig, ciphertext=other.ciphertext)),
            (b"pay", dataclasses.replace(sig, challenges=(q,) + sig.challenges[1:])),
            (b"pay", dataclasses.replace(sig, commitments=None)),
            (b"pay!", sig),
            (b"pay", sig),
        ]
        verdicts = []
        for message, variant in variants:
            expected = _reference_verify(gpk, message, variant)
            assert group_verify(gpk, message, variant) == expected
            assert _pre_change_verify(gpk, message, variant) == expected
            assert group_batch_verify(gpk, [(message, variant)]) == expected
            verdicts.append(expected)
        # Only the untampered signature and its stripped-hint copy are valid.
        assert verdicts == [False] * 8 + [True, False, True]


class TestWireFormat:
    def test_fields_and_encoding_are_stable(self):
        assert [f.name for f in dataclasses.fields(GroupSignature)] == [
            "ciphertext",
            "challenges",
            "responses_r",
            "responses_x",
            "commitments",
        ]
        sig = GroupSignature(
            ciphertext=ElGamalCiphertext(c1=0x1234, c2=0x56),
            challenges=(1, 0),
            responses_r=(2, 300),
            responses_x=(4, 5),
            commitments=((7, 8, 9), (10, 11, 12)),
        )
        stripped = dataclasses.replace(sig, commitments=None)
        assert sig.encode() == stripped.encode()
        assert sig.encode().hex() == "12347c56" + "7c017c00" + "7c027c012c" + "7c047c05"
