"""Blind dispensation of Beaver triples.

A generated triple (a, b, c) never reaches the MPC servers raw: each triple
holder scales its own component by a blind factor, then splits the scaled
values additively across the m servers, dealing them through `spdz.deal`,
as seeds only or as seeds and corrections.  Two blinding variants are
supported:

  single-randomness:  a' = ra*a,  b' = rb*b,  c' = ra*rb*c
  two-randomness:     a' = sa*ra*a,  b' = sb*rb*b,  c' = sa*sb*rc*c
                      with rc = ra*rb and random signs sa, sb

Either way c' = a' * b' mod p, so the blinded shares are valid triples, and
the multiplication openings downstream reveal nothing useful to the triple
holders, who know only the unblinded values.  No MPC server receives a
triple component, raw or blinded.

Blinds travel as seeds too; a seed expands to s = 1 + (x mod (p-1)) per
triple, nonzero by construction and within 2^-64 of uniform over Z_p^*, and
the blind is built from s^2.  In the single-randomness variant the holders
of a and b pick their own blinds and deal a' and b' as seeds only: the
holder of a draws one seed per server, so a' is the sum of their
expansions, and a blind seed, and sets a = sign*s^2*a' with sign = chi(a'),
so a is a square and ra = 1/(sign*s^2) is uniform over Z_p^*.  It pins a in
the session and sends the holder of c its blind seed and one byte per sign;
the holder of b does the same, and the holder of c scales c by 1/(ta*tb),
ta = sign*s^2, inverting all K products at once (`modmath.inverses`).  No
server learns a blind, so to each server a' and b' are independent and
uniform over Z_p^*.  (A server that knew the blind of the squares a and b
would know the Legendre symbol of a', and each opening x - a' would tell it
a bit of x.)  The sign's Legendre symbol (`modmath.is_subgroup_member`) is
the one membership decision for a and b: the session does not test them
again (`btg.triple_session`'s `squares`); the pins of `mhkm.key_product`
are tested in the session.  A zero a' or b', which seeds give once in p,
has no blind, and its holder aborts the batch before hop 1.  In the
two-randomness variant O_x and O_y each send a seed, and the holder takes
the uniform subgroup blind s^2; rc reaches the holder of c as an mHKM key
product (`mhkm.key_product`), so it learns neither owner blind.  Two mode
keeps its correction shares: dealt as seeds only, a would follow from a'
and r_a, but O_x's seed of r_a reaches the holder of a in the round that
already carries a in hop 1, so hop 1 would wait a round and a batch would
take five.  The two-mode blinds and a and b are all squares, so the
holders add signs: the holder of a expands
its signs sa from a seed it sends the holder of b, which draws its own signs
sb and sends the holder of c their products sa*sb, one byte per triple.  -1
is a non-residue (p = 3 mod 4), so a' and b' are then uniform over Z_p^*, and
no server learns a sign.

Dispensation runs the K triples of one BTG session at once, in chunks of
min(K, btg.CHUNK) triples that share each hop's randomness under per-slot
keys, and sends each message as soon as nothing it depends on is missing.
The blind seeds (and the two-mode sign seed) do not depend on the session,
so they go out before it and ride its first hop's round.  In two mode r_a
and r_b are known before the session starts, so the `r_c` key product runs
beside it in lockstep (`net.lockstep`), and B's sign products ride their
second round.  The holders of a and b deal a' and b' in the second round
(in two mode they have their components and blind seeds only then; in
single mode a deal in the first would pool the triples a round early, and a
Beaver batch beside the mint would recombine before c' arrives); the
holder of c has c only after hop 3 and deals c' in the fourth.  A
batch costs four rounds in either mode: hop 1 + blinds | hop 2 + a'/b'
deals | hop 3 | c' deal, with the key product's hops beside the session's
in two mode.  Beaver's openings of x - a' and y - b' need no c', so a
dispenser pools each triple once its a' and b' are dealt and fills in c'
when the batch ends; a Beaver batch beside the mint can open in its third
round and recombine after its fourth.  Dispensations are protocols
(`net.Runtime.run`), so the run of a batch that aborts drops all it left.
Blinds, signs, shares and the key product's hops carry the batch's first
triple id in their tags, which keep lockstep messages apart (the key
product's last hop and the session's both reach the holder of c in the
third round) and keep transcripts byte-identical.  `TripleDispenser` keeps
the dispensed triples in a FIFO pool: `mint(n)` is the protocol that mints
n of them with one dispensation, `take(n)` the protocol that waits for
them beside it, and `next_triple` hands them out in order.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import dataclass

from . import btg, mhkm, modmath
from .btg import BTG_TAG, BtgRole
from .errors import ParameterError, ProtocolAbort, ShareError, ValidationError
from .modmath import GroupParams
from .net import PartyId, Protocol, Runtime, lockstep
from .spdz import deal, draw_seeded


def split_additive(secret: int, m: int, p: int, rng: random.Random) -> list[int]:
    """m shares summing to secret mod p; all but the first drawn uniformly.

    Nothing in the protocol deals with it any more (`deal` sends seeds); it
    stays for the benchmark's stand-in dealer of online triples.
    """
    if m < 2:
        raise ShareError("need at least 2 parties to split, got %d" % m)
    tail = [rng.randrange(p) for _ in range(m - 1)]
    head = (secret - sum(tail)) % p
    return [head] + tail


def reconstruct(shares, p: int) -> int:
    """Sum of a complete share vector mod p."""
    values = list(shares)
    if any(v is None for v in values):
        raise ShareError("share vector has missing entries")
    if not values:
        raise ShareError("empty share vector")
    return sum(values) % p


def select_committee_leader(candidates, seed: bytes) -> PartyId:
    """Seeded-hash selection: hash(seed | id) over sorted ids, pick the max.

    Deterministic for a fixed (candidates, seed) pair and uniform over the
    candidates as the seed varies.
    """
    pool = sorted(candidates, key=str)
    if not pool:
        raise ParameterError("no committee candidates")
    return max(pool, key=lambda pid: hashlib.sha256(seed + str(pid).encode()).digest())


@dataclass(frozen=True)
class BeaverTripleShares:
    triple_id: str
    parties: tuple
    a_shares: dict
    b_shares: dict
    c_shares: dict


TRIPLE_TAGS = {BtgRole.A: "triple-a", BtgRole.B: "triple-b", BtgRole.C: "triple-c"}
BLIND_TAG = "blind-r"
SIGN_TAG = "sign-a"
SIGN_PRODUCT_TAG = "sign-ab"


def dispense_blind_single(runtime: Runtime, params: GroupParams, btg_keys: dict,
                          btg_pids: dict, mpc_pids, triple_ids, pool=None) -> Protocol:
    """Single-randomness dispensation of one session of K triples, as a
    protocol of 4 rounds whose result lists the triples (pooled early into
    `pool` when given, see `_dispense`).

    The holders of a and b each pick their own blind: each draws its
    blinded component as seeds only and pins the square it unblinds to in
    the session (`_seeded_component`), and sends the holder of c its blind
    seed and signs, so the holder of c scales its c by both blinds'
    inverses.  No MPC server learns a blind.
    """
    return _dispense(runtime, params, btg_keys, btg_pids, mpc_pids, triple_ids, pool=pool)


def dispense_blind_two(runtime: Runtime, params: GroupParams, btg_keys: dict,
                       btg_pids: dict, mpc_pids, ox: PartyId, oy: PartyId,
                       triple_ids, keys: dict, pool=None) -> Protocol:
    """Two-randomness dispensation, as a protocol of 4 rounds whose result
    lists the triples (pooled early into `pool` when given): r_c = r_a * r_b
    as an mHKM key product beside the session.

    O_x and O_y send the holders of a and b one seed each, which expands to
    subgroup blinds r_a and r_b per triple; the owners know their blinds
    before the session starts, so one `mhkm.key_product` of K products over
    (O_y, O_x, holder of c) runs beside it and delivers every r_c to the
    holder of c, so no single owner knows both blinds.  The holders of a and
    b add random signs, and the holder of c learns only their products.
    `keys` maps PartyId -> KeyPair for O_x and the holder of c.
    """
    return _dispense(runtime, params, btg_keys, btg_pids, mpc_pids, triple_ids,
                     owners=(ox, oy), keys=keys, pool=pool)


def _blinds(seed: bytes, count: int, p: int) -> list[int]:
    """The K subgroup blinds a seed expands to: s^2 for s = 1 + (x mod (p-1)),
    nonzero by construction and uniform over the subgroup."""
    return [(1 + x) * (1 + x) % p for x in modmath.expand_residues(seed, count, p - 1)]


def _signed(values, signs, p: int) -> list[int]:
    """Each value negated mod p where its sign bit is set."""
    return [-v % p if sign else v for v, sign in zip(values, signs)]


def _dispense(runtime: Runtime, params: GroupParams, btg_keys: dict, btg_pids: dict,
              mpc_pids, triple_ids, owners=None, keys=None, pool=None) -> Protocol:
    """One batch end to end, as a protocol; `btg_keys` maps roles A and C
    to the session's key-pair lists (`btg.triple_session`), and `owners` =
    (O_x, O_y) selects two-randomness mode, whose key product runs over
    `keys`.

    Before the session, so that they ride its first hop's round, the blind
    seeds go out: in single mode each holder of a and b sends the holder of
    c its own with its signs, having drawn its component; in two mode O_x
    and O_y send theirs to the holders of a and b, and the holder of a its
    sign seed to the holder of b.  In the second round the holders of a and
    b deal a' and b' (`_deal_ab`), beside hop 2 and, in two mode, the key
    product's second hop and B's sign products.  The triples go into
    `pool`, when given, once the servers hold a' and b', with empty
    c_shares; the holder of c deals c' in the fourth round, and the servers
    fill the c_shares in place.  Seeds, signs, shares and the key product's
    hops are tagged with the batch's first triple id, which keeps them apart
    from the messages of any protocol beside the batch.  Each party draws
    from its own generator in protocol order: in single mode the holders'
    deal and blind seeds, then the session's randomness; in two mode the
    blind seeds, then the session's secrets, then B's signs, the holder of a
    drawing its deal seeds before its re-randomization.
    """
    triple_ids = list(triple_ids)
    if not triple_ids:
        raise ParameterError("a batch dispenses at least one triple")
    p, count, first = params.p, len(triple_ids), triple_ids[0]
    pid_a, pid_b, pid_c = (btg_pids[role] for role in BtgRole)
    blind_tag = "%s:%s" % (BLIND_TAG, first)
    drawn = {}  # the session's secrets, each role's as soon as it draws them
    if owners is None:
        held = {role: _seeded_component(runtime, params, btg_pids[role], pid_c, mpc_pids,
                                        triple_ids, blind_tag)
                for role in (BtgRole.A, BtgRole.B)}
        session = btg.triple_session(runtime, params, btg_keys, btg_pids, count=count,
                                     drawn=drawn, squares=True,
                                     forced={role: pinned for role, (_, pinned) in held.items()})
        dealt = _deal_ab(runtime, p, btg_pids, mpc_pids, triple_ids,
                         lambda: [seeded for seeded, _ in held.values()], pool)
        _, triples = yield from lockstep(session, dealt)
        factor_c = _unblinding(runtime, p, pid_c, (pid_a, pid_b), blind_tag, count)
    else:
        seeds = [modmath.draw_seed(runtime.rng(src)) for src in owners]
        for src, dst, seed in zip(owners, (pid_a, pid_b), seeds):
            runtime.send(src, dst, blind_tag, seed)
        session = btg.triple_session(runtime, params, btg_keys, btg_pids, count=count,
                                     drawn=drawn)
        sign_seed = modmath.draw_seed(runtime.rng(pid_a))
        runtime.send(pid_a, pid_b, "%s:%s" % (SIGN_TAG, first), sign_seed)
        dealt = _deal_ab(runtime, p, btg_pids, mpc_pids, triple_ids,
                         lambda: _signed_components(runtime, p, btg_pids, triple_ids, drawn,
                                                    sign_seed), pool)
        ox, oy = owners
        _, chain, triples = yield from lockstep(
            session,
            mhkm.key_product(runtime, params, [oy, ox, pid_c], keys,
                             {owner: _blinds(seed, count, p)
                              for owner, seed in zip(owners, seeds)},
                             count=count, tag="%s:%s" % (BTG_TAG, first)),
            dealt)
        products = modmath.decode_residues(
            runtime.take(pid_c, "%s:%s" % (SIGN_PRODUCT_TAG, first)).payload, count, 2)
        factor_c = _signed(chain[pid_c], products, p)
    [shares] = yield from deal(runtime, mpc_pids,
                               [(pid_c, "%s:%s" % (TRIPLE_TAGS[BtgRole.C], first),
                                 [r * c % p for r, c in zip(factor_c, drawn[BtgRole.C])])], p)
    for t, held_c in zip(triples, _per_triple(shares)):
        t.c_shares.update(held_c)
    return triples


def _seeded_component(runtime: Runtime, params: GroupParams, holder: PartyId, pid_c: PartyId,
                      mpc_pids, triple_ids, tag: str) -> tuple:
    """A single-mode holder's blinded component x', drawn as seeds only,
    and the secret x it pins in the session, at the batch's first step.

    The holder draws a seed per server, so x' is the sum of their
    expansions (`spdz.draw_seeded`), and a blind seed that expands to s^2
    per triple.  It pins x = sign*s^2*x' with sign = chi(x'), one Legendre
    symbol (`modmath.is_subgroup_member`): -1 is a non-residue, since
    p = 3 mod 4, so x is a square, and the blind 1/(sign*s^2) is uniform
    over Z_p^*.  It sends the holder of c the blind seed and one byte per
    sign.  A zero x' has no blind: it aborts the batch before hop 1.
    Returns the `Seeded` x' and the pinned x.
    """
    p, rng = params.p, runtime.rng(holder)
    seeded = draw_seeded(rng, mpc_pids, len(triple_ids), p)
    if 0 in seeded.values:
        raise ProtocolAbort("%s drew a zero blinded component for triple %s; zero has no blind"
                            % (holder, triple_ids[seeded.values.index(0)]))
    blind_seed = modmath.draw_seed(rng)
    signs = [int(not modmath.is_subgroup_member(v, params)) for v in seeded.values]
    runtime.send(holder, pid_c, tag, blind_seed + modmath.encode_residues(signs, 2))
    pinned = _signed([t * v % p for t, v in zip(_blinds(blind_seed, len(signs), p),
                                                   seeded.values)], signs, p)
    return seeded, pinned


def _unblinding(runtime: Runtime, p: int, pid_c: PartyId, holders, tag: str,
                count: int) -> list[int]:
    """The factor 1/(t_a*t_b) per triple that turns c into c' at the holder
    of c, t = sign*s^2 being each holder's factor from the blind seed and
    sign bytes it sent (`_seeded_component`).  Montgomery's trick inverts
    the K products with one inversion (`modmath.inverses`).  A holder's
    message that is missing or repeated is a ShareError."""
    received = {msg.src: msg.payload for msg in (runtime.take(pid_c, tag) for _ in holders)}
    if set(received) != set(holders):
        raise ShareError("%s expected one blind from each holder, got them from %s"
                         % (pid_c, ", ".join(map(str, received))))
    products = [1] * count
    for payload in received.values():
        signs = modmath.decode_residues(payload[modmath.SEED_BYTES:], count, 2)
        factors = _signed(_blinds(payload[:modmath.SEED_BYTES], count, p), signs, p)
        products = [x * y % p for x, y in zip(products, factors)]
    return modmath.inverses(products, p)


def _per_triple(shares) -> list[dict]:
    """Each value's shares of a dealt batch, as a dict per value."""
    parties = shares.parties
    return [dict(zip(parties, held)) for held in zip(*(shares.columns[pid] for pid in parties))]


def _signed_components(runtime: Runtime, p: int, btg_pids: dict, triple_ids, drawn: dict,
                       sign_seed: bytes) -> list:
    """Two mode's a' and b', at the batch's second step: the blind seeds
    from O_x and O_y and A's sign seed have arrived, and `drawn` holds a
    and b.  B draws its signs and sends the holder of c their products with
    A's, one byte each; each holder scales its component by its signed
    blind."""
    count, first = len(triple_ids), triple_ids[0]
    pid_a, pid_b, pid_c = (btg_pids[role] for role in BtgRole)
    factors = [_blinds(runtime.take(pid, "%s:%s" % (BLIND_TAG, first)).payload, count, p)
               for pid in (pid_a, pid_b)]
    rng_b = runtime.rng(pid_b)
    signs_b = [rng_b.getrandbits(1) for _ in range(count)]
    seen_by_b = modmath.expand_residues(
        runtime.take(pid_b, "%s:%s" % (SIGN_TAG, first)).payload, count, 2)
    runtime.send(pid_b, pid_c, "%s:%s" % (SIGN_PRODUCT_TAG, first),
                 modmath.encode_residues([x ^ y for x, y in zip(seen_by_b, signs_b)], 2))
    return [[r * v % p for r, v in zip(_signed(rs, signs, p), drawn[role])]
            for role, rs, signs in zip((BtgRole.A, BtgRole.B), factors,
                                       (modmath.expand_residues(sign_seed, count, 2), signs_b))]


def _deal_ab(runtime: Runtime, p: int, btg_pids: dict, mpc_pids, triple_ids, blinded,
             pool) -> Protocol:
    """The holders of a and b deal a' and b' in the batch's second round, as
    a protocol stepped after the session in lockstep.  `blinded()`, called
    at its second step, gives the two batches to deal: `Seeded` in single
    mode, values in two mode (`_signed_components`).  The result is the
    triples, pooled when `pool` is given, whose c_shares are empty.
    """
    yield
    first = triple_ids[0]
    shares = yield from deal(runtime, mpc_pids,
                             [(btg_pids[role], "%s:%s" % (TRIPLE_TAGS[role], first), values)
                              for role, values in zip((BtgRole.A, BtgRole.B), blinded())], p)
    parties = tuple(mpc_pids)
    triples = [BeaverTripleShares(triple_id=tid, parties=parties, a_shares=a, b_shares=b,
                                  c_shares={})
               for tid, a, b in zip(triple_ids, *map(_per_triple, shares))]
    if pool is not None:
        pool.extend(triples)
    return triples


class TripleDispenser:
    """Mints blinded triples over a shared runtime into a FIFO pool.

    `mint(n)` is the protocol that runs the configured dispensation variant
    on n triples (one triple-generation session inside it), pools the
    triples and appends their audit lines to the optional JSON-lines ledger
    file in one write; callers run it with `Runtime.run`.  A triple enters
    the pool once the servers hold its a' and b', in the mint's second
    round, and its c' arrives in the fourth, so a protocol beside the mint
    can draw it with `take` and open x - a' and y - b' meanwhile.  A mint
    that fails, or is closed beside a protocol that fails, takes its
    triples back out of the pool, so a pooled triple without c' always
    belongs to a mint in flight.  `btg_keys` maps
    the roles A and C to lists of key pairs, which a mint grows in place to
    min(n, btg.CHUNK), so a runtime that mints one triple at a time makes no
    key past the first of each list.  `next_triple` pops the pool, minting a
    single triple when it is empty.  The ledger is opened for append when
    the dispenser is built, so an unwritable path fails before any triple is
    minted, and so does a ledger that already holds lines: every runtime's
    triple ids start again at t000001, so a second run's lines would repeat
    the first run's ids.
    """

    def __init__(self, runtime: Runtime, params: GroupParams, btg_pids: dict,
                 btg_keys: dict, mpc_pids, ox: PartyId, oy: PartyId, mode: str = "single",
                 owner_keys: dict | None = None, ledger_path=None):
        if mode not in ("single", "two"):
            raise ParameterError("unknown blinding mode %r" % mode)
        self.runtime = runtime
        self.params = params
        self.btg_pids = btg_pids
        self.btg_keys = btg_keys
        self.mpc_pids = list(mpc_pids)
        self.ox = ox
        self.oy = oy
        self.mode = mode
        # the two-randomness key product ends at the holder of c, under its first BTG key
        self.chain_keys = {**(owner_keys or {}), btg_pids[BtgRole.C]: btg_keys[BtgRole.C][0]}
        self.ledger_path = ledger_path
        if ledger_path is not None:
            with open(ledger_path, "a") as fh:
                if fh.tell():
                    raise ValidationError("triple ledger %s is not empty; an audit ledger "
                                          "holds the triples of one run" % ledger_path)
        self.count = 0  # triples handed out by next_triple
        self.pool = deque()
        self.minting = 0  # mints in flight

    def mint(self, n: int) -> Protocol:
        """Mint n triples with one dispensation into the pool, as a protocol
        of 4 rounds (none when n is 0).  n is checked, the triple ids drawn
        and the holders' key lists grown at its first step, before anything
        is sent.  The triples are pooled after the second round and complete
        after the fourth."""
        if n < 0:
            raise ParameterError("cannot mint %d triples" % n)
        if not n:
            return
        triple_ids = [self.runtime.fresh_id("t") for _ in range(n)]
        # one key pair per chunk slot for the holders of a and c, each from
        # its own generator, made once per runtime
        for role in (BtgRole.A, BtgRole.C):
            keys, rng = self.btg_keys[role], self.runtime.rng(self.btg_pids[role])
            keys.extend(btg.keygen(self.params, rng)
                        for _ in range(len(keys), min(n, btg.CHUNK)))
        if self.mode == "single":
            batch = dispense_blind_single(self.runtime, self.params, self.btg_keys,
                                          self.btg_pids, self.mpc_pids, triple_ids, self.pool)
        else:
            batch = dispense_blind_two(self.runtime, self.params, self.btg_keys,
                                       self.btg_pids, self.mpc_pids, self.ox, self.oy,
                                       triple_ids, keys=self.chain_keys, pool=self.pool)
        self.minting += 1
        try:
            yield from batch
        except BaseException:  # GeneratorExit too: the run closed the mint
            ids = set(triple_ids)
            self.pool = deque(t for t in self.pool if t.triple_id not in ids)
            raise
        finally:
            self.minting -= 1
        if self.ledger_path is not None:
            parties = [str(p) for p in self.mpc_pids]
            with open(self.ledger_path, "a") as fh:
                fh.write("".join(json.dumps({"triple_id": tid, "parties": parties}) + "\n"
                                 for tid in triple_ids))

    def take(self, n: int) -> Protocol:
        """n triples through `next_triple`, as a protocol that waits a round
        at a time until the pool holds them.  A pool short of them with no
        mint in flight is a ShareError, since no round would fill it."""
        while len(self.pool) < n:
            if not self.minting:
                raise ShareError("waiting for %d triples with %d pooled and no mint in flight"
                                 % (n, len(self.pool)))
            yield
        return [self.next_triple() for _ in range(n)]

    def next_triple(self) -> BeaverTripleShares:
        if not self.pool:
            self.runtime.run(self.mint(1))
        self.count += 1
        return self.pool.popleft()
