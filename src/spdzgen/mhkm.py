"""Multiplicative key products by chaining triple-generation sessions (mHKM).

Over an ordered party list P_0, P_1, ..., P_{n-1}, the last party ends
holding a_0 * a_1 * ... * a_{n-2} mod p while every other party keeps only
its own factor a_i.  The n-2 sessions run forward and thread the running
product between them:

    session 0: A = P_1 (a_1), B = P_0 (a_0),            C = P_2 gets a_0*a_1
    session 1: A = P_2 (a_2), B = P_2 (running product), C = P_3 gets a_0*a_1*a_2
    ...

The running product is held by the previous session's receiver, which plays
both input roles of the next session as sub-identities of itself.  With
three parties one session gives the third the product of the two owners'
factors: this is how the holder of c gets the two-randomness r_c and how the
committee leader gets the secure inflation factor's joint blind.

A chain computes K products side by side: every party holds a list of K
factors and each of the n-2 sessions carries K triples, so the chain sends
the same messages whatever K is.  Each party has one key pair, so every
session runs in chunks of one triple, each with its own randomness.
"""

from __future__ import annotations

from . import btg
from .btg import BTG_TAG, BtgRole
from .errors import ParameterError, ProtocolAbort
from .modmath import GroupParams
from .net import Protocol, Runtime


def key_product(runtime: Runtime, params: GroupParams, pids, keys: dict,
                factors: dict | None = None, count: int = 1,
                tag: str = BTG_TAG) -> Protocol:
    """The chain over `pids` for `count` products, as a protocol of 3(n-2)
    rounds whose result maps PartyId -> shares.

    `keys` maps PartyId -> KeyPair (the base party's key is never used),
    one per party, so each session's chunks are one triple wide.
    `factors` optionally pins a party's K factors; the others are drawn inside
    their sessions.  Party i < n-1 shares its own factors, the last party the
    products, each as a list of K residues.  Every session travels under
    `tag`.  The chain's shape is checked at the first step, before anything
    is sent; a session that fails raises ProtocolAbort naming its index.
    """
    if len(pids) < 3:
        raise ParameterError("key-product chain needs at least 3 parties, got %d" % len(pids))
    factors = factors or {}
    for pid, values in factors.items():
        if len(values) != count:
            raise ParameterError("party %s pins %d factors for a chain of %d products"
                                 % (pid, len(values), count))
    shares, product = {}, factors.get(pids[0])
    for idx in range(len(pids) - 2):
        # past the base, the holder of the running product is the contributor
        contributor, receiver = pids[idx + 1], pids[idx + 2]
        holder = pids[0] if idx == 0 else contributor
        try:
            outcome = yield from btg.triple_session(
                runtime, params,
                keys={BtgRole.A: [keys[contributor]], BtgRole.C: [keys[receiver]]},
                pids={BtgRole.A: contributor, BtgRole.B: holder, BtgRole.C: receiver},
                forced={BtgRole.A: factors.get(contributor), BtgRole.B: product},
                count=count, tag=tag)
        except Exception as exc:
            raise ProtocolAbort("chain session %d failed: %s" % (idx, exc)) from exc
        shares[contributor] = outcome[BtgRole.A]
        if idx == 0:
            shares[holder] = outcome[BtgRole.B]
        product = outcome[BtgRole.C]
    shares[pids[-1]] = product
    return shares
