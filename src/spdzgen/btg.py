"""Three-party Beaver triple generation over layered ElGamal.

Roles A and B choose subgroup secrets a and b privately; C finishes holding
c = a*b mod p without either factor ever crossing the wire in the clear.
The message flow:

    A: u_A = g^{r_A},        v_A = a * h_AC^{r_A}          -> B
    B: u_B = u_A * g^{r_B},  v_B = v_A * b * h_AC^{r_B}    -> A
    A: strips its key layer, re-randomizes under h_C        -> C
    C: c = v_C / u_C^{x_C}

where h_AC = h_A * h_C.  The final division is assigned to C: only C holds
x_C, and c is C's output.  Each session is a single-shot monotone state
machine; messages must arrive in step order.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from . import modmath
from .errors import ProtocolAbort, ProtocolStateError
from .modmath import Ciphertext, GroupParams, KeyPair
from .net import Runtime

SESSION_ID_BYTES = 16
BTG_TAG = "btg"
BTG_DONE_TAG = "btg-done"


class BtgRole(enum.Enum):
    A = "A"
    B = "B"
    C = "C"


@dataclass(frozen=True)
class BtgMessage:
    session_id: bytes
    step: int  # 1, 2 or 3
    payload: Ciphertext

    def serialize(self, params: GroupParams) -> bytes:
        """session_id (16) | step (1) | u | v, fixed element width."""
        return (self.session_id + bytes([self.step])
                + params.encode_element(self.payload.u)
                + params.encode_element(self.payload.v))

    @classmethod
    def parse(cls, raw: bytes, params: GroupParams) -> "BtgMessage":
        """Inverse of `serialize`; a malformed payload raises ProtocolAbort."""
        w = params.element_size
        if len(raw) != SESSION_ID_BYTES + 1 + 2 * w:
            raise ProtocolAbort("BTG message of %d bytes, expected %d"
                                % (len(raw), SESSION_ID_BYTES + 1 + 2 * w))
        sid = raw[:SESSION_ID_BYTES]
        step = raw[SESSION_ID_BYTES]
        if step not in (1, 2, 3):
            raise ProtocolAbort("BTG message for session %s has step %d" % (sid.hex(), step))
        u = params.decode_element(raw[SESSION_ID_BYTES + 1:SESSION_ID_BYTES + 1 + w])
        v = params.decode_element(raw[SESSION_ID_BYTES + 1 + w:])
        if not (0 < u < params.p and 0 < v < params.p):
            raise ProtocolAbort("BTG message for session %s carries an element outside (0, p)"
                                % sid.hex())
        return cls(sid, step, Ciphertext(u, v))


def keygen(params: GroupParams, rng: random.Random) -> KeyPair:
    """x uniform in [1, q); h = g^x."""
    x = rng.randrange(1, params.q)
    return KeyPair(x=x, h=modexp_pub(params, x))


def modexp_pub(params: GroupParams, x: int) -> int:
    return modmath.modexp(params.g, x, params.p)


@dataclass
class BtgSession:
    """One role's view of a single triple-generation session."""

    session_id: bytes
    params: GroupParams
    my_role: BtgRole
    my_keypair: KeyPair | None
    peer_public_keys: dict
    rng: random.Random
    state: str = "initial"
    secret_output: int | None = field(default=None)

    def _expect(self, role: BtgRole, state: str):
        if self.my_role is not role:
            raise ProtocolStateError(
                "step belongs to role %s, session holds role %s" % (role.value, self.my_role.value))
        if self.state != state:
            raise ProtocolStateError(
                "session %s in state %r, expected %r" % (self.session_id.hex(), self.state, state))

    def _check_msg(self, msg: BtgMessage, step: int):
        if msg.session_id != self.session_id:
            raise ProtocolStateError("message for session %s delivered to %s"
                                     % (msg.session_id.hex(), self.session_id.hex()))
        if msg.step != step:
            raise ProtocolStateError("expected step-%d message, got step %d" % (step, msg.step))

    def _h_ac(self) -> int:
        return self.peer_public_keys[BtgRole.A] * self.peer_public_keys[BtgRole.C] % self.params.p

    def step_a1(self, *, secret: int | None = None, nonce: int | None = None) -> BtgMessage:
        """A samples its secret a and first-layer randomness, encrypts under h_AC."""
        self._expect(BtgRole.A, "initial")
        p = self.params.p
        a = modmath.random_subgroup_element(self.params, self.rng) if secret is None else secret
        r_a = modmath.random_exponent(self.params, self.rng) if nonce is None else nonce
        ct = modmath.encrypt(self.params, self._h_ac(), a, r_a)
        self.secret_output = a % p
        self.state = "awaiting-step2"
        return BtgMessage(self.session_id, 1, ct)

    def step_b(self, msg: BtgMessage, *, secret: int | None = None,
               nonce: int | None = None) -> BtgMessage:
        """B multiplies its secret b into the layered ciphertext."""
        self._expect(BtgRole.B, "initial")
        self._check_msg(msg, 1)
        b = modmath.random_subgroup_element(self.params, self.rng) if secret is None else secret
        r_b = modmath.random_exponent(self.params, self.rng) if nonce is None else nonce
        ct = modmath.mult_layer(msg.payload, b, self._h_ac(), r_b, self.params)
        self.secret_output = b % self.params.p
        self.state = "done"
        return BtgMessage(self.session_id, 2, ct)

    def step_a2(self, msg: BtgMessage, *, nonce: int | None = None) -> BtgMessage:
        """A strips its own layer and re-randomizes under h_C alone."""
        self._expect(BtgRole.A, "awaiting-step2")
        self._check_msg(msg, 2)
        v = modmath.strip_layer(msg.payload, self.my_keypair.x, self.params)
        r = modmath.random_exponent(self.params, self.rng) if nonce is None else nonce
        ct = modmath.rerandomize(Ciphertext(msg.payload.u, v),
                                 self.peer_public_keys[BtgRole.C], r, self.params)
        self.state = "done"
        return BtgMessage(self.session_id, 3, ct)

    def finish_c(self, msg: BtgMessage) -> int:
        """C removes the last layer; its output is c = a*b mod p."""
        self._expect(BtgRole.C, "initial")
        self._check_msg(msg, 3)
        c = modmath.strip_layer(msg.payload, self.my_keypair.x, self.params)
        self.secret_output = c
        self.state = "done"
        return c


def new_session_trio(params: GroupParams, keys: dict, rngs: dict,
                     session_id: bytes) -> dict:
    """Build the three per-role session objects sharing one session id.

    `keys` maps BtgRole -> KeyPair for roles A and C (role B never uses its
    key in the protocol and may be absent).  `rngs` maps BtgRole -> Random.
    """
    pub = {BtgRole.A: keys[BtgRole.A].h, BtgRole.C: keys[BtgRole.C].h}
    return {
        role: BtgSession(
            session_id=session_id,
            params=params,
            my_role=role,
            my_keypair=keys.get(role),
            peer_public_keys=pub,
            rng=rngs[role],
        )
        for role in BtgRole
    }


@dataclass(frozen=True)
class TripleOutcome:
    session_id: bytes
    sessions: dict  # BtgRole -> BtgSession, each holding its secret_output

    def secret(self, role: BtgRole) -> int:
        return self.sessions[role].secret_output


def run_triple_session(runtime: Runtime, params: GroupParams, keys: dict,
                       pids: dict, session_id: bytes | None = None,
                       forced: dict | None = None) -> TripleOutcome:
    """Drive one full session over the runtime's channels.

    `pids` maps BtgRole -> PartyId.  `forced` optionally pins the secrets of
    roles A and/or B for trace tests.  A short extra-protocol "done" ack from
    C back to A closes the session for the simulator's bookkeeping.
    """
    forced = forced or {}
    if session_id is None:
        session_id = runtime.rng(pids[BtgRole.A]).getrandbits(8 * SESSION_ID_BYTES) \
            .to_bytes(SESSION_ID_BYTES, "big")
    rngs = {role: runtime.rng(pids[role]) for role in BtgRole}
    sessions = new_session_trio(params, keys, rngs, session_id)

    m1 = sessions[BtgRole.A].step_a1(secret=forced.get(BtgRole.A))
    runtime.send(pids[BtgRole.A], pids[BtgRole.B], BTG_TAG, m1.serialize(params))
    runtime.pump()

    raw = runtime.take(pids[BtgRole.B], BTG_TAG)
    m2 = sessions[BtgRole.B].step_b(BtgMessage.parse(raw.payload, params),
                                    secret=forced.get(BtgRole.B))
    runtime.send(pids[BtgRole.B], pids[BtgRole.A], BTG_TAG, m2.serialize(params))
    runtime.pump()

    raw = runtime.take(pids[BtgRole.A], BTG_TAG)
    m3 = sessions[BtgRole.A].step_a2(BtgMessage.parse(raw.payload, params))
    runtime.send(pids[BtgRole.A], pids[BtgRole.C], BTG_TAG, m3.serialize(params))
    runtime.pump()

    raw = runtime.take(pids[BtgRole.C], BTG_TAG)
    sessions[BtgRole.C].finish_c(BtgMessage.parse(raw.payload, params))
    runtime.send(pids[BtgRole.C], pids[BtgRole.A], BTG_DONE_TAG, session_id)
    runtime.pump()
    runtime.take(pids[BtgRole.A], BTG_DONE_TAG)

    return TripleOutcome(session_id=session_id, sessions=sessions)
