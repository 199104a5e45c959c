"""Acceptance gate: one test per criterion, at the stated sizes and tolerances.

Each test prints a `[criterion N] PASS` line once its assertions have held;
run with `pytest tests/test_acceptance.py -v -s` to see them.
"""

import json
import math
import random
import time
from fractions import Fraction

import pytest

from spdzgen import btg
from spdzgen.btg import BtgMessage, BtgRole
from spdzgen.cli import main as cli_main
from spdzgen.dispense import dispense_blind_single, dispense_blind_two, reconstruct
from spdzgen.errors import DegenerateTableError
from spdzgen.fixpt import FixedPointParams, fp_decode, fp_encode, fp_mult, trunc
from spdzgen.gwas import (
    ContingencyCounts,
    ControlRecord,
    GenotypeMatrix,
    PipelineConfig,
    build_parties,
    filter_controls,
    inflation_factor_plain,
    orthonormal_columns,
    plain_filter_controls,
    plain_residual_norm_sq,
    secure_inflation_factor,
    synth_genotypes,
)
from spdzgen.mhkm import key_product
from spdzgen.modmath import signed_decode, signed_encode
from spdzgen.net import PartyId, Runtime
from spdzgen.spdz import TripleLedger

from helpers import beaver_mult, open_value, share_secret, triple_stream

BTG_PIDS = {BtgRole.A: PartyId("BTG_A"), BtgRole.B: PartyId("BTG_B"),
            BtgRole.C: PartyId("BTG_C")}
MPC = [PartyId("MPC", i) for i in (1, 2, 3)]


def announce(criterion, text):
    print("\n[criterion %d] PASS %s" % (criterion, text))


def triple_values(triple, p):
    return tuple(reconstruct(shares.values(), p)
                 for shares in (triple.a_shares, triple.b_shares, triple.c_shares))


def test_criterion_1_btg_correctness_500_sessions(group256):
    t0 = time.perf_counter()
    rt = Runtime(list(BTG_PIDS.values()), seed="acc1", record=False)
    keys = {role: btg.keygen(group256, rt.rng(pid)) for role, pid in BTG_PIDS.items()}
    for _ in range(500):
        [out] = rt.run(btg.triple_session(rt, group256, keys, BTG_PIDS))
        [a], [b], [c] = (out[r] for r in BtgRole)
        assert c == a * b % group256.p
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    announce(1, "500 sessions, c = a*b in all, %.1f s" % elapsed)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_criterion_2_mhkm_chain(n, group256):
    pids = [PartyId("KM", i) for i in range(1, n + 1)]
    for run in range(100):
        rt = Runtime(pids, seed=("acc2", n, run), record=False)
        keys = {pid: btg.keygen(group256, rt.rng(pid)) for pid in pids}
        [shares] = rt.run(key_product(rt, group256, pids, keys))
        product = math.prod(shares[pid][0] for pid in pids[:-1]) % group256.p
        assert shares[pids[-1]] == [product]
    announce(2, "n=%d chain product exact over 100 runs" % n)


def test_criterion_3_blind_dispensation_and_multiplication(group256):
    p = group256.p
    rt = Runtime(list(BTG_PIDS.values()) + MPC, seed="acc3", record=False)
    keys = {role: btg.keygen(group256, rt.rng(pid)) for role, pid in BTG_PIDS.items()}
    chain_keys = {MPC[0]: btg.keygen(group256, rt.rng(MPC[0])),
                  BTG_PIDS[BtgRole.C]: keys[BtgRole.C]}

    singles = []
    for i in range(500):
        [[triple]] = rt.run(dispense_blind_single(rt, group256, keys, BTG_PIDS, MPC,
                                                  triple_ids=["s%d" % i]))
        a2, b2, c2 = triple_values(triple, p)
        assert c2 == a2 * b2 % p
        singles.append(triple)
    twos = []
    for i in range(500):
        [[triple]] = rt.run(dispense_blind_two(rt, group256, keys, BTG_PIDS, MPC,
                                               ox=MPC[0], oy=MPC[1], triple_ids=["d%d" % i],
                                               keys=chain_keys))
        a2, b2, c2 = triple_values(triple, p)
        assert c2 == a2 * b2 % p
        twos.append(triple)

    rng = random.Random(31)
    ledger = TripleLedger()
    for triple in singles + twos:
        xv, yv = rng.randrange(p), rng.randrange(p)
        x = share_secret(rt, MPC[0], xv, MPC, p)
        y = share_secret(rt, MPC[1], yv, MPC, p)
        z = beaver_mult(rt, x, y, triple, p, ledger)
        assert open_value(rt, z, p) == xv * yv % p
    announce(3, "10^3 dispensed triples valid (both variants); 10^3 products exact")


def test_criterion_4_truncation_exhaustive_k8():
    import sympy

    params = FixedPointParams(k=8, f=0, kappa=10, p=int(sympy.nextprime(2 ** 20)))
    rt = Runtime(MPC, seed="acc4", record=False)

    for z_val in range(-127, 128):
        enc = signed_encode(z_val, params.p)
        for m in range(1, 9):
            want = z_val >> m
            for _ in range(50):
                z = share_secret(rt, MPC[0], enc, MPC, params.p)
                out = trunc(rt, z, m, params)
                got = signed_decode(open_value(rt, out.value, params.p), params.p)
                assert got - want in (0, 1), (z_val, m, got)
                assert out.opened < params.p

    # carry rate for z=100, m=4: (z' mod 16) / 16 = 0.25
    enc100 = signed_encode(100, params.p)
    hits = 0
    for _ in range(10_000):
        z = share_secret(rt, MPC[0], enc100, MPC, params.p)
        got = signed_decode(open_value(rt, trunc(rt, z, 4, params).value, params.p),
                            params.p)
        hits += got == 7
    rate = hits / 10_000
    assert abs(rate - 0.25) < 0.05
    announce(4, "exhaustive window at k=8; carry rate %.3f vs 0.25; no wraparound" % rate)


def test_criterion_5_fixed_point_multiply():
    params = FixedPointParams()  # k=32, f=16
    rt = Runtime(MPC, seed="acc5", record=False)
    rng = random.Random(51)
    triples = triple_stream(params.p, MPC, rng)
    ledger = TripleLedger()
    bound = Fraction(1, 2 ** 15)
    for _ in range(1000):
        xq = Fraction(rng.randrange(-2 ** 16 + 1, 2 ** 16), 2 ** 16)
        yq = Fraction(rng.randrange(-2 ** 16 + 1, 2 ** 16), 2 ** 16)
        x = share_secret(rt, MPC[0], fp_encode(xq, params), MPC, params.p)
        y = share_secret(rt, MPC[1], fp_encode(yq, params), MPC, params.p)
        z = fp_mult(rt, x, y, next(triples), params, ledger)
        got = fp_decode(open_value(rt, z, params.p), params)
        assert abs(got - xq * yq) <= bound
    announce(5, "10^3 products in (-1,1), |error| <= 2^-15")


def test_criterion_6_inflation_factor(group256):
    assert inflation_factor_plain(ContingencyCounts(25, 50, 25, 0, 0, 0)) == 0
    lam = inflation_factor_plain(ContingencyCounts(30, 40, 30, 0, 0, 0))
    assert lam == Fraction(2000, 10000)

    rng = random.Random(61)
    ctx = build_parties(group256, seed="acc6", record=True)
    checked = 0
    guard = None
    while checked < 100:
        case = tuple(rng.randrange(0, 500) for _ in range(3))
        ctrl = tuple(rng.randrange(0, 500) for _ in range(3))
        try:
            want = inflation_factor_plain(ContingencyCounts(*case, *ctrl))
        except DegenerateTableError:
            continue
        got = secure_inflation_factor(ctx.runtime, group256, case, ctrl, ctx.mpc_pids,
                                      ctx.o_case, ctx.o_ctrl, ctx.leader,
                                      ctx.dispenser, ctx.ledger, ctx.owner_keys)
        assert got == want
        guard = ctrl
        checked += 1

    # O_case's view holds no opening of the control counts
    width = group256.element_size
    for rec in ctx.runtime.transcript_view(ctx.o_case):
        if rec[0] == "msg" and (rec[3].startswith("open-result") or rec[3].startswith("open:")):
            for i in range(0, len(rec[4]), width):
                value = int.from_bytes(rec[4][i:i + width], "big")
                assert signed_decode(value, group256.p) not in guard
    announce(6, "HWE exact, 2000/10000 exact, 100 secure ratios match plain; "
                "no control-count opening in O_case view")


def pipeline_inputs_100x50(seed="acc7"):
    rng = random.Random(seed)
    while True:
        span_rows = [tuple(rng.randrange(3) for _ in range(50)) for _ in range(10)]
        basis = orthonormal_columns(span_rows)
        if basis.rank == 10:
            break
    far_rows = [tuple(rng.randrange(3) for _ in range(50)) for _ in range(90)]
    controls = [ControlRecord.from_genotype_row("ctrl_%03d" % i, row)
                for i, row in enumerate(span_rows + far_rows)]
    case = synth_genotypes(100, 50, 0.5, seed=seed + "-case")
    return basis, case, controls


def test_criterion_7_residual_filter(group256):
    basis, case, controls = pipeline_inputs_100x50()
    config = PipelineConfig(fp=FixedPointParams(p=group256.p))
    tau_sq = float(config.tau) ** 2
    # guard band: every control sits clear of the decision boundary
    for ctrl in controls:
        res = plain_residual_norm_sq(basis, ctrl.vector)
        assert abs(res - tau_sq) > 0.02

    plain = plain_filter_controls(basis, case.counts(), controls, config)
    secure = filter_controls(group256, basis, case.counts(), controls, config,
                             seed="acc7-run")
    assert secure["accepted"] == plain["accepted"]
    assert len(secure["accepted"]) == 10
    assert secure["lambda"] == plain["lambda"]
    echo = config.echo()
    assert echo["tau"] == 0.3 and echo["lambda_max"] == 0.05
    announce(7, "100/100 decisions match the plaintext oracle; defaults echoed")


def test_criterion_8_end_to_end_cmd_run(tmp_path):
    basis, case, controls = pipeline_inputs_100x50(seed="acc8")
    case_csv, basis_csv, ctrl_csv = (tmp_path / n for n in
                                     ("case.csv", "basis.csv", "ctrl.csv"))
    case.to_csv(case_csv)
    basis.to_csv(basis_csv)
    GenotypeMatrix(entries=tuple(tuple(int(v) for v in c.vector)
                                 for c in controls)).to_csv(ctrl_csv)

    t0 = time.perf_counter()
    reports, ledgers = [], []
    for i in (1, 2):
        out = tmp_path / ("report%d.json" % i)
        ledger = tmp_path / ("ledger%d.jsonl" % i)
        code = cli_main(["run", "--case", str(case_csv), "--basis", str(basis_csv),
                         "--controls", str(ctrl_csv), "--out", str(out),
                         "--seed", "8", "--triple-ledger", str(ledger)])
        assert code == 0
        doc = json.loads(out.read_text())
        doc.pop("runtime_ms")  # wall-clock; everything else must be byte-equal
        reports.append(json.dumps(doc, sort_keys=True).encode())
        ledgers.append(ledger.read_bytes())
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    assert reports[0] == reports[1]
    assert ledgers[0] == ledgers[1]
    doc = json.loads(reports[0])
    assert len(doc["accepted"]) == 10
    assert doc["config"]["parties"] == 3
    announce(8, "two seeded runs in %.0f s total, reports byte-equal up to timing" % elapsed)


def test_criterion_9_transcript_privacy_scans(group256):
    # BTG sessions: no party's view holds another party's secret in the clear
    rt = Runtime(list(BTG_PIDS.values()), seed="acc9", record=True)
    keys = {role: btg.keygen(group256, rt.rng(pid)) for role, pid in BTG_PIDS.items()}
    for _ in range(100):
        [out] = rt.run(btg.triple_session(rt, group256, keys, BTG_PIDS))
        secrets = {role: out[role][0] for role in BtgRole}
        for role, pid in BTG_PIDS.items():
            foreign = {v for r, v in secrets.items() if r is not role}
            for rec in rt.transcript_view(pid):
                if rec[0] == "msg" and rec[3] == btg.BTG_TAG:
                    [ct] = BtgMessage.parse(rec[4], group256).payloads
                    assert ct.u not in foreign
                    assert ct.v not in foreign
        rt._transcript.clear()

    # lambda protocol: neither owner's counts appear in any other party's view
    rng = random.Random(91)
    width = group256.element_size
    for run in range(10):
        ctx = build_parties(group256, seed=("acc9b", run), record=True)
        case = tuple(rng.randrange(1, 400) for _ in range(3))
        ctrl = tuple(rng.randrange(1, 400) for _ in range(3))
        secure_inflation_factor(ctx.runtime, group256, case, ctrl, ctx.mpc_pids,
                                ctx.o_case, ctx.o_ctrl, ctx.leader,
                                ctx.dispenser, ctx.ledger, ctx.owner_keys)
        for pid, foreign in ((ctx.o_case, ctrl), (ctx.o_ctrl, case)):
            for rec in ctx.runtime.transcript_view(pid):
                if rec[0] != "msg":
                    continue
                for i in range(0, len(rec[4]) - width + 1, width):
                    value = int.from_bytes(rec[4][i:i + width], "big")
                    assert signed_decode(value, group256.p) not in foreign
    announce(9, "no foreign secret as cleartext element in any scanned view")
