#!/usr/bin/env python3
"""spdzgen benchmark: one workload, one closed-loop client, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload {pipeline,triples-two,online} \
        --seed N --seconds S --trace {0,1}

One single-threaded client issues items back to back.  With --trace 0 the
last line of standard output is a JSON object holding every end-to-end metric
of BENCHMARK.json; with --trace 1 it holds every per-layer metric.  Earlier
lines record the environment, a host-speed probe, each metric with its unit
and sample count, and any failed check.  The exit code is 0 only when every
correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPS = 9       # set-up samples per run, spread over the timed phase
SETUP_SAMPLE_S = 0.2  # a sample repeats the set-up back to back for this long
COUNTED_UNITS = 2    # traced units per untraced run; their counts must agree
PROBE_POWS = 2000    # 256-bit pow calls in the host-speed probe


def load_program():
    """Import spdzgen from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "spdzgen" / "__init__.py").is_file():
        sys.exit("error: no spdzgen sources under %s" % src)
    sys.path.insert(0, str(src))
    import spdzgen

    if Path(spdzgen.__file__).resolve().parent != (src / "spdzgen").resolve():
        sys.exit("error: imported spdzgen from %s, not from %s" % (spdzgen.__file__, src))


def host_pow_us(group) -> float:
    """Mean microseconds per 256-bit pow on fixed inputs.  A diagnostic of
    host speed only: no metric is ever adjusted by it."""
    t0 = perf_counter()
    for i in range(PROBE_POWS):
        pow(3 + i, group.q - i, group.p)
    return (perf_counter() - t0) / PROBE_POWS * 1e6


def p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(wl, setup_s, timed, counted, attempted, failed):
    """Every end-to-end metric as name -> (value, unit, samples)."""
    unit = counted.units[0] if counted.units else {"bytes": 0, "rounds": 0}
    lat = timed.latencies
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (median(setup_s), "s", len(setup_s)),
        "items_per_s": (timed.items / timed.busy if timed.busy else 0.0, "1/s", timed.items),
        "item_p50_ms": (median(lat) * 1e3, "ms", len(lat)),
        "item_p90_ms": (p90(lat) * 1e3, "ms", len(lat)),
        "error_rate": (failed / max(attempted, 1), "ratio", attempted),
        "wire_bytes_per_item": (unit["bytes"] / wl.unit_items, "B", len(counted.units)),
        "rounds_per_item": (unit["rounds"] / wl.unit_items, "count", len(counted.units)),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
    }


def per_layer(workload, untraced, traced, tracer, probe_us):
    """Every per-layer metric as name -> (value, unit, samples)."""
    n = traced.items or 1
    calls, amounts, self_s, spans = tracer.calls, tracer.amounts, tracer.self_s, tracer.durations
    delta = traced.program_delta
    minted = delta.get("minted", delta.get("dealt", 0))
    controls = 0 if workload == "triples-two" else n
    openings = calls["spdz.open_values"]
    untraced_rate = untraced.items / untraced.busy if untraced.busy else 0.0
    traced_rate = traced.items / traced.busy if traced.busy else 0.0
    cli_self = [m - f for m, f in zip(spans["cli.main"], spans["gwas.filter_controls"])]

    def self_ms(layer):
        return (self_s[layer] * 1e3 / n, "ms", n)

    def per_item(count):
        return (count / n, "count", n)

    def p50_ms(key):
        return (median(spans[key]) * 1e3, "ms", len(spans[key]))

    return {
        "modmath.modexp_per_item": per_item(calls["modmath.modexp"]),
        "modmath.member_checks_per_item": per_item(calls["modmath.is_subgroup_member"]),
        "modmath.inverses_per_item": per_item(calls["modmath.inverse"]),
        "modmath.self_ms_per_item": self_ms("modmath"),
        "btg.sessions_per_item": per_item(calls["btg.run_triple_session"]),
        "btg.session_p50_ms": p50_ms("btg.run_triple_session"),
        "btg.self_ms_per_item": self_ms("btg"),
        "dispense.calls_per_item": per_item(calls["dispense.dispense_blind_single"]
                                            + calls["dispense.dispense_blind_two"]),
        "dispense.self_ms_per_item": self_ms("dispense"),
        "dispense.spent_ratio": (delta["spent"] / minted if minted else 0.0, "ratio", minted),
        "net.messages_per_item": per_item(calls["net.Runtime.send"]),
        "net.self_ms_per_item": self_ms("net"),
        "spdz.openings_per_item": per_item(openings),
        "spdz.values_per_opening": (amounts["spdz.opened_values"] / openings if openings else 0.0,
                                    "count", openings),
        "spdz.shares_per_item": per_item(calls["spdz.share_secret"]),
        "spdz.triples_spent_per_item": per_item(calls["spdz.TripleLedger.spend"]),
        "spdz.self_ms_per_item": self_ms("spdz"),
        "fixpt.truncs_per_item": per_item(calls["fixpt.trunc"]),
        "fixpt.beaver_products_per_item": per_item(amounts["fixpt.batch_products"]
                                                   + calls["fixpt.fp_mult"]),
        "fixpt.self_ms_per_item": self_ms("fixpt"),
        "gwas.residual_p50_ms": p50_ms("gwas.residual_norm_sq"),
        "gwas.accept_p50_ms": p50_ms("gwas.secure_accept_bit"),
        "gwas.lambda_ms": p50_ms("gwas.secure_inflation_factor"),
        "gwas.triples_per_control": (minted / controls if controls else 0.0, "count", controls),
        "gwas.self_ms_per_item": self_ms("gwas"),
        "cli.self_ms": (median(cli_self) * 1e3, "ms", len(cli_self)),
        "trace.untraced_items_per_s": (untraced_rate, "1/s", untraced.items),
        "trace.traced_items_per_s": (traced_rate, "1/s", traced.items),
        "trace.overhead_ratio": (untraced_rate / traced_rate if traced_rate else 0.0, "ratio",
                                 traced.items),
        "host.pow256_us": (probe_us, "us", PROBE_POWS),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    load_program()
    from spdzgen import modmath
    from workloads import WORKLOADS, measure

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    probe_us = host_pow_us(modmath.DEFAULT_GROUP_256)
    env = {
        "modexp_backend": "python-pow" if modmath._powmod is pow else "gmpy2",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "group_bits": modmath.DEFAULT_GROUP_256.p.bit_length(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_pow256_us": round(probe_us, 2),
    }
    print(json.dumps({"env": env}), flush=True)

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = []

        def set_up(phase=None):
            # The host's speed flips within a second and drifts over minutes,
            # so each sample averages back-to-back set-ups over a fixed time
            # and the samples are spread evenly over the timed phase.  Every
            # set-up starts the workload afresh from the same seed.
            while not setup_s or (len(setup_s) < SETUP_REPS and phase is not None and
                                  phase.busy >= len(setup_s) * args.seconds / SETUP_REPS):
                n, t0 = 0, perf_counter()
                while n == 0 or perf_counter() - t0 < SETUP_SAMPLE_S:
                    wl.setup()
                    n += 1
                setup_s.append((perf_counter() - t0) / n)

        set_up()
        timed = measure(wl, args.seconds, between_units=set_up)
        tracer = Tracer().install()
        try:
            traced = measure(wl, args.seconds if args.trace else 0, COUNTED_UNITS, tracer)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = timed.attempted + traced.attempted
    failed = timed.failed + traced.failed
    if args.trace:
        values = per_layer(args.workload, timed, traced, tracer, probe_us)
    else:
        values = end_to_end(wl, setup_s, timed, traced, attempted, failed)
    for m in listed:
        if values.get(m["name"], (0, None))[1] != m["unit"]:
            sys.exit("error: BENCHMARK.json lists %s in %s; the benchmark computes %s"
                     % (m["name"], m["unit"], values.get(m["name"])))
    # For a fixed seed these lines repeat exactly from run to run.
    print(json.dumps({"counts_per_unit": traced.units[0] if traced.units else {},
                      "items_per_unit": wl.unit_items}))
    print(json.dumps({"setup_s_each": setup_s}))
    for name, (value, unit, samples) in values.items():
        print("%-32s %16.6f %-6s n=%d" % (name, value, unit, samples))
    for what in (timed.failures + traced.failures)[:10]:
        print("FAILED: %s" % what, file=sys.stderr)
    result = {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
              "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                          for m in listed}}
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
