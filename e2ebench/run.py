"""The repository benchmark: one workload per invocation.

    python3 e2ebench/run.py --workload guest_run --seed 1 --seconds 20 --trace 0

Runs from the repository root and imports the simulator from ``src``.
With ``--trace 0`` it repeats set-up plus the timed phase until
``--seconds`` have passed and reports the end-to-end metrics; with
``--trace 1`` it runs one untraced and one traced repetition of the
same inputs and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  DESIGN.md next to this file describes the
workloads and metrics.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("e2ebench: no simulator sources at %s" % (ROOT / "src"))
sys.path.insert(0, str(ROOT / "src"))

from repro.common import crypto  # noqa: E402
from repro.hw.cycles import CycleCounter  # noqa: E402
from repro.hw.tlb import Tlb  # noqa: E402
from repro.workloads.tracegen import CacheModel  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: the CycleCounter reasons the four workloads charge in their timed
#: phases; each gets sim.<reason>.cycles and sim.<reason>.events
SIM_REASONS = (
    "boot", "cr3-switch-gate", "disk-device", "dma-read", "dma-write",
    "fidelius-install", "fidelius-text", "gate1", "gate1-write", "gate2",
    "gate3", "hypercall", "io-decrypt-aes-ni", "io-encrypt-aes-ni",
    "mem-read", "mem-read-cached", "mem-read-enc", "mem-write",
    "mem-write-enc", "pt-walk", "shadow-exit", "shadow-verify",
    "tlb-flush-entry", "vmexit-roundtrip", "xen-boot",
)

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"), ("run_s", "s"), ("peak_rss_mib", "MiB"),
)


def per_layer_metrics():
    """[(name, unit, better)] in the order the traced run prints them."""
    out = []
    for layer in layers.LAYER_TARGETS:
        out.append((layer + ".self_s", "s", "lower"))
    out += [
        ("bench.self_s", "s", "lower"),
        ("hw.memctrl.calls", "count", "lower"),
        ("hw.memctrl.plaintext_hit_ratio", "ratio", "higher"),
        ("hw.pagetable.map_calls", "count", "lower"),
        ("hw.pagetable.translate_calls", "count", "lower"),
        ("hw.tlb.hit_ratio", "ratio", "higher"),
        ("hw.tlb.evictions", "count", "lower"),
        ("crypto.keystream.line_hit_ratio", "ratio", "higher"),
        ("crypto.dh.calls", "count", "lower"),
        ("sev.firmware.commands", "count", "lower"),
        ("xen.exits", "count", "lower"),
        ("core.gates.crossings", "count", "lower"),
        ("workloads.tracegen.lines", "count", "lower"),
        ("cloud.refused_boots", "count", "higher"),
        ("cloud.migrate_success_ratio", "ratio", "higher"),
        ("fleet.events_processed", "count", "higher"),
        ("fleet.virtual_ns", "ns", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
        ("fail_ratio", "ratio", "lower"),
        ("paper_err_pp", "pp", "lower"),
    ]
    for wl in (workloads.GuestRun, workloads.TenantChurn):
        for kind in wl.kinds:
            out.append(("op.%s.p50_ms" % kind, "ms", "lower"))
    for layer in layers.SIM_LAYERS:
        out.append(("sim.%s.cycles" % layer, "cycles", "lower"))
    for reason in SIM_REASONS:
        out.append(("sim.%s.cycles" % reason, "cycles", "lower"))
        out.append(("sim.%s.events" % reason, "count", "lower"))
    return out


# -- one repetition -------------------------------------------------------------

class Rep:
    """Measurements and checked outcomes of one set-up + timed phase."""

    def __init__(self, setup_s, warm, rnd, wall_s, cycles_total,
                 cycles_timed, keystream, tlb, cache_lines):
        self.setup_s = setup_s
        self.rnd = rnd
        self.wall_s = wall_s
        self.cycles_timed = cycles_timed
        self.keystream = keystream
        self.tlb = tlb
        self.cache_lines = cache_lines
        self.attempted = warm.attempted + rnd.attempted
        self.failed = len(warm.failed_ops) + len(rnd.failed_ops)
        self.messages = warm.messages + rnd.messages
        unmapped = sorted(r for r in cycles_total[0]
                          if layers.reason_layer(r) is None)
        if unmapped:
            self.failed += 1
            self.messages.append("cycles charged to unmapped reasons %s"
                                 % unmapped)
        h = hashlib.sha256()
        for item in warm.outcomes + rnd.outcomes:
            h.update(item.encode() + b"\n")
        h.update(json.dumps(cycles_total, sort_keys=True).encode())
        self.digest = h.hexdigest()


def _ledger(counters):
    by_reason, events = {}, {}
    for counter in counters:
        for reason, cycles in counter.by_reason.items():
            by_reason[reason] = by_reason.get(reason, 0) + cycles
        for reason, count in counter.events.items():
            events[reason] = events.get(reason, 0) + count
    return by_reason, events


def _minus(after, before):
    return tuple({k: v - b.get(k, 0) for k, v in a.items() if v != b.get(k, 0)}
                 for a, b in zip(after, before))


def _tlb_counts(objects):
    return [sum(getattr(t, field) for t in objects.of(Tlb))
            for field in ("hits", "misses", "evictions")]


def run_rep(workload, inputs, objects, recorder=None):
    """Set up fresh state and run the timed phase.  The garbage left by
    the previous repetition is collected first; the collector stays on,
    as it is when the simulator runs on its own."""
    crypto.clear_keystream_cache()
    gc.collect()
    return _rep(workload, inputs, objects, recorder)


def _rep(workload, inputs, objects, recorder):
    objects.arm()
    warm = workloads.Round()
    start = time.perf_counter()
    state = workload.setup(inputs, warm)
    setup_s = time.perf_counter() - start
    rnd = workloads.Round(recorder)
    before = _ledger(objects.of(CycleCounter))
    tlb_before = _tlb_counts(objects)
    keystream_before = crypto.keystream_cache_stats()
    if recorder is not None:
        recorder.on = True
    start = time.perf_counter()
    workload.run(state, inputs, rnd)
    wall_s = time.perf_counter() - start
    if recorder is not None:
        recorder.on = False
    keystream = crypto.keystream_cache_delta(keystream_before)
    total = _ledger(objects.of(CycleCounter))
    tlb = [a - b for a, b in zip(_tlb_counts(objects), tlb_before)]
    lines = sum(c.hits + c.misses for c in objects.of(CacheModel))
    return Rep(setup_s, warm, rnd, wall_s, total, _minus(total, before),
               keystream, tlb, lines)


# -- metrics -------------------------------------------------------------------

def _peak_rss_mib():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _percentile(values, q):
    """The q-th percentile (exclusive method), or the value itself."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def least_disturbed(reps):
    """[(kind, seconds, ops)] per op of the timed phase, each op's time
    the least it took in any repetition.

    Every repetition runs the same ops on the same inputs from fresh
    state, so the i-th op does the same work each time; what differs is
    how much the host disturbed it.  Interference comes in bursts with
    quiet moments between them; a short op's least time comes from a
    quiet moment, where a median keeps the bursts' share of the run.
    """
    shapes = {tuple((t[0], t[2]) for t in rep.rnd.timed) for rep in reps}
    if len(shapes) != 1:
        raise RuntimeError("repetitions ran different ops")
    return [(ops[0][0], min(t[1] for t in ops), ops[0][2])
            for ops in zip(*(rep.rnd.timed for rep in reps))]


def end_to_end(reps):
    """The end-to-end metrics and the number of latency samples."""
    best = least_disturbed(reps)
    samples = [seconds * 1000.0 for _kind, seconds, _ops in best]
    run_s = sum(seconds for _kind, seconds, _ops in best)
    return {
        "setup_s": statistics.median(rep.setup_s for rep in reps),
        "ops_per_s": sum(ops for _kind, _s, ops in best) / run_s,
        "op_p50_ms": _percentile(samples, 50),
        "op_p95_ms": _percentile(samples, 95),
        "run_s": run_s,
        "peak_rss_mib": _peak_rss_mib(),
    }, len(samples)


def per_layer(name, untraced, traced, recorder):
    """Every per-layer metric; 0 where a layer has nothing to report."""
    layer_self, calls = recorder.self_times()
    errors = {recorder.names[nid]: n for nid, n in recorder.errors.items()}

    def layer_calls(layer):
        return sum(n for key, n in calls.items()
                   if key.startswith(layer + ":"))

    def ratio(num, den):
        return num / den if den else 0.0

    by_reason, events = traced.cycles_timed
    migrations = calls.get("cloud:Cloud.migrate_tenant", 0)
    hits, misses, evictions = traced.tlb
    ks = traced.keystream
    attempted = untraced.attempted + traced.attempted
    values = {layer + ".self_s": layer_self.get(layer, 0.0)
              for layer in layers.LAYER_TARGETS}
    values.update({
        "bench.self_s": layer_self.get("bench", 0.0),
        "hw.memctrl.calls": layer_calls("hw.memctrl"),
        "hw.memctrl.plaintext_hit_ratio": ratio(
            events.get("mem-read-cached", 0),
            events.get("mem-read-cached", 0) + events.get("mem-read-enc", 0)),
        "hw.pagetable.map_calls": calls.get(
            "hw.pagetable:PageTableWalker.map", 0),
        "hw.pagetable.translate_calls": calls.get(
            "hw.pagetable:PageTableWalker.translate", 0),
        "hw.tlb.hit_ratio": ratio(hits, hits + misses),
        "hw.tlb.evictions": evictions,
        "crypto.keystream.line_hit_ratio": ratio(
            ks["line_hits"], ks["line_hits"] + ks["line_misses"]),
        "crypto.dh.calls": layer_calls("crypto.dh"),
        "sev.firmware.commands": layer_calls("sev.firmware"),
        "xen.exits": calls.get("xen.hypervisor:Hypervisor.guest_exit", 0),
        "core.gates.crossings": layer_calls("core.gates"),
        "workloads.tracegen.lines": traced.cache_lines,
        "cloud.refused_boots": errors.get(
            "system:System.boot_protected_guest", 0),
        "cloud.migrate_success_ratio": ratio(
            migrations - errors.get("cloud:Cloud.migrate_tenant", 0),
            migrations),
        "fleet.events_processed": traced.rnd.extra.get("events", 0),
        "fleet.virtual_ns": traced.rnd.extra.get("virtual_ns", 0),
        "trace.overhead_ratio": traced.wall_s / untraced.wall_s - 1.0,
        "trace.spans": len(recorder),
        "fail_ratio": ratio(untraced.failed + traced.failed, attempted),
        "paper_err_pp": traced.rnd.extra.get("paper_err_pp", 0.0),
    })
    kinds = {}
    for kind, seconds, _ops in untraced.rnd.timed:
        kinds.setdefault(kind, []).append(seconds * 1000.0)
    for metric, _unit, _better in per_layer_metrics():
        if metric.startswith("op."):
            samples = kinds.get(metric.split(".")[1])
            values[metric] = statistics.median(samples) if samples else 0.0
    sim_layers = {layer: 0 for layer in layers.SIM_LAYERS}
    for reason, cycles in by_reason.items():
        layer = layers.reason_layer(reason)
        if layer is not None:
            sim_layers[layer] += cycles
    for layer in layers.SIM_LAYERS:
        values["sim.%s.cycles" % layer] = sim_layers[layer]
    for reason in SIM_REASONS:
        values["sim.%s.cycles" % reason] = by_reason.get(reason, 0)
        values["sim.%s.events" % reason] = events.get(reason, 0)

    problems = []
    for layer, home in layers.HOME_WORKLOAD.items():
        if home == name and layer_calls(layer) == 0:
            problems.append("layer %s recorded no call on its home "
                            "workload: its wrappers were bypassed" % layer)
    if traced.digest != untraced.digest:
        problems.append("traced sim_digest %s != untraced %s"
                        % (traced.digest, untraced.digest))
    self_total = sum(layer_self.values())
    if self_total > traced.wall_s * 1.001:
        problems.append("layer self times sum to %.6fs, more than the "
                        "traced wall time %.6fs" % (self_total, traced.wall_s))
    return values, problems


# -- entry point ----------------------------------------------------------------

def measure(workload, inputs, seconds, objects, min_reps=2):
    """Repeat set-up + timed phase; start another repetition only while
    it is expected to finish within ``seconds`` (at least ``min_reps``)."""
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(workload, inputs, objects))
        elapsed = time.perf_counter() - start
        if len(reps) >= min_reps and \
                elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def host_facts():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, report = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


def run(name, seed, seconds, trace, workload=None):
    """Run one workload; returns (result object, report lines)."""
    workload = workload or workloads.WORKLOADS[name]()
    inputs = workload.generate(seed)
    problems = []
    with tracing.InstanceRegistry() as objects:
        objects.track(CycleCounter)
        if trace:
            untraced = run_rep(workload, inputs, objects)
            objects.track(Tlb)
            objects.track(CacheModel)
            recorder = tracing.SpanRecorder()
            with tracing.LayerSpans(recorder, layers.LAYER_TARGETS):
                traced = run_rep(workload, inputs, objects, recorder)
            reps = [untraced, traced]
            metrics, problems = per_layer(name, untraced, traced, recorder)
            units = {m: u for m, u, _ in per_layer_metrics()}
            samples = len(untraced.rnd.timed)
        else:
            reps = measure(workload, inputs, seconds, objects)
            metrics, samples = end_to_end(reps)
            units = dict(END_TO_END)
    digests = sorted({rep.digest for rep in reps})
    if len(digests) != 1:
        problems.append("repetitions disagree on sim_digest: %s" % digests)
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps) + bool(problems)
    for rep in reps:
        for message in rep.messages:
            print("FAIL: " + message, file=sys.stderr)
    for message in problems:
        print("FAIL: " + message, file=sys.stderr)
    report = ["workload %s seed %d trace %d: %d repetitions, %d latency "
              "samples" % (name, seed, trace, len(reps), samples)]
    report += ["  %-34s %.6g %s" % (m, v, units[m])
               for m, v in metrics.items()]
    report.append("  fail_ratio %.6g (%d of %d ops)"
                  % (failed / attempted, failed, attempted))
    extra = reps[-1].rnd.extra
    if "paper_err_pp" in extra:
        report.append("  paper_err_pp %.4f pp" % extra["paper_err_pp"])
    report.append("sim_digest " + digests[0])
    report.append("host " + json.dumps(host_facts(), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }
    return result, report


if __name__ == "__main__":
    sys.exit(main())
