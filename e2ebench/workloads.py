"""The four benchmark workloads, each driven only through public APIs.

Every workload has the same shape:

``generate(seed)``
    All inputs, as plain data, from the benchmark seed alone.
``setup(inputs, warm)``
    Build fresh simulator state (timed as ``setup_s``); ops run here go
    through ``warm`` and are checked but not timed.
``run(state, inputs, rnd)``
    The timed phase: a fixed sequence of ops, each timed through
    :meth:`Round.op`, each outcome checked against a plain-Python model
    or a committed reference.

A repetition (set-up plus timed phase) is deterministic: the same
inputs produce the same outcomes and simulated-cycle ledger, so the
runner hashes them into ``sim_digest`` and requires every repetition
of a run to agree.
"""

import dataclasses
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import traceback
from pathlib import Path

from repro import cloud as cloud_mod
from repro import system as system_mod
from repro.common import crypto
from repro.common.constants import PAGE_SIZE
from repro.common.errors import SevError
from repro.core import lifecycle
from repro.eval import export, fleetbench
from repro.fleet import scenarios
from repro.workloads import guestprogs
from repro.xen import hypercalls as hc

import paper

ROOT = Path(__file__).resolve().parent.parent
LINE = 64


class Round:
    """Times one repetition's ops and collects their checked outcomes."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.timed = []          # [kind, seconds, ops completed]
        self.outcomes = []       # digest material, in op order
        self.attempted = 0
        self.failed_ops = set()
        self.messages = []
        self.extra = {}

    def op(self, kind, fn, *args):
        """Run and time one op; an exception fails it and returns None."""
        self.attempted += 1
        rec = self.recorder
        span = rec.begin_op(kind) if rec is not None and rec.on else None
        start = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:        # one broken op must not end the run
            result = None
            self.fail("%s raised:\n%s" % (kind, traceback.format_exc()))
        finally:
            elapsed = time.perf_counter() - start
            if span is not None:
                rec.end_op(span)
        self.timed.append([kind, elapsed, 1])
        return result

    def fail(self, message):
        """Fail the most recent op."""
        self.failed_ops.add(self.attempted)
        self.messages.append(message)

    def check(self, ok, message):
        if not ok:
            self.fail(message)

    def record(self, *items):
        self.outcomes.append(repr(items))


def _exact_mix(mix, total):
    """Op kinds in the exact proportions of ``mix`` (largest remainder)."""
    weight = sum(w for _, w in mix)
    counts = {k: total * w // weight for k, w in mix}
    order = sorted(mix, key=lambda kw: -(total * kw[1] % weight))
    for kind, _ in order[:total - sum(counts.values())]:
        counts[kind] += 1
    return counts


def _spread(mix, total):
    """A fixed schedule of op kinds in the exact proportions of ``mix``,
    each kind spaced evenly through the sequence."""
    slots = []
    for rank, (kind, count) in enumerate(_exact_mix(mix, total).items()):
        slots += [((i + 0.5) / count, rank, kind) for i in range(count)]
    return [kind for _, _, kind in sorted(slots)]


def fresh_import(module):
    """Have a fresh interpreter import ``module``: the set-up a user pays
    before ``python -m repro.eval`` or fleetbench runs (the caller's
    set-up timer measures it)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    subprocess.run([sys.executable, "-c", "import " + module], env=env,
                   check=True, timeout=120)


# -- guest_run ----------------------------------------------------------------

WORKER_GFN = 16
#: guest -> (worker pages, guest frames, SessionServer state gfn).  The
#: hot worker's 48 pages (3072 lines) fit the 4096-line plaintext cache;
#: the big one's 192 pages do not.
GUESTS = {"hot": (48, 80, 70), "big": (192, 224, 210)}
_PATTERN = bytes(range(256)) * (PAGE_SIZE // 256)


class _GuestModel:
    """What one guest's worker pages and request counter must hold."""

    def __init__(self, pages):
        self.pages = [bytearray(_PATTERN) for _ in range(pages)]
        self.requests = 0

    def round(self):
        digests = [hashlib.sha256(p).digest() for p in self.pages]
        for page, digest in zip(self.pages, digests):
            page[:len(digest)] = digest
        return hashlib.sha256(b"".join(digests)).hexdigest()

    def access(self, gpa, data):
        page = self.pages[gpa // PAGE_SIZE - WORKER_GFN]
        off = gpa % PAGE_SIZE
        if data is None:
            return bytes(page[off:off + LINE])
        page[off:off + LINE] = data
        return None

    def request(self):
        self.requests += 1
        return self.requests


@dataclasses.dataclass
class _Guest:
    name: str
    ctx: object
    worker: object
    server: object
    model: _GuestModel


class GuestRun:
    """One Fidelius host, two protected guests, a fixed step schedule.

    The kinds follow a fixed, evenly spaced schedule; requests
    alternate between the guests, and single-line accesses (to distinct
    lines of the hot worker) alternate between reads and writes.  The
    seed picks the lines and the data written.  A round's wall-clock
    cost depends on which lines the plaintext and keystream caches hold
    when it starts, so a seeded kind order, or seeded accesses into the
    big worker, would move the timings from seed to seed: the hot
    worker's lines are all evicted by a big round and all cached again
    by a hot round, so which accesses hit is fixed by the schedule.
    Sorted by latency the kinds form blocks — access (0-15%), request
    (15-30%), hot_round (30-85%), big_round (85-100%) — so p50 sits
    inside the hot rounds and p95 inside the big ones.  The weights are
    chosen for that placement; no measured traffic backs them.
    """

    name = "guest_run"
    kinds = ("access", "request", "hot_round", "big_round")
    MIX = (("access", 15), ("request", 15), ("hot_round", 55),
           ("big_round", 15))
    WARMUP = (("round", "hot"), ("round", "big"),
              ("access", "hot", WORKER_GFN * PAGE_SIZE, None),
              ("access", "big", WORKER_GFN * PAGE_SIZE, None),
              ("request", "hot"), ("request", "big"))

    def __init__(self, steps=300):
        self.steps = steps

    def generate(self, seed):
        rng = random.Random(seed)
        kinds = _spread(self.MIX, self.steps)
        hot_lines = GUESTS["hot"][0] * (PAGE_SIZE // LINE)
        lines = iter(rng.sample(range(hot_lines), kinds.count("access")))
        steps = []
        seen = {}
        for kind in kinds:
            nth = seen[kind] = seen.get(kind, -1) + 1
            if kind.endswith("_round"):
                steps.append(("round", kind[:-len("_round")]))
            elif kind == "request":
                steps.append(("request", ("hot", "big")[nth % 2]))
            else:
                gpa = WORKER_GFN * PAGE_SIZE + next(lines) * LINE
                data = rng.randbytes(LINE) if nth % 2 else None
                steps.append(("access", "hot", gpa, data))
        owners = {g: rng.getrandbits(32) for g in sorted(GUESTS)}
        return {"steps": steps, "owner_seeds": owners}

    def setup(self, inputs, warm):
        host = system_mod.System.create(fidelius=True)
        guests = {}
        for name in sorted(GUESTS):
            pages, frames, server_gfn = GUESTS[name]
            owner = lifecycle.GuestOwner(seed=inputs["owner_seeds"][name])
            _domain, ctx = host.boot_protected_guest(
                name, owner, payload=name.encode(), guest_frames=frames)
            worker = guestprogs.CryptoWorker(
                ctx, first_gfn=WORKER_GFN, pages=pages, batched=True)
            server = guestprogs.SessionServer(ctx, state_gfn=server_gfn)
            ctx.hypercall(hc.HC_SCHED_YIELD)
            guests[name] = _Guest(name, ctx, worker, server,
                                  _GuestModel(pages))
        state = {"host": host, "guests": guests, "current": None}
        for step in self.WARMUP:
            self._step(state, step, warm)
        return state

    def run(self, state, inputs, rnd):
        for step in inputs["steps"]:
            self._step(state, step, rnd)

    @staticmethod
    def _kind(step):
        if step[0] == "round":
            return step[1] + "_round"
        return step[0]

    def _step(self, state, step, rnd):
        guest = state["guests"][step[1]]
        previous = state["current"]
        state["current"] = guest
        switch = previous is not None and previous is not guest

        def go():
            if switch:   # hand the CPU over, as a scheduler would
                previous.ctx.hypercall(hc.HC_SCHED_YIELD)
            if step[0] == "round":
                return guest.worker.round()
            if step[0] == "request":
                return guest.server.handle_request()
            gpa, data = step[2], step[3]
            if data is None:
                return guest.ctx.read(gpa, LINE)
            guest.ctx.write(gpa, data)
            return None

        kind = self._kind(step)
        failures = len(rnd.failed_ops)
        result = rnd.op(kind, go)
        if step[0] == "round":
            expected = guest.model.round()
        elif step[0] == "request":
            expected = guest.model.request()
        else:
            expected = guest.model.access(step[2], step[3])
        if len(rnd.failed_ops) == failures:
            rnd.check(result == expected,
                      "%s on %s: got %r, model says %r"
                      % (kind, guest.name, result, expected))
        rnd.record(kind, guest.name, result)


# -- tenant_churn -------------------------------------------------------------

class TenantChurn:
    """A 3-host Cloud under a seeded life-cycle mix with refused boots.

    Sorted by latency: attest and shutdown (0-25%) are light; migrate,
    launch and refused_boot each run DH and SEV commands, migrations
    (25-75%) a little faster than the two kinds that boot a guest
    (75-100%), so p50 sits among the migrations and p95 among the boots.
    The weights are chosen for that placement; no measured traffic
    backs them.
    """

    name = "tenant_churn"
    kinds = ("launch", "migrate", "attest", "shutdown", "refused_boot")
    MIX = (("attest", 10), ("shutdown", 15), ("launch", 15),
           ("migrate", 50), ("refused_boot", 10))
    HOSTS = 3
    LIVE_CAP = 8
    GUEST_FRAMES = 48

    def __init__(self, ops=60):
        self.ops = ops

    @staticmethod
    def _feasible(kind, live, remaining, cap):
        if kind == "launch":
            return len(live) < cap
        if kind == "shutdown":
            return len(live) > 1 or (len(live) == 1
                                     and remaining["migrate"] == 0)
        if kind == "migrate":
            return len(live) >= 1
        return True

    def generate(self, seed):
        rng = random.Random(seed)
        remaining = _exact_mix(self.MIX, self.ops)
        live = []
        ops = []
        while any(remaining.values()):
            valid = [k for k, _ in self.MIX if remaining[k]
                     and self._feasible(k, live, remaining, self.LIVE_CAP)]
            if not valid:
                raise RuntimeError("tenant_churn op generator is stuck")
            kind = rng.choices(valid, [remaining[k] for k in valid])[0]
            remaining[kind] -= 1
            if kind == "launch":
                name = "t%d" % len(ops)
                live.append(name)
                ops.append(("launch", name, rng.getrandbits(32),
                            rng.randbytes(rng.randrange(64, 512))))
            elif kind == "shutdown":
                ops.append(("shutdown", live.pop(rng.randrange(len(live)))))
            elif kind == "migrate":
                ops.append(("migrate", rng.choice(live)))
            elif kind == "attest":
                ops.append(("attest", rng.randrange(self.HOSTS)))
            else:
                ops.append(("refused_boot", rng.randrange(self.HOSTS),
                            rng.getrandbits(32), rng.randbytes(64),
                            rng.randrange(8, PAGE_SIZE - 8)))
        return {"ops": ops}

    def setup(self, inputs, warm):
        fleet = cloud_mod.Cloud(hosts=self.HOSTS)
        owners = {}
        for op in inputs["ops"]:
            if op[0] == "launch":
                owners[op[1]] = lifecycle.GuestOwner(seed=op[2])
            elif op[0] == "refused_boot":
                owners[op[2]] = lifecycle.GuestOwner(seed=op[2])
        return {"cloud": fleet, "owners": owners, "payloads": {}}

    def run(self, state, inputs, rnd):
        for op in inputs["ops"]:
            getattr(self, "_" + op[0])(state, op, rnd)
            fleet = state["cloud"]
            names = sorted(n for ns in fleet.inventory().values() for n in ns)
            rnd.check(names == sorted(state["payloads"]),
                      "inventory %r, model %r" % (names,
                                                  sorted(state["payloads"])))

    @staticmethod
    def _read_back(rnd, tenant, payload):
        got = lifecycle.read_kernel_payload(tenant.ctx, len(payload))
        tenant.ctx.hypercall(hc.HC_SCHED_YIELD)
        rnd.check(got == payload, "tenant %s payload read back wrong"
                  % tenant.name)

    def _launch(self, state, op, rnd):
        _, name, _owner_seed, payload = op
        tenant = rnd.op("launch", state["cloud"].launch_tenant, name,
                        state["owners"][name], payload, self.GUEST_FRAMES)
        if tenant is None:
            return
        state["payloads"][name] = payload
        self._read_back(rnd, tenant, payload)
        rnd.record("launch", name, tenant.host_index)

    def _migrate(self, state, op, rnd):
        name = op[1]
        before = state["cloud"].tenants[name].host_index
        tenant = rnd.op("migrate", state["cloud"].migrate_tenant, name)
        if tenant is None:
            return
        rnd.check(tenant.host_index != before,
                  "migrate %s stayed on host %d" % (name, before))
        self._read_back(rnd, tenant, state["payloads"][name])
        rnd.record("migrate", name, before, tenant.host_index)

    def _attest(self, state, op, rnd):
        ok = rnd.op("attest", state["cloud"].attest_host, op[1])
        rnd.check(ok is True, "honest host %d failed attestation" % op[1])
        rnd.record("attest", op[1], ok)

    def _shutdown(self, state, op, rnd):
        name = op[1]
        rnd.op("shutdown", state["cloud"].shutdown_tenant, name)
        state["payloads"].pop(name, None)
        rnd.check(name not in state["cloud"].tenants,
                  "tenant %s survived shutdown" % name)
        rnd.record("shutdown", name)

    def _refused_boot(self, state, op, rnd):
        _, index, owner_seed, payload, offset = op
        host = state["cloud"].host(index)
        tamper = self._tamper(host, offset)

        def boot():
            try:
                domain, _ctx = host.boot_protected_guest(
                    "evil%d" % owner_seed, state["owners"][owner_seed],
                    payload=payload, guest_frames=self.GUEST_FRAMES,
                    tamper=tamper)
            except SevError:
                return "refused"
            host.hypervisor.destroy_domain(domain)
            return "booted"

        before = self._boot_state(host)
        outcome = rnd.op("refused_boot", boot)
        rnd.check(outcome == "refused",
                  "tampered boot on host %d was not refused" % index)
        if outcome == "refused":
            after = self._boot_state(host)
            rnd.check(after[:2] == before[:2] and after[2] == before[2] + 1,
                      "refused boot on host %d left state behind: %r -> %r"
                      % (index, before, after))
        rnd.record("refused_boot", index, outcome)

    @staticmethod
    def _tamper(host, offset):
        """The boot hook of a refused boot: flip one byte the hypervisor
        loaded into the guest's first frame."""
        def tamper(machine, domain):
            pa = host.hypervisor.guest_frame_hpfn(domain, 0) * PAGE_SIZE
            byte = machine.memctrl.dma_read(pa + offset, 1)
            machine.memctrl.dma_write(pa + offset, bytes([byte[0] ^ 0xFF]))
        return tamper

    @staticmethod
    def _boot_state(host):
        return (sorted(host.hypervisor.domains),
                host.firmware.handles(),
                host.fidelius.audit_kinds().count("boot-integrity-failure"))


# -- paper_artefacts ------------------------------------------------------------

ARTEFACTS = ("fig5", "fig6", "table3", "micro")
_ARTEFACT_FNS = {
    "fig5": lambda: export.figure_rows("fig5"),
    "fig6": lambda: export.figure_rows("fig6"),
    "table3": lambda: export.table3_rows(),
    "micro": lambda: export.micro_rows(),
}


def committed_rows(name):
    with open(ROOT / "eval-output" / (name + ".json")) as fh:
        return json.load(fh)


class PaperArtefacts:
    """Fig. 5, Fig. 6, Table 3 and the micro rows, each run cold.

    The artefacts use their own fixed seeds; the benchmark seed only
    permutes the order they run in.  Each starts with empty keystream
    caches and no garbage left by the one before, as a fresh
    ``python -m repro.eval <artefact>`` would.
    """

    name = "paper_artefacts"
    kinds = ARTEFACTS

    def __init__(self, artefacts=ARTEFACTS, expected=None):
        self.artefacts = tuple(artefacts)
        self.expected = expected

    def generate(self, seed):
        order = list(self.artefacts)
        random.Random(seed).shuffle(order)
        return {"order": order}

    def setup(self, inputs, warm):
        fresh_import("repro.eval.export")
        expected = self.expected
        if expected is None:
            expected = {name: committed_rows(name) for name in self.artefacts}
        return {"expected": expected}

    def run(self, state, inputs, rnd):
        produced = {}
        for name in inputs["order"]:
            crypto.clear_keystream_cache()
            gc.collect()
            rows = rnd.op(name, _ARTEFACT_FNS[name])
            if rows is None:
                continue
            rows = json.loads(json.dumps(rows))   # as the export writes them
            produced[name] = rows
            rnd.check(rows == state["expected"][name],
                      "%s rows differ from eval-output/%s.json"
                      % (name, name))
            rnd.record(name, json.dumps(rows, sort_keys=True))
        if all(name in produced for name in ("fig5", "fig6", "table3")):
            rnd.extra["paper_err_pp"] = paper.paper_err_pp(produced)


# -- fleet_campaign -------------------------------------------------------------

def committed_fleet_digest():
    with open(ROOT / "BENCH_fleet.json") as fh:
        return json.load(fh)["fleet"]["digest"]


class FleetCampaign:
    """fleetbench's ``full`` campaign at its own seed, serial, no
    lockstep, checked against ``BENCH_fleet.json``.

    The campaign goes through the public functions ``run_fleet``
    composes — ``region_specs``, ``drive_region`` per region,
    ``summarize`` — so one region drive is one timed op: a region takes
    tens of milliseconds, short enough for its least time to come from
    the host's quiet moments, where the whole campaign takes seconds.
    An op's ``ops`` are the region's fleet events, so ``ops_per_s``
    counts events.  Regions are independent; the benchmark seed only
    permutes the order they are driven in.
    """

    name = "fleet_campaign"
    kinds = ("region",)

    def __init__(self, spec=None, expected_digest=None):
        self.spec = spec or fleetbench.PROFILES["full"]
        self.expected_digest = expected_digest

    def generate(self, seed):
        order = list(range(self.spec.regions))
        random.Random(seed).shuffle(order)
        return {"order": order}

    def setup(self, inputs, warm):
        fresh_import("repro.eval.fleetbench")
        expected = self.expected_digest
        if expected is None:
            expected = committed_fleet_digest()
        return {"expected": expected}

    def run(self, state, inputs, rnd):
        regions = scenarios.region_specs(self.spec)
        reports = {}
        for index in inputs["order"]:
            report = rnd.op("region", scenarios.drive_region, regions[index])
            if report is not None:
                rnd.timed[-1][2] = report.events
                reports[index] = report
        if len(reports) != len(regions):
            return
        summary = scenarios.summarize([reports[i] for i in sorted(reports)])
        totals = summary["metrics"]
        rnd.check(summary["survivors"] == totals["launches"]
                  - totals["shutdowns"] - totals["lost_guests"],
                  "the fleet campaign does not conserve guests")
        rnd.check(summary["digest"] == state["expected"],
                  "fleet digest %s differs from BENCH_fleet.json"
                  % summary["digest"])
        rnd.record("campaign", summary["digest"], summary["events"])
        rnd.extra["events"] = summary["events"]
        rnd.extra["virtual_ns"] = summary["virtual_ns"]


WORKLOADS = {
    "guest_run": GuestRun,
    "tenant_churn": TenantChurn,
    "paper_artefacts": PaperArtefacts,
    "fleet_campaign": FleetCampaign,
}
