"""Fleet orchestration: a multi-host Fidelius cloud.

A thin control plane over :class:`~repro.system.System` that does what a
tenant-facing cloud of Fidelius hosts would do:

* attest every host before placing anything on it (Section 4.3.1's
  remote-attestation use of the measurements);
* place tenants on the least-loaded attested host;
* migrate tenants between hosts over the SEND/RECEIVE transport;
* evacuate a host (e.g. for maintenance) by migrating everything off it.

Tenant identity survives migration: the :class:`Tenant` handle tracks
where its domain currently lives.

The control plane fails closed.  Hosts that fail attestation are
quarantined (no further placement or migration targets until an operator
lifts the quarantine); migrations retry across attested hosts with the
failed ones excluded, and a tenant whose operation cannot complete stays
where it was — :func:`~repro.core.migration.migrate_guest` guarantees
the source is intact and re-enterable after any target-side failure.
Every failure is recorded in :attr:`Cloud.events` for the operator.
"""

import bisect
from collections import deque
from dataclasses import dataclass, field

from repro.common import crypto
from repro.common.errors import ReproError
from repro.core.attestation import (
    AttestationAuthority,
    RemoteVerifier,
    golden_measurements,
)
from repro.core.migration import migrate_guest
from repro.system import System


@dataclass
class Tenant:
    """One tenant's running guest, wherever it currently lives."""

    name: str
    owner: object
    host_index: int
    domain: object = field(repr=False)
    ctx: object = field(repr=False)


class Cloud:
    """A fleet of identically built Fidelius hosts."""

    #: default ring-buffer capacity for :attr:`events`
    DEFAULT_EVENT_LOG_LIMIT = 4096

    def __init__(self, hosts=2, frames=4096, seed=0xC10D,
                 event_log_limit=DEFAULT_EVENT_LOG_LIMIT):
        if hosts < 1:
            raise ReproError("a cloud needs at least one host")
        self.hosts = [System.create(fidelius=True, frames=frames,
                                    seed=seed + i) for i in range(hosts)]
        self._authorities = [AttestationAuthority(h.machine)
                             for h in self.hosts]
        # All hosts run the same build: host 0's measurements are the
        # fleet's golden values (the distributor's reference).
        golden_fid, golden_xen = golden_measurements(self.hosts[0])
        self._verifiers = [
            RemoteVerifier(golden_fid, golden_xen,
                           authority.public_verifier())
            for authority in self._authorities
        ]
        self.tenants = {}
        #: Hosts failed closed: no placements or migration targets until
        #: an operator calls :meth:`lift_quarantine`.
        self.quarantined = set()
        #: Operator-visible record of failure and recovery steps — a
        #: ring buffer (long soaks otherwise grow it without bound).
        #: Only the newest ``event_log_limit`` events are retained;
        #: :attr:`events_recorded` keeps the lifetime total.
        self.events = deque(maxlen=event_log_limit)
        self.events_recorded = 0
        #: tenants-per-host, O(1) to read (placement used to recount
        #: every tenant per candidate host)
        self._loads = [0] * hosts
        #: sorted ``(load, host index)`` over non-quarantined hosts —
        #: the head is always the least-loaded admissible candidate, so
        #: placement is an index walk instead of a fleet scan, and the
        #: bisect updates on launch/migrate/shutdown are O(log n)
        self._load_index = [(0, i) for i in range(hosts)]
        #: host index -> (staleness probe, cached perf contribution)
        self._perf_cache = {}
        self._perf_totals = None

    def __len__(self):
        return len(self.hosts)

    def host(self, index):
        return self.hosts[index]

    def authority(self, index):
        """Host ``index``'s hardware quote engine."""
        return self._authorities[index]

    def _record(self, kind, **details):
        self.events_recorded += 1
        self.events.append((kind, details))

    def event_kinds(self):
        """Kinds of the retained (newest) events, oldest first."""
        return [kind for kind, _ in self.events]

    @property
    def events_dropped(self):
        """How many old events the ring buffer has already evicted."""
        return self.events_recorded - len(self.events)

    @staticmethod
    def _perf_probe(machine):
        """A five-integer staleness probe for one host's perf state.

        Sound because every memory-controller fast-path counter mutates
        only on cycle-charging paths, every TLB hit/miss/eviction is one
        of the probed counters, and the only zero-cycle TLB mutation
        with observable perf output (``new_incarnation``) changes the
        live-entry count.  A probe match therefore means the host's
        cached contribution is still exact.
        """
        tlb = machine.tlb
        return (machine.cycles.total, tlb.hits, tlb.misses,
                tlb.evictions, len(tlb))

    @staticmethod
    def _perf_contribution(stats):
        """One host's summable share of the fleet totals."""
        host_tlb = stats["tlb"]
        return {
            "memctrl": dict(stats["memctrl"]),
            "tlb": {
                "hits": host_tlb["hits"],
                "misses": host_tlb["misses"],
                "evictions": host_tlb["evictions"],
                "entries": host_tlb["entries"],
                "roots": host_tlb["roots"],
                "root_index_entries": sum(
                    host_tlb["root_index_sizes"].values()),
            },
        }

    def perf_stats(self):
        """Fleet-wide simulator fast-path counters, one call per cloud.

        Sums every host's :meth:`~repro.hw.machine.Machine.perf_stats`
        hierarchy counters — incrementally: each host's contribution is
        cached against a cheap staleness probe (:meth:`_perf_probe`),
        and only hosts whose probe moved are re-walked, their old
        contribution subtracted and the fresh one added to integer-exact
        running totals.  A quiescent fleet answers in O(hosts) probe
        reads instead of O(hosts) full counter walks; the result is
        defined to equal the full re-summation.

        The keystream cache is process-global (one cache serves every
        machine), so it is reported once rather than summed; the TLBs'
        per-root occupancy maps collapse into a total entry count (root
        PFNs are meaningless across hosts).
        """
        if self._perf_totals is None:
            self._perf_totals = {
                "memctrl": {},
                "tlb": {"hits": 0, "misses": 0, "evictions": 0,
                        "entries": 0, "roots": 0,
                        "root_index_entries": 0},
            }
        totals = self._perf_totals
        for index, host in enumerate(self.hosts):
            probe = self._perf_probe(host.machine)
            cached = self._perf_cache.get(index)
            if cached is not None and cached[0] == probe:
                continue
            fresh = self._perf_contribution(host.machine.perf_stats())
            if cached is not None:
                stale = cached[1]
                for key, value in stale["memctrl"].items():
                    totals["memctrl"][key] -= value
                for key, value in stale["tlb"].items():
                    totals["tlb"][key] -= value
            for key, value in fresh["memctrl"].items():
                totals["memctrl"][key] = \
                    totals["memctrl"].get(key, 0) + value
            for key, value in fresh["tlb"].items():
                totals["tlb"][key] += value
            self._perf_cache[index] = (probe, fresh)
        return {
            "hosts": len(self.hosts),
            "keystream_cache": crypto.keystream_cache_stats(),
            "memctrl": dict(totals["memctrl"]),
            "tlb": dict(totals["tlb"]),
            "events": {
                "recorded": self.events_recorded,
                "retained": len(self.events),
                "dropped": self.events_dropped,
            },
        }

    # -- attestation -------------------------------------------------------------

    def attest_host(self, index):
        """True if host ``index`` passes remote attestation right now.

        A host that fails is quarantined on the spot — fail closed: a
        single bad quote mid-operation removes the host from the
        placement pool until an operator investigates.

        An index outside the fleet raises ``ReproError`` before any
        state changes; ``launch_tenant``, ``migrate_tenant`` and
        ``lift_quarantine`` rely on this check (a negative index would
        otherwise alias a real host).
        """
        if index not in range(len(self.hosts)):
            raise ReproError("no host %r in a %d-host cloud"
                             % (index, len(self.hosts)))
        if index in self.quarantined:
            return False
        host = self.hosts[index]
        verifier = self._verifiers[index]
        nonce = verifier.fresh_nonce(host.machine.rng)
        quote = self._authorities[index].quote(host.fidelius, nonce)
        reason = verifier.explain(quote, nonce)
        if reason is None:
            return True
        self.quarantined.add(index)
        self._index_discard(index)
        self._record("host-quarantined", host=index, reason=reason)
        return False

    def lift_quarantine(self, index):
        """Operator override: re-admit a host if it attests cleanly now.

        Both outcomes land in the event log — an operator replaying the
        audit trail must see every lift *attempt*, not just the ones
        that stuck (``attest_host`` also records the re-quarantine, so
        a rejected lift shows up as the pair).
        """
        self.quarantined.discard(index)
        ok = self.attest_host(index)
        if ok:
            self._index_add(index)
            self._record("quarantine-lifted", host=index)
        else:
            self._record("quarantine-lift-rejected", host=index)
        return ok

    def attested_hosts(self):
        return [i for i in range(len(self.hosts)) if self.attest_host(i)]

    # -- placement ----------------------------------------------------------------

    def _load(self, index):
        return self._loads[index]

    def _index_add(self, index):
        entry = (self._loads[index], index)
        at = bisect.bisect_left(self._load_index, entry)
        if at < len(self._load_index) and self._load_index[at] == entry:
            return
        self._load_index.insert(at, entry)

    def _index_discard(self, index):
        entry = (self._loads[index], index)
        at = bisect.bisect_left(self._load_index, entry)
        if at < len(self._load_index) and self._load_index[at] == entry:
            del self._load_index[at]

    def _shift_load(self, index, delta):
        """Move one host's tenant count, re-keying its index entry (a
        quarantined host has no entry; only its count moves)."""
        quarantined = index in self.quarantined
        if not quarantined:
            self._index_discard(index)
        self._loads[index] += delta
        if not quarantined:
            self._index_add(index)

    def pick_host(self, exclude=()):
        """The least-loaded host that passes attestation.

        Walks the sorted load index from the head, so the first
        non-excluded host that attests cleanly *is* the answer (ties
        break to the lowest host index, as the old full scan's ``min``
        did).  Hosts are attested lazily in candidate order; one that
        fails is quarantined on the spot — which removes its entry, so
        the same position holds the next candidate.
        """
        at = 0
        while at < len(self._load_index):
            load, index = self._load_index[at]
            if index in exclude:
                at += 1
                continue
            if self.attest_host(index):
                return index
            if (at < len(self._load_index)
                    and self._load_index[at] == (load, index)):
                at += 1      # entry survived the failed attestation
        raise ReproError("no host in the fleet passes attestation")

    def launch_tenant(self, name, owner, payload=b"", guest_frames=48,
                      host_index=None):
        """Attest, place, and boot a tenant from its encrypted image."""
        if name in self.tenants:
            raise ReproError("tenant %r already exists" % name)
        index = self.pick_host() if host_index is None else host_index
        if host_index is not None and not self.attest_host(host_index):
            raise ReproError("host %d fails attestation" % host_index)
        host = self.hosts[index]
        domain, ctx = host.boot_protected_guest(
            name, owner, payload=payload, guest_frames=guest_frames)
        tenant = Tenant(name, owner, index, domain, ctx)
        self.tenants[name] = tenant
        self._shift_load(index, +1)
        return tenant

    # -- mobility -------------------------------------------------------------------

    def _migrate_once(self, tenant, to_host_index):
        """One migration attempt; updates the tenant only on success.

        On failure the two-phase ``migrate_guest`` has already restored
        the source, so the tenant handle stays valid where it is; the
        failed target is re-attested (quarantining it if its quotes have
        gone bad mid-operation) and the error propagates to the retry
        loop or the caller.
        """
        source = self.hosts[tenant.host_index]
        target = self.hosts[to_host_index]
        try:
            domain, ctx = migrate_guest(source.fidelius, tenant.domain,
                                        target.fidelius)
        except ReproError as exc:
            self._record("migrate-failed", tenant=tenant.name,
                         source=tenant.host_index, target=to_host_index,
                         reason=str(exc))
            self.attest_host(to_host_index)
            raise
        self._shift_load(tenant.host_index, -1)
        self._shift_load(to_host_index, +1)
        tenant.host_index = to_host_index
        tenant.domain = domain
        tenant.ctx = ctx
        return tenant

    def migrate_tenant(self, name, to_host_index=None, retries=2):
        """Move a tenant; its handle keeps working afterwards.

        With an explicit destination this is a single fail-closed
        attempt.  With ``to_host_index=None`` the destination is chosen
        from the attested pool and retried up to ``retries`` further
        times, excluding hosts that already failed; if every candidate
        fails, the error propagates with the tenant still running on its
        original host.
        """
        tenant = self.tenants[name]
        if to_host_index is not None:
            if to_host_index == tenant.host_index:
                return tenant
            if not self.attest_host(to_host_index):
                raise ReproError("refusing to migrate onto an "
                                 "unattested host")
            return self._migrate_once(tenant, to_host_index)

        excluded = {tenant.host_index}
        last_error = None
        for _ in range(1 + retries):
            try:
                destination = self.pick_host(exclude=excluded)
            except ReproError:
                break
            try:
                return self._migrate_once(tenant, destination)
            except ReproError as exc:
                excluded.add(destination)
                last_error = exc
        raise last_error if last_error is not None else ReproError(
            "no attested destination for tenant %r" % name)

    def evacuate(self, host_index, retries=2):
        """Migrate every tenant off one host (maintenance drain).

        Each tenant is retried across the remaining attested hosts with
        failed destinations excluded.  If a tenant exhausts every
        candidate the drain stops with that tenant (and any not yet
        attempted) still intact on the source — never half-moved.
        """
        moved = []
        for tenant in list(self.tenants.values()):
            if tenant.host_index != host_index:
                continue
            excluded = {host_index}
            last_error = None
            for _ in range(1 + retries):
                try:
                    destination = self.pick_host(exclude=excluded)
                except ReproError:
                    break
                try:
                    self._migrate_once(tenant, destination)
                    moved.append(tenant.name)
                    last_error = None
                    break
                except ReproError as exc:
                    excluded.add(destination)
                    last_error = exc
            else:
                last_error = last_error or ReproError(
                    "evacuation retries exhausted")
            if tenant.host_index == host_index:
                self._record("evacuation-stalled", tenant=tenant.name,
                             host=host_index)
                raise last_error if last_error is not None else ReproError(
                    "nowhere to evacuate to")
        return moved

    # -- lifecycle ----------------------------------------------------------------------

    def shutdown_tenant(self, name):
        """Tear a tenant down; it is forgotten only once destroy succeeds."""
        tenant = self.tenants[name]
        host = self.hosts[tenant.host_index]
        host.hypervisor.destroy_domain(tenant.domain)
        del self.tenants[name]
        self._shift_load(tenant.host_index, -1)

    def inventory(self):
        """{host_index: [tenant names]} for every host."""
        out = {i: [] for i in range(len(self.hosts))}
        for tenant in self.tenants.values():
            out[tenant.host_index].append(tenant.name)
        return {i: sorted(names) for i, names in out.items()}
