"""Which simulator code belongs to which layer, for spans and for cycles.

Two maps live here:

* :data:`LAYER_TARGETS` — the public functions and classes whose calls
  the traced run records as spans, grouped by the layer name used in
  the per-layer metrics (``hw.memctrl.self_s`` and so on).  Code that is
  not listed (for example ``repro.hw.memory`` or ``repro.xen.npt``)
  is charged to the nearest listed caller.
* :data:`REASON_LAYERS` — every :class:`~repro.hw.cycles.CycleCounter`
  reason the simulator charges, mapped to the layer that charges it, so
  ``sim.<layer>.cycles`` is exact.  A reason that matches no pattern,
  or the counter's ``"unattributed"`` default, fails the run.
"""

import fnmatch

LAYER_TARGETS = {
    "hw.memctrl": [("repro.hw.memctrl", "MemoryController"),
                   ("repro.hw.memctrl", "ReferenceMemoryController")],
    "hw.pagetable": [("repro.hw.pagetable", "PageTableWalker")],
    "hw.tlb": [("repro.hw.tlb", "Tlb")],
    "crypto.keystream": [("repro.common.crypto", name) for name in (
        "line_keystream_int", "span_keystream_int", "keystream",
        "xex_line_encrypt", "xex_encrypt")],
    "crypto.dh": [("repro.common.crypto", "DiffieHellman.__init__"),
                  ("repro.common.crypto", "DiffieHellman.shared_secret")],
    "sev.firmware": [("repro.sev.firmware", "SevFirmware")],
    "xen.hypervisor": [("repro.xen.hypervisor", "Hypervisor")],
    "xen.domain": [("repro.xen.domain", "GuestContext"),
                   ("repro.xen.domain", "Domain")],
    "xen.pv_io": [("repro.xen.pv_io.frontend", "BlockFrontend"),
                  ("repro.xen.pv_io.frontend", "connect_block_device"),
                  ("repro.xen.pv_io.backend", "BlockBackend"),
                  ("repro.xen.pv_io.backend", "BlockBackend._on_kick"),
                  ("repro.xen.pv_io.disk", "VirtualDisk")],
    "core.shadow": [("repro.core.shadow", "ShadowKeeper")],
    "core.gates": [("repro.core.gates", "GateKeeper")],
    "core.attestation": [
        ("repro.core.attestation", "AttestationAuthority"),
        ("repro.core.attestation", "RemoteVerifier"),
        ("repro.core.attestation", "QuoteVerifier.__call__"),
        ("repro.core.attestation", "golden_measurements")],
    "core.io_protect": [("repro.core.io_protect", "AesNiIoEncoder"),
                        ("repro.core.io_protect", "SevApiIoEncoder")],
    "core.lifecycle": [("repro.core.lifecycle", "GuestOwner"),
                       ("repro.core.lifecycle", "boot_protected_guest")],
    "core.migration": [("repro.core.migration", name) for name in (
        "migrate_guest", "send_guest", "receive_guest", "cancel_send",
        "snapshot_guest", "restore_guest")],
    "core.fidelius": [("repro.core.fidelius", "Fidelius")],
    "workloads.tracegen": [("repro.workloads.tracegen", "simulate_misses")],
    "workloads.fio": [("repro.workloads.fio", "FioRunner"),
                      ("repro.workloads.fio", "DiskTimingModel")],
    "workloads.guestprogs": [("repro.workloads.guestprogs", "CryptoWorker"),
                             ("repro.workloads.guestprogs",
                              "SessionServer")],
    "system": [("repro.system", "System")],
    "cloud": [("repro.cloud", "Cloud")],
    "fleet.events": [("repro.fleet.events", "EventQueue")],
    "fleet.policies": [("repro.fleet.policies", name) for name in (
        "CapacityIndex", "PlacementPolicy", "SpreadPolicy",
        "BinPackingPolicy", "AffinityPolicy", "make_policy")],
    "fleet.model": [("repro.fleet.model", "FleetModel")],
    "fleet.scenarios": [("repro.fleet.scenarios", name) for name in (
        "run_fleet", "region_specs", "build_region", "schedule_scenario",
        "drive_region", "summarize")],
    "runner": [("repro.runner.executor", "execute"),
               ("repro.runner.merge", "digest"),
               ("repro.runner.merge", "deterministic_digest"),
               ("repro.runner.plan", "WorkUnit.call")],
    "eval": [("repro.eval.export", "figure_rows"),
             ("repro.eval.export", "table3_rows"),
             ("repro.eval.export", "micro_rows"),
             ("repro.eval.macro", "run_figure"),
             ("repro.eval.macro", "evaluate_profile"),
             ("repro.eval.macro", "average_overheads"),
             ("repro.eval.micro", "gate_cost_benchmark"),
             ("repro.eval.micro", "shadow_cost_benchmark"),
             ("repro.eval.micro", "crypto_copy_benchmark"),
             ("repro.eval.fio_table", "run_table3")],
}

#: The workload on which each layer does most of its work.  The traced
#: run fails if a layer records no call there: its wrappers were
#: bypassed (a cached bound method, a dispatch table, a renamed API).
HOME_WORKLOAD = {
    "hw.memctrl": "guest_run",
    "hw.pagetable": "tenant_churn",
    "hw.tlb": "guest_run",
    "crypto.keystream": "guest_run",
    "crypto.dh": "tenant_churn",
    "sev.firmware": "tenant_churn",
    "xen.hypervisor": "guest_run",
    "xen.domain": "guest_run",
    "xen.pv_io": "paper_artefacts",
    "core.shadow": "guest_run",
    "core.gates": "tenant_churn",
    "core.attestation": "tenant_churn",
    "core.io_protect": "paper_artefacts",
    "core.lifecycle": "tenant_churn",
    "core.migration": "tenant_churn",
    "core.fidelius": "tenant_churn",
    "workloads.tracegen": "paper_artefacts",
    "workloads.fio": "paper_artefacts",
    "workloads.guestprogs": "guest_run",
    "system": "tenant_churn",
    "cloud": "tenant_churn",
    "fleet.events": "fleet_campaign",
    "fleet.policies": "fleet_campaign",
    "fleet.model": "fleet_campaign",
    "fleet.scenarios": "fleet_campaign",
    "runner": "paper_artefacts",
    "eval": "paper_artefacts",
}

#: (pattern, layer), first match wins.  ``boot``, ``xen-boot``,
#: ``mov-cr3*``, ``fidelius-*`` and ``io-*`` are the TLB-flush and I/O
#: encoder reasons the four-pattern summary leaves out.
REASON_LAYERS = (
    ("mem-*", "hw"),
    ("dma-*", "hw"),
    ("pt-walk", "hw"),
    ("tlb-*", "hw"),
    ("boot", "hw"),
    ("mov-cr3", "hw"),
    ("mov-cr3-rollback", "hw"),
    ("vmexit-roundtrip", "xen"),
    ("hypercall", "xen"),
    ("npt-fill", "xen"),
    ("xen-boot", "xen"),
    ("shadow-*", "core"),
    ("gate*", "core"),
    ("cr3-switch-gate", "core"),
    ("attest", "core"),
    ("fidelius-*", "core"),
    ("io-*", "core"),
    ("disk-device", "workloads"),
)

SIM_LAYERS = ("hw", "xen", "core", "workloads")


def reason_layer(reason):
    """The layer charging ``reason``, or None if it is unmapped."""
    if reason == "unattributed":
        return None
    for pattern, layer in REASON_LAYERS:
        if fnmatch.fnmatchcase(reason, pattern):
            return layer
    return None
