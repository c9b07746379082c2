"""``repro.analysis`` — correctness tooling for the reproduction.

Two layers, both born out of the hot-path work (mempools, burst rings,
direct process wakes, the bare timer lane) that made the data plane
fast by making it easy to break silently:

**Static** (:mod:`repro.analysis.lint`): an AST lint pass with
repo-specific rules — no wall clock or ambient randomness inside the
simulation, integer nanoseconds only, ``__slots__`` on hot-path
classes, no blocking IO in NF handlers, balanced packet-buffer
hand-offs, no mutation of flow-table dicts while iterating, and the
NF001–NF003 action-profile consistency checks.  The CLI lives in
``tools/sdnfv_lint.py`` and runs as a blocking CI gate; the repo must
pass its own lint clean.

**Profiles** (:mod:`repro.analysis.profiles`): the AST action-profile
extractor — per-NF header-field read/write sets, drop/send/message
capabilities, and the pairwise conflict relation that powers
``ServiceGraph.auto_parallel_layout()``, the manager's parallel merge
stage, and the NF-family lint rules.

**Dynamic** (:mod:`repro.analysis.ownership`): an opt-in instrumented
mode (``NfvHost(..., verify=True)``) that wraps the packet pool, ring
buffers, NIC ports, and flow-table writes with an ownership ledger —
which component holds each buffer at every instant — and flags
double-releases, use-after-release, leaked buffers, and conflicting
flow-entry writes, closing each run with a packet-conservation audit.

Each layer is imported from its own module; this package re-exports
nothing, so importing the dynamic layer loads neither the lint engine
nor the profile extractor.
"""
