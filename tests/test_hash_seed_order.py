"""Rule rewrites over several scopes do not depend on ``PYTHONHASHSEED``.

``SkipMe``, ``RequestMe`` and ``quarantine_service`` walk every scope of
the flow table and reinstall the rules they rewrite.  When a message
touches four scopes at once, the order of those installs shows in the
event log's ``rule_install`` records and, for per-flow rules, in the
order the rules enter the table.  Python salts ``str`` hashes per
process, so that order must not come from a set of scope names.

Each case builds one host whose scopes ``eth0``, ``a``, ``m`` and ``x``
all lead to the service being skipped, requested or quarantined, applies
the rewrite, and reports the event log and the table.  The test runs
every case in fresh interpreters under three hash seeds and requires
identical reports.  Print the report for one interpreter with::

    PYTHONPATH=src python -m tests.test_hash_seed_order
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

from repro.dataplane import FlowTableEntry, NfvHost, ToPort, ToService
from repro.dataplane.messages import RequestMe, SkipMe
from repro.metrics.eventlog import EventLog
from repro.net import FiveTuple, FlowMatch
from repro.nfs import NoOpNf
from repro.sim import Simulator

REPO = pathlib.Path(__file__).resolve().parent.parent
SCOPES = ("eth0", "a", "m", "x")
FLOW = FiveTuple("10.0.0.1", "10.0.0.2", 6, 1234, 80)


def _host(target: str, actions: tuple) -> tuple[NfvHost, EventLog]:
    """Scopes ``SCOPES`` each hold one wildcard rule with ``actions``;
    ``target`` forwards to ``eth1``."""
    sim = Simulator()
    host = NfvHost(sim, name="h0")
    log = EventLog(sim)
    host.manager.event_log = log
    for service in (*SCOPES[1:], target):
        host.add_nf(NoOpNf(service))
    for scope in SCOPES:
        host.install_rule(FlowTableEntry(scope=scope, match=FlowMatch.any(),
                                         actions=actions))
    host.install_rule(FlowTableEntry(scope=target, match=FlowMatch.any(),
                                     actions=(ToPort("eth1"),)))
    return host, log


def skip_me(flows: FlowMatch) -> tuple[NfvHost, EventLog]:
    host, log = _host("s", (ToService("s"),))
    host.manager.apply_message(SkipMe(sender_service="s", flows=flows,
                                      service="s"))
    return host, log


def request_me(flows: FlowMatch) -> tuple[NfvHost, EventLog]:
    host, log = _host("r", (ToPort("eth1"), ToService("r")))
    host.manager.apply_message(RequestMe(sender_service="r", flows=flows,
                                         service="r"))
    return host, log


def quarantine() -> tuple[NfvHost, EventLog]:
    host, log = _host("s", (ToService("s"),))
    host.manager.quarantine_service("s")
    return host, log


CASES = {
    "skip_me_wildcard": lambda: skip_me(FlowMatch.any()),
    "skip_me_exact": lambda: skip_me(FlowMatch.exact(FLOW)),
    "request_me_wildcard": lambda: request_me(FlowMatch.any()),
    "request_me_exact": lambda: request_me(FlowMatch.exact(FLOW)),
    "quarantine_service": quarantine,
}


def report(name: str) -> dict:
    """The case's event log and its table, rules in table order with the
    ids that show which rule was installed first."""
    host, log = CASES[name]()
    return {
        "log": [(event.timestamp_ns, event.category,
                 [(key, repr(value)) for key, value in event.detail])
                for event in log.events],
        "table": [(rule.entry_id, rule.scope, repr(rule.match),
                   repr(rule.actions))
                  for rule in host.flow_table.entries()],
    }


def observed() -> dict:
    return {name: report(name) for name in CASES}


def _run_under(seed: str) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = seed
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "tests.test_hash_seed_order"], cwd=REPO,
        env=env, capture_output=True, text=True, check=True)
    return json.loads(result.stdout)


def test_each_case_rewrites_every_scope():
    for name, run in observed().items():
        installs = [dict(detail)["scope"]
                    for _time, category, detail in run["log"]
                    if category == "rule_install"]
        # The set-up installs one rule per scope plus the target's.
        rewritten = installs[len(SCOPES) + 1:]
        assert sorted(rewritten) == sorted(repr(scope) for scope in SCOPES), \
            name


def test_rewrites_are_identical_under_three_hash_seeds():
    first, *others = (_run_under(seed) for seed in ("1", "2", "3"))
    for other in others:
        for name in CASES:
            assert other[name] == first[name], name


if __name__ == "__main__":
    print(json.dumps(observed(), sort_keys=True))
