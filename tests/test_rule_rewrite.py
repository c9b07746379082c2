"""The NF Manager's one rule rewrite behind SkipMe, RequestMe and
ChangeDefault (§3.4).

Every message makes a new next hop the default of the rules that route
the flows ``F`` it names.  The contract, checked here by example and by
a seeded property test over random tables and messages:

(i) a flow outside F resolves to the same default and actions in every
    scope as before the message;
(ii) a flow in F whose winning rule the message selects now has the new
     default, wherever F is exact, the winning rule lies inside F, or
     the message selects every rule of that scope that overlaps F;
(iii) a flow in F whose winning rule the message does not select keeps
      its default.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import (
    ChangeDefault,
    Drop,
    FlowTableEntry,
    RequestMe,
    SkipMe,
    ToPort,
    ToService,
)
from repro.dataplane.manager import NfManager
from repro.dataplane.messages import parse_target
from repro.net import FiveTuple, FlowMatch
from repro.net.headers import PROTO_TCP, PROTO_UDP
from repro.sim import Simulator

A, B, C = ToService("a"), ToService("b"), ToService("c")


def _manager(*rules: FlowTableEntry) -> NfManager:
    manager = NfManager(Simulator(), name="r0")
    for rule in rules:
        manager.install_rule(rule)
    return manager


def _rule(scope: str, match: FlowMatch, *actions, priority: int = 0
          ) -> FlowTableEntry:
    return FlowTableEntry(scope=scope, match=match, actions=actions,
                          priority=priority)


def _default(manager: NfManager, scope: str, flow: FiveTuple):
    entry = manager.flow_table.lookup(scope, flow)
    return None if entry is None else entry.default_action


WEB = FiveTuple("10.0.0.1", "10.0.1.1", PROTO_TCP, 1000, 80)
MAIL = FiveTuple("10.0.0.1", "10.0.1.1", PROTO_TCP, 1001, 25)
DNS = FiveTuple("10.0.0.2", "10.0.1.1", PROTO_UDP, 1002, 80)


def _chain() -> NfManager:
    """eth0 sends every flow to a; a defaults to b and may send to c."""
    return _manager(_rule("eth0", FlowMatch.any(), A),
                    _rule("a", FlowMatch.any(), B, C))


class TestWildcardMessages:
    def test_skip_me_narrower_than_the_rule_bypasses_only_f(self):
        manager = _chain()
        manager.apply_message(SkipMe(sender_service="a", service="a",
                                     flows=FlowMatch(dst_port=80)))
        assert _default(manager, "eth0", WEB) == B
        assert _default(manager, "eth0", MAIL) == A
        assert _default(manager, "a", WEB) == B

    def test_request_me_narrower_than_the_rule_requests_only_f(self):
        manager = _chain()
        manager.apply_message(RequestMe(sender_service="c", service="c",
                                        flows=FlowMatch(dst_port=80)))
        assert _default(manager, "a", WEB) == C
        assert _default(manager, "a", MAIL) == B
        assert _default(manager, "eth0", WEB) == A

    def test_change_default_inside_a_source_prefix(self):
        manager = _manager(_rule(
            "det", FlowMatch(src_ip="10.0.0.0", src_prefix_bits=8),
            ToPort("slow"), ToPort("fast")))
        manager.apply_message(ChangeDefault(
            sender_service="det", service="det", target="port:fast",
            flows=FlowMatch(src_ip="10.1.0.0", src_prefix_bits=16)))
        inside = FiveTuple("10.1.2.3", "10.9.0.1", PROTO_TCP, 1, 80)
        outside = FiveTuple("10.2.0.1", "10.9.0.1", PROTO_TCP, 1, 80)
        assert _default(manager, "det", inside) == ToPort("fast")
        assert _default(manager, "det", outside) == ToPort("slow")

    def test_rewrite_keeps_its_rule_behind_a_newer_equal_rule(self):
        """RequestMe selects only the older of two equal-key rules; the
        newer one keeps winning the flows both match."""
        manager = _manager(_rule("a", FlowMatch(dst_port=80), B, C),
                           _rule("a", FlowMatch(protocol=PROTO_TCP), B))
        manager.apply_message(RequestMe(sender_service="c", service="c"))
        assert _default(manager, "a", WEB) == B
        assert _default(manager, "a", DNS) == C

    def test_override_waits_for_every_overlapping_rule(self):
        """No override is carved over a rule the message leaves alone."""
        manager = _manager(_rule("a", FlowMatch.any(), B, C),
                           _rule("a", FlowMatch(protocol=PROTO_UDP), B))
        manager.apply_message(RequestMe(sender_service="c", service="c",
                                        flows=FlowMatch(dst_port=80)))
        assert _default(manager, "a", DNS) == B
        assert _default(manager, "a", WEB) == B
        assert len(manager.flow_table) == 2


def test_parse_target_is_the_one_target_syntax():
    assert parse_target("drop") == Drop()
    assert parse_target("port:eth1") == ToPort("eth1")
    assert parse_target("svc") == ToService("svc")
    assert parse_target("svc") is parse_target("svc")


# ----------------------------------------------------------------------
# The contract over random tables and messages
# ----------------------------------------------------------------------
SERVICES = ("a", "b", "c")
SCOPES = ("eth0", *SERVICES)
DESTINATIONS = (A, B, C, ToPort("eth1"))
SOURCES = ("10.0.0.1", "10.0.1.1", "10.1.0.1", "192.168.0.1")
DSTS = ("10.9.0.1", "10.9.0.2")
PROTOCOLS = (PROTO_TCP, PROTO_UDP)
PORTS = (80, 443)
# Every flow the drawn matches can tell apart.
FLOWS = [FiveTuple(*fields) for fields in itertools.product(
    SOURCES, DSTS, PROTOCOLS, PORTS, PORTS)]


@st.composite
def flow_matches(draw) -> FlowMatch:
    """An exact, wildcard or source-prefix match over the flow universe."""
    kind = draw(st.sampled_from(["exact", "wildcard", "prefix"]))
    if kind == "exact":
        return FlowMatch.exact(draw(st.sampled_from(FLOWS)))

    def maybe(values):
        return draw(st.one_of(st.none(), st.sampled_from(values)))

    src_ip, prefix = None, 32
    if kind == "prefix":
        src_ip = draw(st.sampled_from(SOURCES))
        prefix = draw(st.sampled_from([8, 16, 24]))
    return FlowMatch(src_ip=src_ip, dst_ip=maybe(DSTS),
                     protocol=maybe(PROTOCOLS), src_port=maybe(PORTS),
                     dst_port=maybe(PORTS), src_prefix_bits=prefix)


@st.composite
def rules(draw) -> FlowTableEntry:
    actions = draw(st.lists(st.sampled_from(DESTINATIONS), min_size=1,
                            max_size=3, unique=True))
    return FlowTableEntry(scope=draw(st.sampled_from(SCOPES)),
                          match=draw(flow_matches()),
                          actions=tuple(actions),
                          priority=draw(st.integers(0, 2)))


@st.composite
def messages(draw):
    flows = draw(st.one_of(st.just(FlowMatch.any()), flow_matches()))
    service = draw(st.sampled_from(SERVICES))
    kind = draw(st.sampled_from([SkipMe, RequestMe, ChangeDefault]))
    if kind is ChangeDefault:
        target = draw(st.sampled_from(["a", "b", "c", "port:eth1", "drop"]))
        return ChangeDefault(sender_service=service, service=service,
                             flows=flows, target=target)
    return kind(sender_service=service, service=service, flows=flows)


def _selection(manager: NfManager, message):
    """The message's new default and its rule selection per scope, read
    from the table before the message applies."""
    service = message.service
    if isinstance(message, ChangeDefault):
        return parse_target(message.target), (
            lambda scope, entry: scope == service)
    if isinstance(message, RequestMe):
        wanted = ToService(service)
        return wanted, (lambda scope, entry: scope != service
                        and wanted in entry.actions
                        and entry.default_action != wanted)
    bypass = ToService(service)
    new_default = manager._scope_default(service, message.flows)
    if new_default == bypass:
        new_default = None  # S defaults to itself: nothing to bypass to
    return new_default, (lambda scope, entry: scope != service
                         and entry.default_action == bypass)


def _routes(manager: NfManager) -> dict:
    table = manager.flow_table
    return {(scope, flow): table.lookup(scope, flow)
            for scope in SCOPES for flow in FLOWS}


def _route(entry):
    return None if entry is None else (entry.default_action, entry.actions)


@given(table=st.lists(rules(), max_size=12), message=messages())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_every_message_keeps_the_rewrite_contract(table, message):
    manager = _manager(*table)
    flows = message.flows
    new_default, selects = _selection(manager, message)
    covering = {
        scope: all(selects(scope, entry)
                   for entry in manager.flow_table.entries(scope)
                   if flows.overlaps(entry.match))
        for scope in SCOPES}
    before = _routes(manager)
    manager.apply_message(message)
    after = _routes(manager)
    for (scope, flow), winner in before.items():
        now = after[scope, flow]
        if not flows.matches(flow) or new_default is None:
            assert _route(now) == _route(winner), (scope, flow)  # (i)
            continue
        if winner is None:
            continue
        if not selects(scope, winner):
            assert now.default_action == winner.default_action  # (iii)
        elif (flows.is_exact or flows.subsumes(winner.match)
              or covering[scope]):
            assert now.default_action == new_default  # (ii)
        else:
            assert now.default_action in (winner.default_action,
                                          new_default)
