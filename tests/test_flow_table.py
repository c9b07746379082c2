"""Flow table semantics: scoping, precedence, specialization, generations."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataplane import Drop, FlowTable, FlowTableEntry, ToPort, ToService
from repro.net import FiveTuple, FlowMatch
from repro.net.headers import PROTO_TCP


@pytest.fixture
def table():
    return FlowTable()


def entry(scope="svc", match=None, actions=None, **kw):
    if actions is None:
        actions = (ToPort("eth1"),)
    return FlowTableEntry(scope=scope, match=match or FlowMatch.any(),
                          actions=actions, **kw)


class TestEntry:
    def test_needs_actions(self):
        with pytest.raises(ValueError):
            entry(actions=())
        # copy() validates through the constructor as well.
        with pytest.raises(ValueError, match="at least one action"):
            entry(actions=(ToService("a"),)).copy(actions=())

    def test_default_is_first(self):
        rule = entry(actions=(ToService("a"), ToService("b")))
        assert rule.default_action == ToService("a")

    def test_allows_listed_actions_and_drop(self):
        rule = entry(actions=(ToService("a"), ToPort("eth1")))
        assert rule.allows(ToService("a"))
        assert rule.allows(ToPort("eth1"))
        assert rule.allows(Drop())
        assert not rule.allows(ToService("other"))

    def test_with_default_moves_existing_action_to_front(self):
        rule = entry(actions=(ToService("a"), ToService("b")))
        updated = rule.with_default(ToService("b"))
        assert updated.actions == (ToService("b"), ToService("a"))

    def test_with_default_prepends_new_action(self):
        rule = entry(actions=(ToService("a"),))
        updated = rule.with_default(ToPort("fast"))
        assert updated.actions == (ToPort("fast"), ToService("a"))

    def test_copy_draws_fresh_entry_id(self):
        rule = entry(actions=(ToService("a"), ToService("b")))
        copies = [rule.copy(), rule.with_default(ToService("b")),
                  rule.copy(match=FlowMatch(dst_port=80))]
        ids = [rule.entry_id] + [copy.entry_id for copy in copies]
        assert len(set(ids)) == len(ids)
        assert copies[0] is not rule and copies[0].actions == rule.actions
        assert copies[2].match == FlowMatch(dst_port=80)
        assert copies[2].actions == rule.actions

    def test_copy_keeps_every_other_field(self):
        rule = entry(actions=(ToService("a"), ToService("b")), priority=3,
                     idle_timeout_ns=5, hard_timeout_ns=7, proactive=True,
                     installed_at_ns=11, last_hit_ns=13)
        updated = rule.with_default(ToService("b"), match=FlowMatch(
            dst_port=80))
        assert updated.actions == (ToService("b"), ToService("a"))
        kept = {field.name for field in dataclasses.fields(FlowTableEntry)}
        kept -= {"match", "actions", "entry_id"}
        # copy() names each field: a new one must be added there too.
        assert kept == {"scope", "priority", "idle_timeout_ns",
                        "hard_timeout_ns", "proactive", "installed_at_ns",
                        "last_hit_ns"}
        for field in kept:
            assert getattr(updated, field) == getattr(rule, field)
        assert rule.actions == (ToService("a"), ToService("b"))
        assert rule.match == FlowMatch.any()


class TestLookup:
    def test_miss_returns_none_and_counts(self, table, flow):
        assert table.lookup("svc", flow) is None
        assert table.misses == 1
        assert table.lookups == 1

    def test_scope_isolation(self, table, flow):
        table.install(entry(scope="svc_a"))
        assert table.lookup("svc_b", flow) is None
        assert table.lookup("svc_a", flow) is not None

    def test_exact_beats_wildcard(self, table, flow):
        table.install(entry(actions=(ToPort("wild"),)))
        table.install(entry(match=FlowMatch.exact(flow),
                            actions=(ToPort("exact"),)))
        assert table.lookup("svc", flow).default_action == ToPort("exact")

    def test_higher_priority_wildcard_wins(self, table, flow):
        table.install(entry(actions=(ToPort("low"),), priority=0))
        table.install(entry(match=FlowMatch(protocol=PROTO_TCP),
                            actions=(ToPort("high"),), priority=5))
        assert table.lookup("svc", flow).default_action == ToPort("high")

    def test_specificity_breaks_priority_ties(self, table, flow):
        table.install(entry(actions=(ToPort("any"),)))
        table.install(entry(match=FlowMatch(dst_port=80),
                            actions=(ToPort("port80"),)))
        assert table.lookup("svc", flow).default_action == ToPort("port80")

    def test_insertion_order_breaks_full_ties(self, table, flow):
        table.install(entry(match=FlowMatch(dst_port=80),
                            actions=(ToPort("first"),)))
        table.install(entry(match=FlowMatch(protocol=PROTO_TCP),
                            actions=(ToPort("second"),)))
        assert table.lookup("svc", flow).default_action == ToPort("second")

    def test_non_matching_wildcard_skipped(self, table, flow):
        table.install(entry(match=FlowMatch(dst_port=443),
                            actions=(ToPort("https"),)))
        assert table.lookup("svc", flow) is None


class TestMutation:
    def test_install_replaces_same_match(self, table, flow):
        table.install(entry(actions=(ToPort("old"),)))
        table.install(entry(actions=(ToPort("new"),)))
        assert len(table) == 1
        assert table.lookup("svc", flow).default_action == ToPort("new")

    def test_remove_exact(self, table, flow):
        table.install(entry(match=FlowMatch.exact(flow)))
        assert table.remove("svc", FlowMatch.exact(flow))
        assert table.lookup("svc", flow) is None
        assert not table.remove("svc", FlowMatch.exact(flow))

    def test_remove_wildcard(self, table, flow):
        table.install(entry())
        assert table.remove("svc", FlowMatch.any())
        assert len(table) == 0

    def test_generation_bumps_on_every_mutation(self, table, flow):
        start = table.generation
        table.install(entry())
        assert table.generation == start + 1
        table.remove("svc", FlowMatch.any())
        assert table.generation == start + 2
        table.clear()
        assert table.generation == start + 3

    def test_lookup_does_not_bump_generation(self, table, flow):
        table.install(entry())
        generation = table.generation
        table.lookup("svc", flow)
        assert table.generation == generation


class TestWildcardOrder:
    """A scope's wildcard list is the order that breaks full ties: it
    holds each rule in the table once, in the order its match was first
    installed."""

    def test_replaced_rules_leave_the_order_map(self, table, flow):
        for index in range(1000):
            table.install(entry(actions=(ToPort(f"p{index}"),)))
        assert len(table) == 1
        assert [rule.default_action for rule in table.entries("svc")] == [
            ToPort("p999")]
        assert table.lookup("svc", flow).default_action == ToPort("p999")

    def test_remove_and_clear_empty_the_order_map(self, table):
        table.install(entry())
        table.install(entry(match=FlowMatch(dst_port=80)))
        table.install(entry(scope="other"))
        assert table.remove("svc", FlowMatch.any())
        assert [(rule.scope, rule.match) for rule in table.entries()] == [
            ("svc", FlowMatch(dst_port=80)), ("other", FlowMatch.any())]
        table.clear()
        assert table.entries() == [] and len(table) == 0

    def test_reinstall_keeps_the_rule_in_place(self, table, flow):
        first = entry(match=FlowMatch(dst_port=80),
                      actions=(ToPort("first"),))
        table.install(first)
        table.install(entry(match=FlowMatch(protocol=PROTO_TCP),
                            actions=(ToPort("second"),)))
        assert table.lookup("svc", flow).default_action == ToPort("second")
        table.install(first)
        assert table.lookup("svc", flow).default_action == ToPort("second")
        assert [rule.default_action for rule in table.entries("svc")] == [
            ToPort("first"), ToPort("second")]
        # A removed match rejoins the order as the newest.
        table.remove("svc", FlowMatch(dst_port=80))
        table.install(first)
        assert table.lookup("svc", flow).default_action == ToPort("first")

    def test_identical_match_replaces_the_rule_where_it_stands(
            self, table, flow):
        table.install(entry(match=FlowMatch(dst_port=80),
                            actions=(ToPort("old"),)))
        table.install(entry(match=FlowMatch(protocol=PROTO_TCP),
                            actions=(ToPort("other"),)))
        assert table.lookup("svc", flow).default_action == ToPort("other")
        table.install(entry(match=FlowMatch(dst_port=80),
                            actions=(ToPort("new"),)))
        assert table.lookup("svc", flow).default_action == ToPort("other")
        assert [rule.default_action for rule in table.entries("svc")] == [
            ToPort("new"), ToPort("other")]


def specialize(table: FlowTable, flow, default) -> FlowTableEntry:
    """A per-flow rewrite as the NF Manager makes one: one copy of the
    flow's template with ``default`` first, installed once."""
    template = table.specialization_template("svc", flow)
    exact = template.with_default(default, match=FlowMatch.exact(flow))
    table.install(exact)
    return exact


class TestSpecialize:
    def test_clones_wildcard_into_exact(self, table, flow):
        wildcard = entry(actions=(ToService("a"), ToService("b")))
        table.install(wildcard)
        exact = specialize(table, flow, ToService("a"))
        assert exact.match == FlowMatch.exact(flow)
        assert exact.actions == (ToService("a"), ToService("b"))
        assert len(table) == 2
        assert table.entries("svc")[1] is wildcard

    def test_template_is_exact_rule_without_a_lookup(self, table, flow):
        table.install(entry())
        exact = entry(match=FlowMatch.exact(flow))
        table.install(exact)
        assert table.specialization_template("svc", flow) is exact
        assert table.lookups == 0

    def test_template_is_wildcard_after_one_lookup(self, table, flow):
        wildcard = entry()
        table.install(wildcard)
        generation = table.generation
        assert table.specialization_template("svc", flow) is wildcard
        assert (table.lookups, table.misses) == (1, 0)
        assert table.generation == generation and len(table) == 1
        assert table.specialization_template("other", flow) is None
        assert (table.lookups, table.misses) == (2, 1)

    def test_specialized_flow_diverges_from_wildcard(self, table, flow,
                                                     udp_flow):
        table.install(entry(actions=(ToService("a"), ToService("b"))))
        specialize(table, flow, ToService("b"))
        assert table.lookup("svc", flow).default_action == ToService("b")
        assert table.lookup("svc", udp_flow).default_action == ToService("a")


class TestExactMatch:
    def test_exact_key_is_the_flow(self, flow):
        assert FlowMatch.exact(flow).exact_key() is flow

    def test_equals_and_hashes_like_field_built_match(self, flow):
        built = FlowMatch(src_ip=flow.src_ip, dst_ip=flow.dst_ip,
                          protocol=flow.protocol, src_port=flow.src_port,
                          dst_port=flow.dst_port)
        exact = FlowMatch.exact(flow)
        assert exact == built and built == exact
        assert hash(exact) == hash(built)
        assert repr(exact) == repr(built)
        assert exact.is_exact and exact.specificity == 5
        assert exact.matches(flow)
        assert built.exact_key() == flow
        assert {exact: 1}[built] == 1

    def test_exact_match_stays_frozen(self, flow):
        with pytest.raises(AttributeError):
            FlowMatch.exact(flow).dst_port = 1

    def test_partial_flow_has_no_exact_key(self):
        partial = FiveTuple("10.0.0.1", "10.0.0.2", PROTO_TCP, None, 80)
        match = FlowMatch.exact(partial)
        assert not match.is_exact
        assert match.exact_key() is None
        assert match == FlowMatch(src_ip="10.0.0.1", dst_ip="10.0.0.2",
                                  protocol=PROTO_TCP, dst_port=80)


class TestIntrospection:
    def test_entries_and_scopes(self, table, flow):
        table.install(entry(scope="a"))
        table.install(entry(scope="b", match=FlowMatch.exact(flow)))
        assert table.scopes() == {"a", "b"}
        assert len(table.entries()) == 2
        assert len(table.entries("a")) == 1

    def test_entries_and_scopes_are_scope_major(self, table, flow,
                                                udp_flow):
        table.install(entry(scope="a", match=FlowMatch.exact(flow)))
        table.install(entry(scope="b", match=FlowMatch.exact(flow)))
        table.install(entry(scope="a", match=FlowMatch.exact(udp_flow)))
        table.install(entry(scope="c"))
        table.install(entry(scope="a"))
        assert list(table.scopes()) == ["a", "b", "c"]
        assert [(rule.scope, rule.match) for rule in table.entries()] == [
            ("a", FlowMatch.exact(flow)), ("a", FlowMatch.exact(udp_flow)),
            ("b", FlowMatch.exact(flow)),
            ("c", FlowMatch.any()), ("a", FlowMatch.any())]
        assert [rule.match for rule in table.entries("a")] == [
            FlowMatch.exact(flow), FlowMatch.exact(udp_flow),
            FlowMatch.any()]

    def test_scope_with_no_exact_rule_drops_out_and_rejoins_at_end(
            self, table, flow):
        table.install(entry(scope="a", match=FlowMatch.exact(flow)))
        table.install(entry(scope="b", match=FlowMatch.exact(flow)))
        assert table.remove("a", FlowMatch.exact(flow))
        assert list(table.scopes()) == ["b"]
        assert table.lookup("a", flow) is None
        table.install(entry(scope="a", match=FlowMatch.exact(flow),
                            actions=(ToPort("back"),)))
        assert list(table.scopes()) == ["b", "a"]
        assert [rule.scope for rule in table.entries()] == ["b", "a"]
        assert len(table) == 2

    def test_scope_with_no_wildcard_rule_drops_out(self, table):
        table.install(entry(scope="a", match=FlowMatch(dst_port=80)))
        assert table.remove("a", FlowMatch(dst_port=80))
        assert len(table) == 0
        assert list(table.scopes()) == []
        # Expiry removes rules the same way.
        table.install(entry(scope="b", match=FlowMatch(dst_port=80),
                            hard_timeout_ns=10))
        assert len(table.expire(now_ns=10)) == 1
        assert list(table.scopes()) == []

    def test_replacing_a_wildcard_keeps_its_scope_in_place(self, table):
        table.install(entry(scope="a", match=FlowMatch(dst_port=80)))
        table.install(entry(scope="b", match=FlowMatch(dst_port=80)))
        table.install(entry(scope="a", match=FlowMatch(dst_port=80),
                            actions=(ToPort("new"),)))
        assert list(table.scopes()) == ["a", "b"]
        assert [rule.default_action for rule in table.entries()] == [
            ToPort("new"), ToPort("eth1")]

    def test_dump_renders(self, table, flow):
        table.install(entry(scope="eth0", actions=(ToService("vd"),)))
        table.install(entry(
            scope="vd", match=FlowMatch(src_ip="10.0.0.1"),
            actions=(ToService("pe"), ToPort("eth1"))))
        text = table.dump()
        assert "eth0" in text and "svc:vd" in text
        assert "src=10.0.0.1" in text


ips = st.sampled_from(["10.0.0.1", "10.0.0.2", "10.1.0.1"])
ports_st = st.sampled_from([80, 443, 8080])
flows_st = st.builds(FiveTuple, src_ip=ips, dst_ip=ips,
                     protocol=st.just(PROTO_TCP),
                     src_port=ports_st, dst_port=ports_st)


class TestProperties:
    @given(flows=st.lists(flows_st, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_lookup_result_always_matches_flow(self, flows):
        table = FlowTable()
        table.install(entry(match=FlowMatch(dst_port=80)))
        table.install(entry(match=FlowMatch(src_ip="10.0.0.1")))
        for flow in flows:
            rule = table.lookup("svc", flow)
            if rule is not None:
                assert rule.match.matches(flow)
            else:
                assert flow.dst_port != 80 and flow.src_ip != "10.0.0.1"

    @given(flows=st.lists(flows_st, min_size=1, max_size=10, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_specialization_never_changes_behaviour(self, flows):
        """Specializing a flow must not alter any flow's default action."""
        table = FlowTable()
        table.install(entry(actions=(ToService("x"), ToService("y"))))
        before = {flow: table.lookup("svc", flow).default_action
                  for flow in flows}
        for flow in flows:
            specialize(table, flow, before[flow])
        after = {flow: table.lookup("svc", flow).default_action
                 for flow in flows}
        assert before == after
