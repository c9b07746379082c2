"""Flow identity (5-tuple) and wildcard flow matching.

``FiveTuple`` is the exact identity of a flow; ``FlowMatch`` is an OpenFlow
style match where any field may be wildcarded (None) and the source IP may
be a prefix — the paper's DDoS detector aggregates traffic by IP prefix.
"""

from __future__ import annotations

import dataclasses

from repro.net.headers import ip_to_int


class FiveTuple:
    """Exact flow identity: (src_ip, dst_ip, protocol, src_port, dst_port).

    Immutable and hashable — flows key every table on the hot path (flow
    rules, per-flow stats, burst classification), so the hash, the
    integer source address prefix matches compare and the packed integer
    key used by :meth:`hash_bucket` are computed once and cached (a
    frozen dataclass would rebuild them on every lookup).
    """

    __slots__ = ("src_ip", "dst_ip", "protocol", "src_port", "dst_port",
                 "_hash", "_src_int", "_int_key")

    def __init__(self, src_ip: str, dst_ip: str, protocol: int,
                 src_port: int, dst_port: int) -> None:
        _set_src_ip(self, src_ip)
        _set_dst_ip(self, dst_ip)
        _set_protocol(self, protocol)
        _set_src_port(self, src_port)
        _set_dst_port(self, dst_port)
        _set_hash(self, None)
        _set_src_int(self, None)
        _set_int_key(self, None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError("FiveTuple is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError("FiveTuple is immutable")

    def __reduce__(self):
        # Slot-state pickling would go through __setattr__ (which raises);
        # rebuild through __init__ instead.  The cached hash and integer
        # keys are recomputed lazily on the other side.
        return (FiveTuple, (self.src_ip, self.dst_ip, self.protocol,
                            self.src_port, self.dst_port))

    def __eq__(self, other) -> bool:
        if other.__class__ is not FiveTuple:
            return NotImplemented
        return (self.src_ip == other.src_ip
                and self.dst_ip == other.dst_ip
                and self.protocol == other.protocol
                and self.src_port == other.src_port
                and self.dst_port == other.dst_port)

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash((self.src_ip, self.dst_ip, self.protocol,
                           self.src_port, self.dst_port))
            _set_hash(self, cached)
        return cached

    def _src_addr(self) -> int:
        """The source address as an int (via ``ip_to_int``), cached."""
        addr = self._src_int
        if addr is None:
            addr = ip_to_int(self.src_ip)
            _set_src_int(self, addr)
        return addr

    def _packed_key(self) -> tuple[int, int, int, int, int]:
        """All-integer key (IPs packed via ``ip_to_int``), cached."""
        key = self._int_key
        if key is None:
            key = (self._src_addr(), ip_to_int(self.dst_ip),
                   self.protocol, self.src_port, self.dst_port)
            _set_int_key(self, key)
        return key

    def reversed(self) -> FiveTuple:
        """The reverse direction of this flow (for replies)."""
        return FiveTuple(src_ip=self.dst_ip, dst_ip=self.src_ip,
                         protocol=self.protocol, src_port=self.dst_port,
                         dst_port=self.src_port)

    def hash_bucket(self, buckets: int) -> int:
        """Deterministic bucket for flow-hash load balancing (RSS-style)."""
        if buckets <= 0:
            raise ValueError("buckets must be positive")
        value = 1469598103934665603
        for field in self._packed_key():
            value ^= field
            value = (value * 1099511628211) % (1 << 63)
        return value % buckets

    def __repr__(self) -> str:
        return (f"FiveTuple(src_ip={self.src_ip!r}, dst_ip={self.dst_ip!r}, "
                f"protocol={self.protocol!r}, src_port={self.src_port!r}, "
                f"dst_port={self.dst_port!r})")

    def __str__(self) -> str:
        return (f"{self.src_ip}:{self.src_port}->"
                f"{self.dst_ip}:{self.dst_port}/{self.protocol}")


# FiveTuple's slot setters, bound once.  A member descriptor's __set__
# writes the slot directly, bypassing the class's mutation guard without
# the per-call attribute lookup of object.__setattr__ (flows are built
# per packet on shard boundaries, so construction cost shows).
(_set_src_ip, _set_dst_ip, _set_protocol, _set_src_port, _set_dst_port,
 _set_hash, _set_src_int, _set_int_key) = (
    vars(FiveTuple)[name].__set__ for name in FiveTuple.__slots__)


# How a frozen dataclass sets its own fields; FlowMatch's caches and
# FlowMatch.exact use it too.
_object_setattr = object.__setattr__


@dataclasses.dataclass(frozen=True, slots=True)
class FlowMatch:
    """Wildcard-capable match over a 5-tuple.

    ``None`` fields match anything.  ``src_prefix_bits`` restricts the
    source-IP comparison to the top N bits (requires ``src_ip``).

    Matching compares integers.  ``specificity`` is counted at
    construction; the prefix network and the :meth:`exact_key` flow are
    built on first use and kept in slots whose ``None`` means "not yet"
    (fields with ``compare=False`` and ``repr=False``, so equality,
    hashing and ``repr`` ignore them), and a flow caches its own integer
    source address.  A malformed ``src_ip`` raises ``ValueError`` from
    the first ``matches``/``subsumes`` call that needs it, as parsing is
    lazy.  A pickled match carries its fields and whichever caches were
    filled.
    """

    src_ip: str | None = None
    dst_ip: str | None = None
    protocol: int | None = None
    src_port: int | None = None
    dst_port: int | None = None
    src_prefix_bits: int = 32
    #: How many of the five fields are constrained (for priority
    #: tie-breaks).
    specificity: int = dataclasses.field(init=False, repr=False,
                                         compare=False)
    #: ``(shift, network)``: a source address ``a`` lies inside the
    #: prefix when ``a >> shift == network``.  None until first use.
    _src_net: tuple[int, int] | None = dataclasses.field(
        init=False, repr=False, compare=False)
    #: :meth:`exact_key`'s flow.  None until first use, and for good on a
    #: match that is not exact.
    _exact_key: FiveTuple | None = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.src_prefix_bits <= 32:
            raise ValueError("src_prefix_bits must be in [0, 32]")
        if self.src_prefix_bits < 32 and self.src_ip is None:
            raise ValueError("src_prefix_bits needs src_ip")
        fields = (self.src_ip, self.dst_ip, self.protocol, self.src_port,
                  self.dst_port)
        _object_setattr(self, "specificity", 5 - fields.count(None))
        _object_setattr(self, "_src_net", None)
        _object_setattr(self, "_exact_key", None)

    @classmethod
    def exact(cls, flow: FiveTuple) -> FlowMatch:
        """An exact match for one flow.

        Built per message on the churn path, so the slots are set
        directly (a /32 source needs none of ``__post_init__``'s checks),
        and ``flow`` itself becomes the :meth:`exact_key` when all five
        fields are set.
        """
        match = object.__new__(cls)
        fields = (flow.src_ip, flow.dst_ip, flow.protocol, flow.src_port,
                  flow.dst_port)
        _object_setattr(match, "src_ip", flow.src_ip)
        _object_setattr(match, "dst_ip", flow.dst_ip)
        _object_setattr(match, "protocol", flow.protocol)
        _object_setattr(match, "src_port", flow.src_port)
        _object_setattr(match, "dst_port", flow.dst_port)
        _object_setattr(match, "src_prefix_bits", 32)
        specificity = 5 - fields.count(None)
        _object_setattr(match, "specificity", specificity)
        _object_setattr(match, "_src_net", None)
        _object_setattr(match, "_exact_key",
                        flow if specificity == 5 else None)
        return match

    @classmethod
    def any(cls) -> FlowMatch:
        """The ``*`` rule: matches every flow."""
        return cls()

    @property
    def is_exact(self) -> bool:
        return self.specificity == 5 and self.src_prefix_bits == 32

    def _parse_src_net(self) -> tuple[int, int]:
        """Fill the ``_src_net`` slot.  A /0 prefix (shift 32) contains
        every address, so its ``src_ip`` is never parsed."""
        shift = 32 - self.src_prefix_bits
        src_net = (shift, 0 if shift == 32
                   else ip_to_int(self.src_ip) >> shift)
        _object_setattr(self, "_src_net", src_net)
        return src_net

    def matches(self, flow: FiveTuple) -> bool:
        """True when ``flow`` falls inside this match."""
        if self.src_ip is not None:
            shift, network = self._src_net or self._parse_src_net()
            if shift != 32:
                addr = flow._src_int
                if addr is None:
                    addr = flow._src_addr()
                if addr >> shift != network:
                    return False
        if self.dst_ip is not None and self.dst_ip != flow.dst_ip:
            return False
        if self.protocol is not None and self.protocol != flow.protocol:
            return False
        if self.src_port is not None and self.src_port != flow.src_port:
            return False
        if self.dst_port is not None and self.dst_port != flow.dst_port:
            return False
        return True

    def subsumes(self, other: FlowMatch) -> bool:
        """True when every flow matched by ``other`` is matched by self.

        Used by cross-layer messages: a message whose flow criteria
        subsumes a rule's match may rewrite that rule without affecting
        flows outside the criteria.
        """
        for field in ("dst_ip", "protocol", "src_port", "dst_port"):
            mine = getattr(self, field)
            theirs = getattr(other, field)
            if mine is not None and (theirs is None or theirs != mine):
                return False
        if self.src_ip is not None:
            if other.src_ip is None:
                return False
            if other.src_prefix_bits < self.src_prefix_bits:
                return False
            shift, network = self._src_net or self._parse_src_net()
            if shift != 32 and ip_to_int(other.src_ip) >> shift != network:
                return False
        return True

    def overlaps(self, other: FlowMatch) -> bool:
        """True when some flow is matched by both self and ``other``
        (source prefixes overlap when they agree on the shorter one)."""
        for field in ("dst_ip", "protocol", "src_port", "dst_port"):
            mine = getattr(self, field)
            theirs = getattr(other, field)
            if mine is not None and theirs is not None and mine != theirs:
                return False
        if self.src_ip is None or other.src_ip is None:
            return True
        shift = 32 - min(self.src_prefix_bits, other.src_prefix_bits)
        return (shift == 32 or ip_to_int(self.src_ip) >> shift
                == ip_to_int(other.src_ip) >> shift)

    def exact_key(self) -> FiveTuple | None:
        """The FiveTuple if this match is exact, else None (for a match
        built by :meth:`exact`, the very flow it was built from)."""
        key = self._exact_key
        if key is None and self.is_exact:
            key = FiveTuple(src_ip=self.src_ip, dst_ip=self.dst_ip,
                            protocol=self.protocol, src_port=self.src_port,
                            dst_port=self.dst_port)
            _object_setattr(self, "_exact_key", key)
        return key

