"""Session and clash-detection tests."""

import pytest

from repro.core.clash import find_clashing_pairs
from repro.core.session import Session


class TestSession:
    def test_auto_ids_unique(self):
        a = Session(address=1, ttl=15, source=0)
        b = Session(address=1, ttl=15, source=0)
        assert a.session_id != b.session_id
        assert a.key() != b.key()

    def test_explicit_id_kept(self):
        s = Session(address=1, ttl=15, source=0, session_id=77)
        assert s.session_id == 77

    def test_ttl_validated(self):
        with pytest.raises(ValueError):
            Session(address=1, ttl=0, source=0)
        with pytest.raises(ValueError):
            Session(address=1, ttl=300, source=0)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            Session(address=-1, ttl=15, source=0)


def clash(a, b, scope_map):
    """Whether the two sessions clash, as ``find_clashing_pairs``
    finds it."""
    return find_clashing_pairs([a, b], scope_map) == [(0, 1)]


class TestClashDetection:
    """Uses the chain fixture: need[0]=[0,2,18,18,68]."""

    def test_same_address_overlapping_scopes_clash(self, chain_scope_map):
        a = Session(address=7, ttl=18, source=0)
        b = Session(address=7, ttl=18, source=3)
        assert clash(a, b, chain_scope_map)

    def test_different_address_never_clashes(self, chain_scope_map):
        a = Session(address=7, ttl=18, source=0)
        b = Session(address=8, ttl=18, source=0)
        assert not clash(a, b, chain_scope_map)

    def test_disjoint_scopes_no_clash(self, chain_scope_map):
        # 0@ttl2 reaches {0,1}; 4@ttl64 reaches {4} only.
        a = Session(address=7, ttl=2, source=0)
        b = Session(address=7, ttl=64, source=4)
        assert not clash(a, b, chain_scope_map)

    def test_asymmetric_invasion_clash(self, chain_scope_map):
        """The TTL-scoping hazard: 4@65 floods everywhere, clashing
        with a local session it can never hear about."""
        local = Session(address=7, ttl=2, source=0)
        invader = Session(address=7, ttl=65, source=4)
        assert clash(local, invader, chain_scope_map)
        # ...even though the local announcement never reaches node 4:
        assert not chain_scope_map.can_hear(4, 0, 2)

    def test_find_clashing_pairs(self, chain_scope_map):
        sessions = [
            Session(address=7, ttl=18, source=0),   # 0
            Session(address=7, ttl=18, source=1),   # 1 clashes with 0
            Session(address=7, ttl=64, source=4),   # 2 reaches only {4}
            Session(address=5, ttl=18, source=0),   # 3 different addr
        ]
        pairs = find_clashing_pairs(sessions, chain_scope_map)
        assert pairs == [(0, 1)]
