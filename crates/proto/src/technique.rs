//! The management-technique policy layer.
//!
//! The paper manages every parameter with one technique — **relocation**
//! — and its follow-up (NuPS, PAPERS.md) shows that a production PS needs
//! **replication** as a co-equal technique for hot keys. This module is
//! the single place where "how is this key managed?" is decided; the
//! client issue path, the server routing path, and the shard state
//! machine consult it instead of branching on variant flags ad hoc.
//!
//! A [`Policy`] answers three kinds of questions:
//!
//! * **static technique** — [`Policy::technique`] maps a key to
//!   [`Technique::Static`], [`Technique::Relocation`], or
//!   [`Technique::Replication`] according to the configured
//!   [`Variant`] and hot set: what can ever happen to the key. What
//!   manages it *now* is data — its [`crate::storage::Residency`] byte:
//!   `Primary` at the home and `Replica` elsewhere for a replicated key,
//!   whether the hot set named it or [`Variant::Adaptive`] promoted it;
//! * **client routing** — [`Policy::issue_route`] turns one key of an
//!   operation into an [`IssueRoute`] (shared-memory serve, replica
//!   serve/accumulate, park on a relocation queue, or ship remotely) from
//!   that byte alone, and [`Policy::remote_dst`] picks the remote
//!   destination (home node, or cached owner when location caches are
//!   enabled);
//! * **location caching** — [`Policy::note_owner`] centralizes the
//!   piggybacked cache refreshes of Section 3.3.

use lapse_net::{Key, NodeId};

use crate::config::{ProtoConfig, Variant};
use crate::keymap::KeyMap;
use crate::shard::{AccessLane, Shard};
use crate::storage::Residency::{Absent, Demoting, Incoming, Owned, Primary, Promoting, Replica};

/// How one key's parameter is managed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Technique {
    /// Static allocation at the home node; `localize` is a no-op.
    Static,
    /// Dynamic relocation: ownership follows access (the paper's DPA).
    Relocation,
    /// All-node replication: local reads, accumulated pushes propagated
    /// to the owner in rounds (NuPS §2).
    Replication,
}

/// Client-side routing decision for one key of an operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueRoute {
    /// Serve through shared memory from the owned store.
    OwnedLocal,
    /// Serve from the local replica view (reads) or accumulate locally
    /// for the next propagation round (pushes).
    Replica,
    /// Park on the inbound-relocation queue until the hand-over arrives.
    Park,
    /// Route over the network to this destination.
    Remote(NodeId),
}

/// The technique policy: a borrowed view of the protocol configuration
/// that answers every per-key management question.
#[derive(Clone, Copy)]
pub struct Policy<'c> {
    cfg: &'c ProtoConfig,
}

impl<'c> Policy<'c> {
    /// Creates the policy view (use [`ProtoConfig::policy`]).
    pub(crate) fn new(cfg: &'c ProtoConfig) -> Self {
        Policy { cfg }
    }

    /// The technique managing `key` according to the static configuration
    /// alone. Under [`Variant::Adaptive`] this is the **base** technique
    /// (relocation); which keys are promoted meanwhile is in their
    /// residency bytes.
    #[inline]
    pub fn technique(&self, key: Key) -> Technique {
        match self.cfg.variant {
            Variant::Classic | Variant::ClassicFastLocal => Technique::Static,
            Variant::Lapse | Variant::Adaptive => Technique::Relocation,
            Variant::Replication => Technique::Replication,
            Variant::Hybrid => {
                if self.cfg.hot_set.contains(key) {
                    Technique::Replication
                } else {
                    Technique::Relocation
                }
            }
        }
    }

    /// Whether this configuration manages techniques dynamically.
    #[inline]
    pub fn adaptive(&self) -> bool {
        matches!(self.cfg.variant, Variant::Adaptive)
    }

    /// Whether workers may access node-local parameters via shared
    /// memory (everything but the classic message-only PS).
    #[inline]
    pub fn shared_memory(&self) -> bool {
        !matches!(self.cfg.variant, Variant::Classic)
    }

    /// Whether `localize` can ever relocate `key` under this
    /// configuration. Under [`Variant::Adaptive`] this is a pre-filter
    /// only — a currently-promoted key is held here, and skipped for that.
    #[inline]
    pub fn relocation_enabled(&self, key: Key) -> bool {
        self.technique(key) == Technique::Relocation
    }

    /// Whether `key` is statically replicated on every node
    /// ([`Variant::Replication`] / [`Variant::Hybrid`]; always false
    /// under [`Variant::Adaptive`], whose replicated set is dynamic).
    #[inline]
    pub fn replicated(&self, key: Key) -> bool {
        self.technique(key) == Technique::Replication
    }

    /// Whether `key` could be served by the replication technique at some
    /// point of the run — the plan-phase trigger for replica-refresh
    /// registration (which must not take shard latches).
    #[inline]
    pub fn may_replicate(&self, key: Key) -> bool {
        self.adaptive() || self.replicated(key)
    }

    /// Whether the variant replicates any keys at all (fast pre-check
    /// for the replica-sync paths).
    #[inline]
    pub fn any_replication(&self) -> bool {
        match self.cfg.variant {
            Variant::Replication | Variant::Adaptive => true,
            Variant::Hybrid => !self.cfg.hot_set.is_empty(),
            _ => false,
        }
    }

    /// Routes one key of a client operation by its residency byte.
    /// `forced` is the ordered-async guard (the `client` module doc):
    /// guard-forced keys always take the remote path via home. `lane`
    /// (the issuing core's) receives the location-cache hit accounting
    /// of the remote path.
    #[inline]
    pub fn issue_route(
        &self,
        key: Key,
        shard: &Shard,
        forced: bool,
        lane: &AccessLane,
    ) -> IssueRoute {
        if !forced {
            match shard.store.residency(key) {
                Primary | Replica => return IssueRoute::Replica,
                Owned | Demoting if self.shared_memory() => return IssueRoute::OwnedLocal,
                Incoming | Promoting => return IssueRoute::Park,
                Owned | Demoting | Absent => {}
            }
        }
        IssueRoute::Remote(self.remote_dst(key, &shard.loc_cache, forced, lane))
    }

    /// Remote destination for `key`: the home node, or the cached owner
    /// when location caches are enabled. Guard-forced operations always
    /// travel via the home node so they share one FIFO path with the
    /// outstanding operation. Cache hits are counted into `lane`.
    #[inline]
    pub fn remote_dst(
        &self,
        key: Key,
        loc_cache: &KeyMap<Key, NodeId>,
        forced: bool,
        lane: &AccessLane,
    ) -> NodeId {
        if !forced && self.cfg.location_caches {
            if let Some(&owner) = loc_cache.get(&key) {
                lane.loc_cache_hits.add(1);
                return owner;
            }
        }
        self.cfg.home(key)
    }

    /// Records `owner` as the current location of `key` — a no-op unless
    /// location caches are enabled. All cache refreshes piggyback on
    /// existing messages (Section 3.3); this is the single place that
    /// rule is applied.
    #[inline]
    pub fn note_owner(&self, shard: &mut Shard, key: Key, owner: NodeId) {
        if self.cfg.location_caches {
            shard.loc_cache.insert(key, owner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HotSet;
    use crate::layout::Layout;

    fn cfg(variant: Variant) -> ProtoConfig {
        let mut c = ProtoConfig::new(2, 16, Layout::Uniform(1));
        c.variant = variant;
        c
    }

    #[test]
    fn techniques_per_variant() {
        assert_eq!(
            cfg(Variant::Classic).policy().technique(Key(0)),
            Technique::Static
        );
        assert_eq!(
            cfg(Variant::ClassicFastLocal).policy().technique(Key(0)),
            Technique::Static
        );
        assert_eq!(
            cfg(Variant::Lapse).policy().technique(Key(0)),
            Technique::Relocation
        );
        assert_eq!(
            cfg(Variant::Replication).policy().technique(Key(15)),
            Technique::Replication
        );
    }

    #[test]
    fn hybrid_splits_by_hot_set() {
        let mut c = cfg(Variant::Hybrid);
        c.hot_set = HotSet::Prefix(4);
        let p = c.policy();
        assert_eq!(p.technique(Key(3)), Technique::Replication);
        assert_eq!(p.technique(Key(4)), Technique::Relocation);
        assert!(p.any_replication());
        assert!(p.relocation_enabled(Key(9)));
        assert!(!p.relocation_enabled(Key(0)));
    }

    #[test]
    fn shared_memory_flag() {
        assert!(!cfg(Variant::Classic).policy().shared_memory());
        assert!(cfg(Variant::ClassicFastLocal).policy().shared_memory());
        assert!(cfg(Variant::Lapse).policy().shared_memory());
        assert!(cfg(Variant::Replication).policy().shared_memory());
    }

    #[test]
    fn classic_variants_never_replicate() {
        for v in [Variant::Classic, Variant::ClassicFastLocal, Variant::Lapse] {
            let c = cfg(v);
            assert!(!c.policy().any_replication());
            assert!(!c.policy().replicated(Key(0)));
        }
    }

    #[test]
    fn explicit_hot_set_drives_hybrid() {
        let mut c = cfg(Variant::Hybrid);
        c.hot_set = HotSet::explicit(vec![Key(11), Key(3)]);
        let p = c.policy();
        assert_eq!(p.technique(Key(3)), Technique::Replication);
        assert_eq!(p.technique(Key(11)), Technique::Replication);
        assert_eq!(p.technique(Key(4)), Technique::Relocation);
        assert!(p.any_replication());
    }

    #[test]
    fn cache_hits_are_counted_into_the_lane_that_routed() {
        use crate::shard::NodeShared;
        use lapse_net::NodeId;
        use std::sync::Arc;

        let mut c = cfg(Variant::Lapse);
        c.location_caches = true;
        let cfg = Arc::new(c);
        let node = NodeShared::new(cfg.clone(), NodeId(0), Arc::new(|| 0));
        let (mine, other) = (node.claim_lane(), node.claim_lane());
        let key = Key(12); // homed at node 1
        node.shard_for(key).write().loc_cache.insert(key, NodeId(1));
        let shard = node.shard_for(key).read();
        let p = cfg.policy();
        assert_eq!(
            p.issue_route(key, &shard, false, &mine),
            IssueRoute::Remote(NodeId(1))
        );
        // Guard-forced: via home, the cache is not consulted.
        assert_eq!(
            p.issue_route(key, &shard, true, &mine),
            IssueRoute::Remote(cfg.home(key))
        );
        assert_eq!(
            (mine.loc_cache_hits.get(), other.loc_cache_hits.get()),
            (1, 0)
        );
        assert_eq!(node.stats().loc_cache_hits, 1);
    }

    #[test]
    fn adaptive_routes_a_promoted_key_by_its_byte() {
        use crate::shard::NodeShared;
        use lapse_net::NodeId;
        use std::sync::Arc;

        let mut c = cfg(Variant::Adaptive);
        c.latches = 4;
        let cfg = Arc::new(c);
        let node = NodeShared::new(cfg.clone(), NodeId(0), Arc::new(|| 0));
        let lane = node.claim_lane();
        let p = cfg.policy();
        // Statically everything relocates; replication is dynamic.
        assert_eq!(p.technique(Key(5)), Technique::Relocation);
        assert!(p.relocation_enabled(Key(5)));
        assert!(!p.replicated(Key(5)));
        assert!(p.any_replication() && p.adaptive());
        assert!(p.may_replicate(Key(5)));
        let route = |k: Key| p.issue_route(k, &node.shard_for(k).read(), false, &lane);
        assert_eq!(route(Key(5)), IssueRoute::OwnedLocal);
        // A promotion rewrites the key's byte, not the config.
        node.shard_for(Key(5)).write().store.promote(Key(5));
        assert_eq!(route(Key(5)), IssueRoute::Replica);
        assert_eq!(route(Key(6)), IssueRoute::OwnedLocal);
        assert_eq!(node.replicated_keys(), vec![Key(5)]);
    }
}
