#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use lapse_net::{Key, NodeId};

    use crate::{HotSet, Layout, NodeShared, ProtoConfig, Variant};

    fn cfg(variant: Variant) -> ProtoConfig {
        let mut c = ProtoConfig::new(2, 16, Layout::Uniform(1));
        c.variant = variant;
        c
    }

    /// `(relocates, replicated)` of `key`: `(false, false)` is static
    /// allocation at the home node.
    fn technique(c: &ProtoConfig, key: Key) -> (bool, bool) {
        (c.relocates(key), c.replicated(key))
    }

    /// Whether any shard can hold replica deltas, the pre-check of the
    /// replica-sync paths.
    fn any_replication(c: &ProtoConfig) -> bool {
        let node = NodeShared::new(Arc::new(c.clone()), NodeId(0), Arc::new(|| 0));
        !node.replica_shards.is_empty()
    }

    const STATIC: (bool, bool) = (false, false);
    const RELOCATION: (bool, bool) = (true, false);
    const REPLICATION: (bool, bool) = (false, true);

    /// What each variant means at every key, hot or cold:
    /// `(shared_memory, [at a hot key, at a cold key])`.
    #[test]
    fn techniques_per_variant() {
        let table = [
            (Variant::Classic, false, [STATIC; 2]),
            (Variant::ClassicFastLocal, true, [STATIC; 2]),
            (Variant::Lapse, true, [RELOCATION; 2]),
            (Variant::Replication, true, [REPLICATION; 2]),
            (Variant::Hybrid, true, [REPLICATION, RELOCATION]),
            (Variant::Adaptive, true, [RELOCATION; 2]),
        ];
        for hot_set in [HotSet::Prefix(4), HotSet::explicit(vec![Key(11), Key(3)])] {
            for (variant, shared, [at_hot, at_cold]) in table {
                let mut c = cfg(variant);
                c.hot_set = hot_set.clone();
                assert_eq!(c.shared_memory(), shared, "{variant:?}");
                for key in (0..16).map(Key) {
                    let want = if hot_set.contains(key) {
                        at_hot
                    } else {
                        at_cold
                    };
                    assert_eq!(technique(&c, key), want, "{variant:?} at {key}");
                }
            }
        }
    }

    #[test]
    fn hybrid_splits_by_hot_set() {
        let mut c = cfg(Variant::Hybrid);
        c.hot_set = HotSet::Prefix(4);
        assert_eq!(technique(&c, Key(3)), REPLICATION);
        assert_eq!(technique(&c, Key(4)), RELOCATION);
        assert!(any_replication(&c));
        assert!(c.relocates(Key(9)));
        assert!(!c.relocates(Key(0)));
    }

    #[test]
    fn shared_memory_flag() {
        assert!(!cfg(Variant::Classic).shared_memory());
        assert!(cfg(Variant::ClassicFastLocal).shared_memory());
        assert!(cfg(Variant::Lapse).shared_memory());
        assert!(cfg(Variant::Replication).shared_memory());
    }

    #[test]
    fn classic_variants_never_replicate() {
        for v in [Variant::Classic, Variant::ClassicFastLocal, Variant::Lapse] {
            let c = cfg(v);
            assert!(!any_replication(&c));
            assert!(!c.replicated(Key(0)));
        }
    }

    #[test]
    fn explicit_hot_set_drives_hybrid() {
        let mut c = cfg(Variant::Hybrid);
        c.hot_set = HotSet::explicit(vec![Key(11), Key(3)]);
        assert_eq!(technique(&c, Key(3)), REPLICATION);
        assert_eq!(technique(&c, Key(11)), REPLICATION);
        assert_eq!(technique(&c, Key(4)), RELOCATION);
        assert!(any_replication(&c));
    }
}
