//! A hash map that can only be looked up: `clippy.toml` bans std's
//! `HashMap`, whose iteration order is seeded per process, and this is the
//! one exception (DESIGN.md §6). What is walked takes a `BTreeMap`.
#![allow(clippy::disallowed_types, reason = "lookups only")]

use std::{collections::HashMap, fmt, hash::Hash};

pub use std::collections::hash_map::Entry;

/// A `HashMap` without iteration: its methods of the same names, none of
/// those that walk the entries.
pub struct KeyMap<K, V>(HashMap<K, V>);

impl<K: Eq + Hash, V> KeyMap<K, V> {
    pub fn with_capacity(capacity: usize) -> Self {
        KeyMap(HashMap::with_capacity(capacity))
    }

    pub fn get(&self, key: &K) -> Option<&V> {
        self.0.get(key)
    }

    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.0.get_mut(key)
    }

    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.0.remove(key)
    }

    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn clear(&mut self) {
        self.0.clear();
    }
}

impl<K, V> Default for KeyMap<K, V> {
    fn default() -> Self {
        KeyMap(HashMap::default())
    }
}

/// The size only: printing the entries would walk them.
impl<K, V> fmt::Debug for KeyMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyMap({} entries)", self.0.len())
    }
}
