// Fixture: an in-order key walk that takes the tracker once per key.
// The cursor's latch is key-dependent (its argument names the loop
// variable) and inherent; `tracker.lock()` is the same lock every
// iteration and belongs after the walk (flagged).

pub struct Server {
    tracker: Mutex<Tracker>,
}

impl Server {
    pub fn complete_all(&self, keys: &[u64]) {
        let mut cursor = LatchCursor::new(&self.shards);
        for &k in keys {
            let shard = cursor.write(self.cfg.shard_of(k));
            shard.take(k);
            self.tracker.lock().complete(k);
        }
    }
}
