// Fixture: the in-order key walk as the protocol writes it. The cursor
// is asked for each key's shard — directly, or through an index bound in
// the loop body — so the acquisition depends on the key (not flagged);
// completions are collected and the tracker is locked once, after the
// walk.

pub struct Server {
    tracker: Mutex<Tracker>,
}

impl Server {
    pub fn complete_all(&self, keys: &[u64]) {
        let mut done = Vec::new();
        let mut cursor = LatchCursor::new(&self.shards);
        for &k in keys {
            let shard = cursor.write(self.cfg.shard_of(k));
            done.push(shard.take(k));
        }
        drop(cursor);
        self.tracker.lock().complete(&done);
    }

    pub fn refresh_all(&self, keys: &[u64]) {
        let mut cursor = LatchCursor::new(&self.shards);
        for &k in keys {
            let idx = self.cfg.shard_of(k);
            let shard = cursor.write(idx);
            shard.refresh(k);
        }
    }
}
