//! Simulation results.

/// What the simulator measures in one run. Protocol-specific statistics
/// (access counts, relocation times, the value plane) live in the
/// protocol's own state and are read back by the caller after `run`
/// returns. The message counts are taken where the simulator delivers:
/// the only count the SSP and low-level baselines have, and the
/// reference a protocol that counts its own sends is checked against.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// Virtual time at which the last event (or worker) finished.
    pub virtual_time_ns: u64,
    /// Total protocol messages sent.
    pub messages: u64,
    /// Total bytes sent (envelope included).
    pub bytes: u64,
    /// Messages whose source and destination coincide (the classic PS's
    /// local-access IPC path).
    pub self_messages: u64,
}
