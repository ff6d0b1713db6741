//! The Access Monitor: per-epoch intensity and hit-rate accounting.
//!
//! "The Access Monitor module is responsible for monitoring the intensity
//! and hit rate of the incoming read and write requests. Based on this
//! information, the Swap module dynamically adjusts the cache space
//! partition between the index cache and read cache" (paper §III-A).

/// Counters for the current epoch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AccessMonitor {
    /// Requests seen this epoch.
    pub requests: u64,
    /// Read requests this epoch.
    pub reads: u64,
    /// Write requests this epoch.
    pub writes: u64,
    /// Read-cache hits (actual cache).
    pub read_hits: u64,
    /// Read-cache misses.
    pub read_misses: u64,
    /// Ghost-read hits (a bigger read cache would have hit).
    pub ghost_read_hits: u64,
    /// Index hits (actual index cache) — supplied by the dedup engine.
    pub index_hits: u64,
    /// Index misses.
    pub index_misses: u64,
    /// Ghost-index hits (a bigger index cache would have detected
    /// redundancy).
    pub ghost_index_hits: u64,
}

impl AccessMonitor {
    /// Fresh zeroed monitor.
    pub fn new() -> Self {
        Self::default()
    }

    /// Note one incoming request.
    pub fn note_request(&mut self, is_write: bool) {
        self.requests += 1;
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
    }

    /// Read-cache hit rate this epoch.
    pub fn read_hit_rate(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            return 0.0;
        }
        self.read_hits as f64 / total as f64
    }

    /// Close the epoch: return its snapshot and reset.
    pub fn close_epoch(&mut self) -> AccessMonitor {
        std::mem::take(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intensity_tracking() {
        let mut m = AccessMonitor::new();
        m.note_request(true);
        m.note_request(true);
        m.note_request(false);
        assert_eq!(m.requests, 3);
        assert_eq!(m.writes, 2);
    }

    #[test]
    fn hit_rates() {
        let mut m = AccessMonitor::new();
        m.read_hits = 3;
        m.read_misses = 1;
        assert!((m.read_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_rates_are_zero() {
        let m = AccessMonitor::new();
        assert_eq!(m.read_hit_rate(), 0.0);
    }

    #[test]
    fn close_epoch_resets() {
        let mut m = AccessMonitor::new();
        m.note_request(true);
        m.ghost_index_hits = 5;
        let snap = m.close_epoch();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.ghost_index_hits, 5);
        assert_eq!(m.requests, 0);
        assert_eq!(m.ghost_index_hits, 0);
    }
}
