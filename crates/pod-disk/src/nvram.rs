//! NVRAM model for the Map table.
//!
//! "To prevent data loss in case of a power failure, the Map table data
//! structure is stored in non-volatile RAM" (paper §III-B). The paper's
//! overhead analysis (§IV-D2) reports only the *size* of that NVRAM —
//! 20 bytes per Map-table entry, peaking at 0.8/0.3/1.5 MB for the three
//! traces — so the model tracks entry counts and byte high-water marks.

/// Size of one Map-table entry in NVRAM (paper §IV-D2).
pub const MAP_ENTRY_BYTES: u64 = 20;

/// Byte-accounting model of the battery-backed RAM holding the Map table.
#[derive(Debug, Clone, Default)]
pub struct NvramModel {
    entries: u64,
    peak_entries: u64,
}

impl NvramModel {
    /// Empty NVRAM.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` new Map-table entries.
    pub fn add_entries(&mut self, n: u64) {
        self.entries += n;
        self.peak_entries = self.peak_entries.max(self.entries);
    }

    /// Record removal of `n` entries (LBA remapped away / trimmed).
    pub fn remove_entries(&mut self, n: u64) {
        self.entries = self.entries.saturating_sub(n);
    }

    /// Live entries.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Current bytes used.
    pub fn bytes(&self) -> u64 {
        self.entries * MAP_ENTRY_BYTES
    }

    /// High-water mark in bytes — the number §IV-D2 reports.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_entries * MAP_ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting() {
        let mut n = NvramModel::new();
        n.add_entries(10);
        assert_eq!(n.entries(), 10);
        assert_eq!(n.bytes(), 200);
        n.remove_entries(4);
        assert_eq!(n.entries(), 6);
        assert_eq!(n.bytes(), 120);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut n = NvramModel::new();
        n.add_entries(100);
        n.remove_entries(90);
        n.add_entries(20);
        assert_eq!(n.entries(), 30);
        assert_eq!(n.peak_bytes(), 100 * MAP_ENTRY_BYTES);
    }

    #[test]
    fn remove_saturates() {
        let mut n = NvramModel::new();
        n.add_entries(2);
        n.remove_entries(10);
        assert_eq!(n.entries(), 0);
    }
}
