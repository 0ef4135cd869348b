//! The single-owner idiom: the table sits in a `RefCell` (so the owner is
//! not `Sync`), work moves to scoped threads by value, and a value that
//! is computed once per process lives in a `OnceLock`. No lock is named.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;

pub struct Table {
    sessions: RefCell<BTreeMap<u64, Vec<f64>>>,
}

impl Table {
    pub fn push(&self, id: u64, chunk: &[f64]) {
        self.sessions
            .borrow_mut()
            .entry(id)
            .or_default()
            .extend_from_slice(chunk);
    }

    pub fn drain(&self) -> Vec<f64> {
        let ready = std::mem::take(&mut *self.sessions.borrow_mut());
        let shares: Vec<Vec<f64>> = ready.into_values().collect();
        std::thread::scope(|s| {
            let handles: Vec<_> = shares
                .into_iter()
                .map(|share| s.spawn(move || share.iter().sum::<f64>()))
                .collect();
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        })
    }
}

pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |c| c.get()))
}
