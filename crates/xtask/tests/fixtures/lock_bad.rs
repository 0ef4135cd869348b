//! A table shared between threads behind locks: every lock type is
//! flagged wherever it is named, whatever the acquisition idiom.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, RwLock};

pub struct Table {
    sessions: Mutex<BTreeMap<u64, Vec<f64>>>,
    config: RwLock<usize>,
    ready: Condvar,
}

impl Table {
    pub fn push(&self, id: u64, chunk: &[f64]) {
        if let Ok(mut sessions) = self.sessions.lock() {
            sessions.entry(id).or_default().extend_from_slice(chunk);
        }
        self.ready.notify_one();
    }
}
