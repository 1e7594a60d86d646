//! The file-system oracle: what must / may be visible after a crash.

use std::collections::HashMap;

/// Tracks two logical file-system states:
///
/// * `durable` — as of the last commit that **returned**: must survive any
///   crash;
/// * `staged` — including operations since then: becomes visible only if
///   the in-flight commit's atomic commit point persisted.
///
/// After crash + recovery the observed state must equal one of the two
/// (transaction atomicity), and if no commit was in flight, exactly
/// `durable`.
#[derive(Clone, Debug, Default)]
pub struct FsOracle {
    durable: HashMap<String, Vec<u8>>,
    staged: HashMap<String, Vec<u8>>,
}

impl FsOracle {
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a file creation (staged).
    pub fn create(&mut self, name: &str) {
        self.staged.insert(name.to_string(), Vec::new());
    }

    /// Records a write at `offset` (staged).
    pub fn write(&mut self, name: &str, offset: u64, data: &[u8]) {
        let f = self
            .staged
            .get_mut(name)
            .expect("oracle: write to unknown file");
        let end = offset as usize + data.len();
        if f.len() < end {
            f.resize(end, 0);
        }
        f[offset as usize..end].copy_from_slice(data);
    }

    /// Records a deletion (staged).
    pub fn delete(&mut self, name: &str) {
        self.staged.remove(name);
    }

    /// A commit returned: the staged state is now durable.
    pub fn committed(&mut self) {
        self.durable = self.staged.clone();
    }

    /// The state that must survive any crash.
    pub(crate) fn durable_state(&self) -> &HashMap<String, Vec<u8>> {
        &self.durable
    }

    /// The state that may be visible if the in-flight commit landed.
    pub fn staged_state(&self) -> &HashMap<String, Vec<u8>> {
        &self.staged
    }

    /// True if a crash right now has only one legal outcome.
    pub fn quiescent(&self) -> bool {
        self.durable == self.staged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_becomes_durable_on_commit() {
        let mut o = FsOracle::new();
        o.create("a");
        o.write("a", 0, b"hello");
        assert!(o.durable_state().is_empty());
        assert!(!o.quiescent());
        o.committed();
        assert_eq!(o.durable_state()["a"], b"hello");
        assert!(o.quiescent());
    }

    #[test]
    fn writes_extend_and_overwrite() {
        let mut o = FsOracle::new();
        o.create("f");
        o.write("f", 4, b"xy");
        assert_eq!(o.staged_state()["f"], vec![0, 0, 0, 0, b'x', b'y']);
        o.write("f", 0, b"AB");
        assert_eq!(&o.staged_state()["f"][..2], b"AB");
    }

    #[test]
    fn delete_is_staged_until_commit() {
        let mut o = FsOracle::new();
        o.create("f");
        o.committed();
        o.delete("f");
        assert!(o.durable_state().contains_key("f"));
        assert!(!o.staged_state().contains_key("f"));
        o.committed();
        assert!(!o.durable_state().contains_key("f"));
    }
}
