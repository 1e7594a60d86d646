//! The ordered KV store: a B-tree of fixed-size pages over a
//! [`PageStore`], with single-writer transactions.
//!
//! All tree mutation happens in a DRAM page cache; `commit` encodes the
//! dirty nodes and hands them to the store as one atomic batch. The meta
//! page (root, allocation frontier, free list) joins the batch only when
//! it differs from the last image known durable — a split, a free or a
//! root collapse — so the committed root is always consistent with the
//! committed pages without rewriting 4 KB of unchanged metadata per
//! commit (the paper's §3 charge against Flashcache, one level up). On
//! `kv_tpcc` that takes the batch from 3.58 to 2.61 pages and the share
//! of commits on the pool's two-phase spanning path from 0.91 to 0.65.
//!
//! Page LSNs stay monotone without the every-commit meta write: the
//! commit sequence is the maximum of the meta page's LSN and every LSN
//! decoded since `open`, and a page is always read before it is
//! rewritten or freed, so no page is ever re-stamped below the LSN it
//! carried — also after a reopen from a meta page older than the tree's
//! newest leaves.
//!
//! There is no programmatic abort: a crash discards DRAM, and the store's
//! recovery guarantees the batch was all-or-nothing — the same contract
//! Tinca gives the journal-free file system, one level up.
//!
//! The page cache is a true LRU, as the paper keeps its own replacement
//! state one level down (§4.6): every access stamps the node from one
//! counter, and a commit that leaves the cache over budget drops the
//! pages with the oldest stamps. A touch adds one store to the lookup it
//! makes anyway; eviction, orders of magnitude rarer on `kv_tpcc`, scans
//! the cache once. The stamps come from a counter, not a clock or
//! a hash, so which pages are evicted — and so every page read — is
//! replay-stable. Every descent, `put` and `delete` included, borrows the
//! nodes it passes; a writer returns to a branch only to change it.
//!
//! Structure policy: nodes split when their encoding would overflow the
//! page; a leaf that empties is freed and unlinked from its parent (a
//! non-root branch that loses every separator survives as a one-child
//! chain node, keeping all leaves at uniform depth), and a root branch
//! with no separator collapses into its single child. `validate` walks
//! the committed tree re-checking exactly these invariants — the crash
//! oracles run it after every recovery.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::ops::Bound;

use crate::page::{
    decode_meta, decode_node, encode_meta, encode_node, is_blank, Meta, Node, MAX_KEY, MAX_VAL,
    PAGE_SIZE,
};
use crate::store::{KvError, PageStore};

/// Decoded pages kept in DRAM after a commit. Dirty pages are pinned
/// until commit, so a transaction may take the cache past it.
const CACHE_PAGES: usize = 1024;

/// An owned key/value pair, as returned by scans.
pub(crate) type KvPair = (Vec<u8>, Vec<u8>);

/// A promoted separator and the new right sibling it points at.
type Split = Option<(Vec<u8>, u32)>;

/// Validation work-list entry: (child page, lower bound, upper bound).
type ChildBounds = (u32, Option<Vec<u8>>, Option<Vec<u8>>);

/// A structural invariant [`Db::validate`] found broken.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// A page id at or past the allocation frontier, reachable or (with
    /// `free`) on the free list.
    BeyondFrontier {
        page: u32,
        frontier: u32,
        free: bool,
    },
    /// A page reachable along two paths.
    ReachableTwice(u32),
    /// A leaf at another depth than the first leaf found.
    LeafDepth {
        page: u32,
        depth: usize,
        expected: usize,
    },
    /// A leaf key (or, with `leaf` false, a branch separator) outside the
    /// bounds its parent's separators give.
    OutsideBounds { page: u32, key: Vec<u8>, leaf: bool },
    /// A page both reachable and on the free list.
    FreeAndReachable(u32),
    /// A reachable page failed to read or decode.
    Corrupt(KvError),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::BeyondFrontier {
                page,
                frontier,
                free,
            } => {
                let free = if *free { "free " } else { "" };
                write!(f, "{free}page {page} beyond allocation frontier {frontier}")
            }
            TreeError::ReachableTwice(page) => write!(f, "page {page} reachable twice"),
            TreeError::LeafDepth {
                page,
                depth,
                expected,
            } => write!(f, "leaf {page} at depth {depth}, expected {expected}"),
            TreeError::OutsideBounds {
                page,
                key,
                leaf: true,
            } => write!(f, "leaf {page} key {key:?} outside separator bounds"),
            TreeError::OutsideBounds { page, key, .. } => {
                write!(f, "branch {page} separator {key:?} outside bounds")
            }
            TreeError::FreeAndReachable(page) => {
                write!(f, "page {page} is both reachable and on the free list")
            }
            TreeError::Corrupt(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for TreeError {}

/// A decoded node and the tick of its last use.
struct Cached {
    node: Node,
    used: u64,
}

/// An embedded ordered KV store over a [`PageStore`].
pub struct Db<S: PageStore> {
    store: S,
    /// Decoded node cache, each node stamped with its last use; the
    /// oldest stamps are evicted first.
    cache: BTreeMap<u32, Cached>,
    /// The stamp counter: one tick per node access.
    tick: u64,
    dirty: BTreeSet<u32>,
    meta: Meta,
    /// The last meta image a successful commit made durable (what `open`
    /// decoded, on an existing store). Page 0 rides in a batch only when
    /// `meta` differs from it.
    durable_meta: Meta,
    commit_seq: u64,
    in_txn: bool,
    /// Commit batch slots, kept across commits: every encoder overwrites
    /// its whole page, so a slot is reused as it is instead of being
    /// zeroed and moved into a fresh batch each time.
    batch: Vec<(u32, [u8; PAGE_SIZE])>,
}

impl<S: PageStore> Db<S> {
    /// Opens (or formats) a store. A blank page 0 means a fresh store:
    /// an empty root leaf and the meta page are committed immediately,
    /// so even a never-written database recovers to a valid tree.
    pub fn open(mut store: S) -> Result<Db<S>, KvError> {
        let mut buf = [0u8; PAGE_SIZE];
        store.read_page(0, &mut buf)?;
        let fresh = is_blank(&buf);
        let (meta, durable_meta, commit_seq) = if fresh {
            let meta = Meta {
                root: 1,
                page_count: 2,
                free: Vec::new(),
            };
            // Nothing is durable yet: the first batch carries page 0.
            (meta, Meta::default(), 0)
        } else {
            let (meta, lsn) = decode_meta(&buf).map_err(|err| KvError::Corrupt { page: 0, err })?;
            (meta.clone(), meta, lsn)
        };
        let mut db = Db {
            store,
            cache: BTreeMap::new(),
            tick: 0,
            dirty: BTreeSet::new(),
            meta,
            durable_meta,
            commit_seq,
            in_txn: false,
            batch: Vec::new(),
        };
        if fresh {
            db.stage(1, Node::Leaf(Vec::new()));
            db.write_batch()?;
        }
        Ok(db)
    }

    /// The underlying store (device-stats access).
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable store access (crash harnesses arm trips and run
    /// device-level checks through this; the store's pages are not
    /// touched behind the cache's back).
    pub(crate) fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consumes the database, returning the store.
    pub fn into_store(self) -> S {
        self.store
    }

    /// The tree's root, allocation frontier and free list as staged in
    /// DRAM. Page 0 joins a commit exactly when this differs from the last
    /// durable image.
    pub fn meta(&self) -> &Meta {
        &self.meta
    }

    /// The LSN of the last commit: the stamp on every page it wrote.
    /// After a reopen it restarts from the newest LSN read back so far
    /// (the meta page's at first), never from zero.
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    // -- transaction lifecycle ---------------------------------------------

    /// Starts the (single) writer transaction.
    pub fn begin(&mut self) -> Result<(), KvError> {
        if self.in_txn {
            return Err(KvError::TxnState("begin inside an open transaction"));
        }
        self.in_txn = true;
        Ok(())
    }

    /// Commits the open transaction: encodes every dirty node — and the
    /// meta page, if it changed — and applies them through the store as
    /// one atomic batch. A read-only transaction commits without touching
    /// the store.
    pub fn commit(&mut self) -> Result<(), KvError> {
        if !self.in_txn {
            return Err(KvError::TxnState("commit with no open transaction"));
        }
        // A root collapse can free every page the transaction dirtied: the
        // meta change alone is then the whole commit.
        if !self.dirty.is_empty() || self.meta != self.durable_meta {
            self.write_batch()?;
        }
        self.in_txn = false;
        self.evict();
        Ok(())
    }

    fn write_batch(&mut self) -> Result<(), KvError> {
        self.commit_seq += 1;
        let lsn = self.commit_seq;
        let meta_changed = self.meta != self.durable_meta;
        let pages = self.dirty.len() + usize::from(meta_changed);
        if self.batch.len() < pages {
            self.batch.resize(pages, (0, [0u8; PAGE_SIZE]));
        }
        // Each image is encoded in place, in its slot of the batch.
        let mut slots = self.batch.iter_mut();
        if meta_changed {
            if let Some((id, page)) = slots.next() {
                *id = 0;
                encode_meta(&self.meta, lsn, page)
                    .map_err(|err| KvError::Corrupt { page: 0, err })?;
            }
        }
        for (&id, (slot_id, page)) in self.dirty.iter().zip(slots) {
            let cached = self.cache.get(&id).ok_or(KvError::TxnState(
                "dirty page missing from cache (internal bug)",
            ))?;
            *slot_id = id;
            encode_node(&cached.node, lsn, page)
                .map_err(|err| KvError::Corrupt { page: id, err })?;
        }
        self.store.commit_pages(&self.batch[..pages])?;
        // Only a successful commit moves the durable image: after an error
        // the next batch carries page 0 again.
        if meta_changed {
            self.durable_meta.clone_from(&self.meta);
        }
        self.dirty.clear();
        Ok(())
    }

    /// Drops the least recently used decoded pages until the cache fits
    /// its budget again. It runs only after a commit, when no page is
    /// dirty, so every cached page is a candidate.
    fn evict(&mut self) {
        let excess = self.cache.len().saturating_sub(CACHE_PAGES);
        if excess == 0 {
            return;
        }
        let mut by_use: Vec<(u64, u32)> = self
            .cache
            .iter()
            .map(|(&id, cached)| (cached.used, id))
            .collect();
        // Stamps are unique, so the victims are exactly the `excess`
        // oldest pages, in whatever order the selection leaves them.
        by_use.select_nth_unstable(excess - 1);
        for (_, id) in &by_use[..excess] {
            self.cache.remove(id);
        }
    }

    // -- node access -------------------------------------------------------

    /// Faults page `id` into the cache, stamps it as just used, and
    /// borrows it there.
    fn node(&mut self, id: u32) -> Result<&mut Node, KvError> {
        self.tick += 1;
        let used = self.tick;
        let cached = match self.cache.entry(id) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => {
                let node = load_node(&mut self.store, &mut self.commit_seq, id)?;
                v.insert(Cached { node, used })
            }
        };
        cached.used = used;
        Ok(&mut cached.node)
    }

    /// Caches a new or replaced node as just used and dirty.
    fn stage(&mut self, id: u32, node: Node) {
        self.tick += 1;
        let used = self.tick;
        self.cache.insert(id, Cached { node, used });
        self.dirty.insert(id);
    }

    fn alloc(&mut self) -> Result<u32, KvError> {
        if let Some(id) = self.meta.free.pop() {
            return Ok(id);
        }
        if self.meta.page_count >= self.store.page_capacity() {
            return Err(KvError::Full);
        }
        let id = self.meta.page_count;
        self.meta.page_count += 1;
        Ok(id)
    }

    fn free_page(&mut self, id: u32) {
        self.cache.remove(&id);
        self.dirty.remove(&id);
        if self.meta.free.len() < Meta::free_capacity() {
            self.meta.free.push(id);
        }
        // Beyond the meta page's free-list capacity the id leaks — a
        // documented bound the workloads never reach.
    }

    // -- reads -------------------------------------------------------------

    /// Point lookup.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        let mut id = self.meta.root;
        loop {
            id = match self.node(id)? {
                Node::Leaf(entries) => {
                    return Ok(entries
                        .binary_search_by(|(k, _)| k.as_slice().cmp(key))
                        .ok()
                        .map(|i| entries[i].1.clone()));
                }
                Node::Branch { first, seps } => child_for(*first, seps, key),
            };
        }
    }

    /// Ordered range scan over `[lo, hi)`; `None` bounds are open.
    pub fn scan(&mut self, lo: Bound<&[u8]>, hi: Bound<&[u8]>) -> Result<Vec<KvPair>, KvError> {
        let mut out = Vec::new();
        let root = self.meta.root;
        self.scan_rec(root, lo, hi, &mut out)?;
        Ok(out)
    }

    /// The full committed-and-staged contents — what the crash oracles
    /// diff against their expected maps.
    pub fn scan_all(&mut self) -> Result<Vec<KvPair>, KvError> {
        self.scan(Bound::Unbounded, Bound::Unbounded)
    }

    fn scan_rec(
        &mut self,
        id: u32,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
        out: &mut Vec<KvPair>,
    ) -> Result<(), KvError> {
        let kids: Vec<u32> = match self.node(id)? {
            Node::Leaf(entries) => {
                for (k, v) in entries.iter() {
                    if in_lo(lo, k) && in_hi(hi, k) {
                        out.push((k.clone(), v.clone()));
                    }
                }
                return Ok(());
            }
            Node::Branch { first, seps } => {
                // Child i covers [seps[i-1].0, seps[i].0) (open-ended at
                // the edges); prune subtrees wholly outside the range.
                let lower = |i: usize| -> Option<&[u8]> {
                    if i == 0 {
                        None
                    } else {
                        Some(seps[i - 1].0.as_slice())
                    }
                };
                let upper = |i: usize| -> Option<&[u8]> { seps.get(i).map(|(k, _)| k.as_slice()) };
                std::iter::once(*first)
                    .chain(seps.iter().map(|(_, c)| *c))
                    .enumerate()
                    .filter(|&(i, _)| {
                        let below = matches!((upper(i), lo), (Some(u), Bound::Included(l)) if u <= l)
                            || matches!((upper(i), lo), (Some(u), Bound::Excluded(l)) if u <= l);
                        let above = match (lower(i), hi) {
                            (Some(l), Bound::Included(h)) => l > h,
                            (Some(l), Bound::Excluded(h)) => l >= h,
                            _ => false,
                        };
                        !below && !above
                    })
                    .map(|(_, child)| child)
                    .collect()
            }
        };
        for child in kids {
            self.scan_rec(child, lo, hi, out)?;
        }
        Ok(())
    }

    // -- writes ------------------------------------------------------------

    /// Inserts or replaces `key`.
    pub fn put(&mut self, key: &[u8], val: &[u8]) -> Result<(), KvError> {
        if !self.in_txn {
            return Err(KvError::TxnState("put outside a transaction"));
        }
        if key.is_empty() || key.len() > MAX_KEY {
            return Err(KvError::KeyTooLarge(key.len()));
        }
        if val.len() > MAX_VAL {
            return Err(KvError::ValTooLarge(val.len()));
        }
        let root = self.meta.root;
        if let Some((sep, right)) = self.insert_rec(root, key, val)? {
            // Root split: grow the tree by one level.
            let new_root = self.alloc()?;
            self.stage(
                new_root,
                Node::Branch {
                    first: root,
                    seps: vec![(sep, right)],
                },
            );
            self.meta.root = new_root;
        }
        Ok(())
    }

    /// Inserts below page `id`; returns the split to promote if `id`
    /// overflowed.
    fn insert_rec(&mut self, id: u32, key: &[u8], val: &[u8]) -> Result<Split, KvError> {
        let (sep, new_child) = match self.node(id)? {
            Node::Leaf(entries) => {
                match entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) {
                    Ok(i) => entries[i].1 = val.to_vec(),
                    Err(i) => entries.insert(i, (key.to_vec(), val.to_vec())),
                }
                self.dirty.insert(id);
                return self.split_if_full(id);
            }
            Node::Branch { first, seps } => {
                let child = child_for(*first, seps, key);
                match self.insert_rec(child, key, val)? {
                    Some(promoted) => promoted,
                    None => return Ok(None),
                }
            }
        };
        // The child split: this branch takes the promoted separator.
        let Node::Branch { seps, .. } = self.node(id)? else {
            return Err(KvError::TxnState("branch changed kind (internal bug)"));
        };
        let pos = seps.partition_point(|(k, _)| k.as_slice() <= sep.as_slice());
        seps.insert(pos, (sep, new_child));
        self.dirty.insert(id);
        self.split_if_full(id)
    }

    /// Splits page `id` if its encoding overflows: a leaf at its byte
    /// midpoint, a branch at its middle separator, which moves up.
    fn split_if_full(&mut self, id: u32) -> Result<Split, KvError> {
        if self.node(id)?.fits() {
            return Ok(None);
        }
        let right = self.alloc()?;
        let (sep, right_node) = match self.node(id)? {
            Node::Leaf(entries) => {
                let right_entries = split_half(entries);
                (right_entries[0].0.clone(), Node::Leaf(right_entries))
            }
            Node::Branch { seps, .. } => {
                let mut right_seps = seps.split_off(seps.len() / 2);
                let (promote_key, right_first) = right_seps.remove(0);
                let right_node = Node::Branch {
                    first: right_first,
                    seps: right_seps,
                };
                (promote_key, right_node)
            }
        };
        self.stage(right, right_node);
        Ok(Some((sep, right)))
    }

    /// Removes `key`; returns whether it was present.
    pub fn delete(&mut self, key: &[u8]) -> Result<bool, KvError> {
        if !self.in_txn {
            return Err(KvError::TxnState("delete outside a transaction"));
        }
        let root = self.meta.root;
        let (removed, emptied) = self.delete_rec(root, key)?;
        if emptied {
            // The whole tree emptied: reset the root to an empty leaf in
            // place (the root id never dangles).
            self.stage(root, Node::Leaf(Vec::new()));
        }
        // A root branch left with no separator collapses into its single
        // child, shrinking every path uniformly.
        loop {
            let first = match self.node(self.meta.root)? {
                Node::Branch { first, seps } if seps.is_empty() => *first,
                _ => break,
            };
            self.free_page(self.meta.root);
            self.meta.root = first;
        }
        Ok(removed)
    }

    /// Returns `(removed, subtree_now_empty)`.
    fn delete_rec(&mut self, id: u32, key: &[u8]) -> Result<(bool, bool), KvError> {
        let child = match self.node(id)? {
            Node::Leaf(entries) => {
                let Ok(i) = entries.binary_search_by(|(k, _)| k.as_slice().cmp(key)) else {
                    return Ok((false, false));
                };
                entries.remove(i);
                let empty = entries.is_empty();
                self.dirty.insert(id);
                return Ok((true, empty));
            }
            Node::Branch { first, seps } => child_for(*first, seps, key),
        };
        let (removed, child_empty) = self.delete_rec(child, key)?;
        if !child_empty {
            return Ok((removed, false));
        }
        // Unlink and free the emptied child.
        self.free_page(child);
        let Node::Branch { first, seps } = self.node(id)? else {
            return Err(KvError::TxnState("branch changed kind (internal bug)"));
        };
        let now_empty = if *first == child {
            if let Some(c) = seps.first().map(|(_, c)| *c) {
                *first = c;
                seps.remove(0);
                false
            } else {
                // Childless non-root branch: report empty so the parent
                // unlinks us too.
                true
            }
        } else if let Some(pos) = seps.iter().position(|(_, c)| *c == child) {
            seps.remove(pos);
            false
        } else {
            return Err(KvError::TxnState("freed child not found in parent"));
        };
        self.dirty.insert(id);
        Ok((removed, now_empty))
    }

    // -- validation (crash-oracle support) ---------------------------------

    /// Walks the tree re-checking structural invariants: every reachable
    /// page decodes (magic + CRC + sorted keys), separators bound their
    /// subtrees, all leaves sit at the same depth, no page is reachable
    /// twice or also on the free list, and every id is inside the
    /// allocation frontier.
    pub fn validate(&mut self) -> Result<(), TreeError> {
        let mut seen = BTreeSet::new();
        let root = self.meta.root;
        let mut leaf_depth = None;
        self.validate_rec(root, None, None, 0, &mut seen, &mut leaf_depth)?;
        let frontier = self.meta.page_count;
        for &page in &self.meta.free {
            if seen.contains(&page) {
                return Err(TreeError::FreeAndReachable(page));
            }
            if page >= frontier {
                return Err(TreeError::BeyondFrontier {
                    page,
                    frontier,
                    free: true,
                });
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn validate_rec(
        &mut self,
        id: u32,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        depth: usize,
        seen: &mut BTreeSet<u32>,
        leaf_depth: &mut Option<usize>,
    ) -> Result<(), TreeError> {
        if id >= self.meta.page_count {
            return Err(TreeError::BeyondFrontier {
                page: id,
                frontier: self.meta.page_count,
                free: false,
            });
        }
        if !seen.insert(id) {
            return Err(TreeError::ReachableTwice(id));
        }
        let in_bounds =
            |k: &[u8]| -> bool { lo.is_none_or(|l| k >= l) && hi.is_none_or(|h| k < h) };
        let outside = |key: &[u8], leaf: bool| TreeError::OutsideBounds {
            page: id,
            key: key.to_vec(),
            leaf,
        };
        let children: Vec<ChildBounds> = match self.node(id).map_err(TreeError::Corrupt)? {
            Node::Leaf(entries) => {
                match *leaf_depth {
                    None => *leaf_depth = Some(depth),
                    Some(expected) if expected != depth => {
                        return Err(TreeError::LeafDepth {
                            page: id,
                            depth,
                            expected,
                        });
                    }
                    _ => {}
                }
                return entries
                    .iter()
                    .find(|(k, _)| !in_bounds(k))
                    .map_or(Ok(()), |(k, _)| Err(outside(k, true)));
            }
            Node::Branch { first, seps } => {
                if let Some((k, _)) = seps.iter().find(|(k, _)| !in_bounds(k)) {
                    return Err(outside(k, false));
                }
                let mut out = Vec::with_capacity(seps.len() + 1);
                let mut prev_lo: Option<Vec<u8>> = lo.map(<[u8]>::to_vec);
                for i in 0..=seps.len() {
                    let child = if i == 0 { *first } else { seps[i - 1].1 };
                    let upper = seps
                        .get(i)
                        .map(|(k, _)| k.clone())
                        .or_else(|| hi.map(<[u8]>::to_vec));
                    out.push((child, prev_lo.clone(), upper.clone()));
                    prev_lo = seps.get(i).map(|(k, _)| k.clone());
                }
                out
            }
        };
        for (child, clo, chi) in children {
            self.validate_rec(
                child,
                clo.as_deref(),
                chi.as_deref(),
                depth + 1,
                seen,
                leaf_depth,
            )?;
        }
        Ok(())
    }
}

/// Reads and decodes page `id`, folding its LSN into the commit sequence
/// so the next commit stamps above every page read back so far.
fn load_node<S: PageStore>(store: &mut S, commit_seq: &mut u64, id: u32) -> Result<Node, KvError> {
    let mut buf = [0u8; PAGE_SIZE];
    store.read_page(id, &mut buf)?;
    let (node, lsn) = decode_node(&buf).map_err(|err| KvError::Corrupt { page: id, err })?;
    *commit_seq = (*commit_seq).max(lsn);
    Ok(node)
}

/// The child of a branch that covers `key`.
fn child_for(first: u32, seps: &[(Vec<u8>, u32)], key: &[u8]) -> u32 {
    let pos = seps.partition_point(|(k, _)| k.as_slice() <= key);
    if pos == 0 {
        first
    } else {
        seps[pos - 1].1
    }
}

/// Splits `entries` at the byte-size midpoint; returns the right half.
fn split_half(entries: &mut Vec<(Vec<u8>, Vec<u8>)>) -> Vec<(Vec<u8>, Vec<u8>)> {
    let total: usize = entries.iter().map(|(k, v)| 3 + k.len() + v.len()).sum();
    let mut acc = 0usize;
    let mut split_at = entries.len() / 2; // fallback: count midpoint
    for (i, (k, v)) in entries.iter().enumerate() {
        acc += 3 + k.len() + v.len();
        if acc >= total / 2 {
            split_at = i + 1;
            break;
        }
    }
    let split_at = split_at.clamp(1, entries.len() - 1);
    entries.split_off(split_at)
}

fn in_lo(lo: Bound<&[u8]>, k: &[u8]) -> bool {
    match lo {
        Bound::Included(l) => k >= l,
        Bound::Excluded(l) => k > l,
        Bound::Unbounded => true,
    }
}

fn in_hi(hi: Bound<&[u8]>, k: &[u8]) -> bool {
    match hi {
        Bound::Included(h) => k <= h,
        Bound::Excluded(h) => k < h,
        Bound::Unbounded => true,
    }
}
