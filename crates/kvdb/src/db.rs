//! The ordered KV store: a B-tree of fixed-size pages over a
//! [`PageStore`], with single-writer transactions.
//!
//! All tree mutation happens in a DRAM page cache that holds the pages'
//! bytes: a node is a `Page` view, edited in place (module
//! [`crate::page`]). `commit` seals the dirty pages — stamps the LSN and
//! re-CRCs only the 64 B lines the transaction wrote — and hands them to
//! the store as one atomic batch. The meta page (root, allocation
//! frontier, free list) joins the batch only when it differs from the last
//! image known durable — a split, a free or a root collapse — so the
//! committed root is always consistent with the committed pages without
//! rewriting 4 KB of unchanged metadata per commit (the paper's §3 charge
//! against Flashcache, one level up). On `kv_tpcc` that takes the batch
//! from 3.58 to 2.61 pages and the share of commits on the pool's
//! two-phase spanning path from 0.91 to 0.65.
//!
//! Page LSNs stay monotone without the every-commit meta write: the
//! commit sequence is the maximum of the meta page's LSN and every LSN
//! loaded since `open`, and a page is always read before it is
//! rewritten or freed, so no page is ever re-stamped below the LSN it
//! carried — also after a reopen from a meta page older than the tree's
//! newest leaves.
//!
//! There is no programmatic abort: a crash discards DRAM, and the store's
//! recovery guarantees the batch was all-or-nothing — the same contract
//! Tinca gives the journal-free file system, one level up.
//!
//! The page cache is a table indexed by page id and a true LRU, as the
//! paper keeps its own replacement state one level down (§4.6): every
//! access stamps the page from one counter, and a commit that leaves the
//! cache over budget drops the pages with the oldest stamps. A touch adds
//! one store to the lookup it makes anyway; eviction, orders of magnitude
//! rarer on `kv_tpcc`, scans the table once. The stamps come from a
//! counter, not a clock or a hash, so which pages are evicted — and so
//! every page read — is replay-stable. Every descent, `put` and `delete`
//! included, borrows the pages it passes; a writer returns to a branch
//! only to change it.
//!
//! Structure policy: nodes split when a record would overflow the page; a
//! leaf that empties is freed and unlinked from its parent (a non-root
//! branch that loses every separator survives as a one-child chain node,
//! keeping all leaves at uniform depth), and a root branch with no
//! separator collapses into its single child. `validate` walks the
//! committed tree re-checking exactly these invariants — the crash oracles
//! run it after every recovery.

use std::collections::BTreeSet;
use std::fmt;
use std::ops::Bound;

use crate::page::{
    branch_record, decode_meta, encode_meta, is_blank, leaf_record, Meta, Page, PageError, MAX_KEY,
    MAX_VAL, PAGE_SIZE,
};
use crate::store::{KvError, PageStore};

/// Pages kept in DRAM after a commit. Dirty pages are pinned until
/// commit, so a transaction may take the cache past it.
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

/// A cached page and the tick of its last use.
struct Cached {
    page: Page,
    used: u64,
}

/// An embedded ordered KV store over a [`PageStore`].
pub struct Db<S: PageStore> {
    store: S,
    /// The page cache, indexed by page id, each page stamped with its last
    /// use; the oldest stamps are evicted first.
    cache: Vec<Option<Cached>>,
    /// Pages in `cache`.
    cached: usize,
    /// The stamp counter: one tick per page access.
    tick: u64,
    dirty: BTreeSet<u32>,
    meta: Meta,
    /// The last meta image a successful commit made durable (what `open`
    /// decoded, on an existing store). Page 0 rides in a batch only when
    /// `meta` differs from it.
    durable_meta: Meta,
    commit_seq: u64,
    in_txn: bool,
    /// Commit batch slots, kept across commits: every image overwrites its
    /// whole slot, so a slot is reused as it is instead of being zeroed and
    /// moved into a fresh batch each time.
    batch: Vec<(u32, [u8; PAGE_SIZE])>,
}

fn corrupt(page: u32) -> impl FnOnce(PageError) -> KvError {
    move |err| KvError::Corrupt { page, err }
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
            let (meta, lsn) = decode_meta(&buf).map_err(corrupt(0))?;
            (meta.clone(), meta, lsn)
        };
        let mut db = Db {
            store,
            cache: Vec::new(),
            cached: 0,
            tick: 0,
            dirty: BTreeSet::new(),
            meta,
            durable_meta,
            commit_seq,
            in_txn: false,
            batch: Vec::new(),
        };
        if fresh {
            db.stage(1, Page::build(true, 0, &[]).map_err(corrupt(1))?);
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

    /// Commits the open transaction: seals every dirty page — and encodes
    /// the meta page, if it changed — and applies them through the store as
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
        let mut slots = self.batch.iter_mut();
        if meta_changed {
            if let Some((id, page)) = slots.next() {
                *id = 0;
                encode_meta(&self.meta, lsn, page).map_err(corrupt(0))?;
            }
        }
        for (&id, (slot_id, image)) in self.dirty.iter().zip(slots) {
            let cached = (self.cache.get_mut(id as usize).and_then(Option::as_mut)).ok_or(
                KvError::TxnState("dirty page missing from cache (internal bug)"),
            )?;
            *slot_id = id;
            *image = *cached.page.seal(lsn);
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

    /// Drops the least recently used pages until the cache fits its
    /// budget again. It runs only after a commit, when no page is dirty,
    /// so every cached page is a candidate.
    fn evict(&mut self) {
        let excess = self.cached.saturating_sub(CACHE_PAGES);
        if excess == 0 {
            return;
        }
        let mut by_use: Vec<(u64, u32)> = (self.cache.iter().enumerate())
            .filter_map(|(id, c)| c.as_ref().map(|c| (c.used, id as u32)))
            .collect();
        // Stamps are unique, so the victims are exactly the `excess`
        // oldest pages, in whatever order the selection leaves them.
        by_use.select_nth_unstable(excess - 1);
        for &(_, id) in &by_use[..excess] {
            self.cache[id as usize] = None;
        }
        self.cached -= excess;
    }

    // -- page access -------------------------------------------------------

    /// Faults page `id` into the cache, stamps it as just used, and
    /// borrows it there. The table grows only once a page has loaded, so a
    /// corrupt child id cannot size it.
    fn page(&mut self, id: u32) -> Result<&mut Page, KvError> {
        self.tick += 1;
        let i = id as usize;
        if self.cache.get(i).is_none_or(Option::is_none) {
            let page = load_page(&mut self.store, &mut self.commit_seq, id)?;
            self.put_cached(id, page);
        }
        let cached = (self.cache.get_mut(i).and_then(Option::as_mut))
            .ok_or(KvError::TxnState("page missing from cache (internal bug)"))?;
        cached.used = self.tick;
        Ok(&mut cached.page)
    }

    fn put_cached(&mut self, id: u32, page: Page) {
        let i = id as usize;
        if i >= self.cache.len() {
            self.cache.resize_with(i + 1, || None);
        }
        let used = self.tick;
        if self.cache[i].replace(Cached { page, used }).is_none() {
            self.cached += 1;
        }
    }

    /// Caches a new or replaced page as just used and dirty.
    fn stage(&mut self, id: u32, page: Page) {
        self.tick += 1;
        self.put_cached(id, page);
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
        if let Some(slot) = self.cache.get_mut(id as usize) {
            if slot.take().is_some() {
                self.cached -= 1;
            }
        }
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
            let page = self.page(id)?;
            if page.is_leaf() {
                return Ok(page.search(key).ok().map(|i| page.val(i).to_vec()));
            }
            id = page.child_for(key);
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
        let page = self.page(id)?;
        let n = page.len();
        if page.is_leaf() {
            for i in 0..n {
                let k = page.key(i);
                if in_lo(lo, k) && in_hi(hi, k) {
                    out.push((k.to_vec(), page.val(i).to_vec()));
                }
            }
            return Ok(());
        }
        // Child i covers [key(i-1), key(i)) (open-ended at the edges):
        // visit only the children that can hold a key in range.
        let upper = |k| page.search(k).map_or_else(|i| i, |i| i + 1);
        let from = match lo {
            Bound::Included(l) | Bound::Excluded(l) => upper(l),
            Bound::Unbounded => 0,
        };
        let to = match hi {
            Bound::Included(h) => upper(h),
            Bound::Excluded(h) => page.search(h).unwrap_or_else(|i| i),
            Bound::Unbounded => n,
        };
        let kids: Vec<u32> = (from..=to)
            .map(|i| {
                if i == 0 {
                    page.first()
                } else {
                    page.child(i - 1)
                }
            })
            .collect();
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
            let page = Page::build(false, root, &[branch_record(&sep, right)]);
            self.stage(new_root, page.map_err(corrupt(new_root))?);
            self.meta.root = new_root;
        }
        Ok(())
    }

    /// Inserts below page `id`; returns the split to promote if `id`
    /// overflowed.
    fn insert_rec(&mut self, id: u32, key: &[u8], val: &[u8]) -> Result<Split, KvError> {
        let page = self.page(id)?;
        let (at, rec) = if page.is_leaf() {
            let at = page.search(key);
            if page.put(at, key, val) {
                self.dirty.insert(id);
                return Ok(None);
            }
            (at, leaf_record(key, val))
        } else {
            let child = page.child_for(key);
            let Some((sep, right)) = self.insert_rec(child, key, val)? else {
                return Ok(None);
            };
            // The child split: this branch takes the promoted separator.
            let page = self.page(id)?;
            let at = page.search(&sep).map_or_else(|i| i, |i| i + 1);
            if page.insert_sep(at, &sep, right) {
                self.dirty.insert(id);
                return Ok(None);
            }
            (Err(at), branch_record(&sep, right))
        };
        // The change does not fit: split with it applied.
        let right = self.alloc()?;
        let (sep, right_page) = self.page(id)?.split(at, rec).map_err(corrupt(id))?;
        self.dirty.insert(id);
        self.stage(right, right_page);
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
            self.stage(root, Page::build(true, 0, &[]).map_err(corrupt(root))?);
        }
        // A root branch left with no separator collapses into its single
        // child, shrinking every path uniformly.
        loop {
            let page = self.page(self.meta.root)?;
            if page.is_leaf() || page.len() > 0 {
                break;
            }
            let first = page.first();
            self.free_page(self.meta.root);
            self.meta.root = first;
        }
        Ok(removed)
    }

    /// Returns `(removed, subtree_now_empty)`.
    fn delete_rec(&mut self, id: u32, key: &[u8]) -> Result<(bool, bool), KvError> {
        let page = self.page(id)?;
        if page.is_leaf() {
            let Ok(i) = page.search(key) else {
                return Ok((false, false));
            };
            page.remove(i);
            let empty = page.len() == 0;
            self.dirty.insert(id);
            return Ok((true, empty));
        }
        let child = page.child_for(key);
        let (removed, child_empty) = self.delete_rec(child, key)?;
        if !child_empty {
            return Ok((removed, false));
        }
        // Unlink and free the emptied child.
        self.free_page(child);
        let page = self.page(id)?;
        let now_empty = if page.first() == child {
            if page.len() == 0 {
                // Childless non-root branch: report empty so the parent
                // unlinks us too.
                true
            } else {
                page.set_first(page.child(0));
                page.remove(0);
                false
            }
        } else if let Some(i) = (0..page.len()).position(|i| page.child(i) == child) {
            page.remove(i);
            false
        } else {
            return Err(KvError::TxnState("freed child not found in parent"));
        };
        self.dirty.insert(id);
        Ok((removed, now_empty))
    }

    // -- validation (crash-oracle support) ---------------------------------

    /// Walks the tree re-checking structural invariants: every reachable
    /// page loads (magic + CRC + sorted keys), separators bound their
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
        let page = self.page(id).map_err(TreeError::Corrupt)?;
        let n = page.len();
        let keys = || (0..n).map(|i| page.key(i));
        if page.is_leaf() {
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
            return keys()
                .find(|k| !in_bounds(k))
                .map_or(Ok(()), |k| Err(outside(k, true)));
        }
        if let Some(k) = keys().find(|k| !in_bounds(k)) {
            return Err(outside(k, false));
        }
        let children: Vec<ChildBounds> = (0..=n)
            .map(|i| {
                let child = if i == 0 {
                    page.first()
                } else {
                    page.child(i - 1)
                };
                let lower = if i == 0 {
                    lo.map(<[u8]>::to_vec)
                } else {
                    Some(page.key(i - 1).to_vec())
                };
                let upper = if i < n {
                    Some(page.key(i).to_vec())
                } else {
                    hi.map(<[u8]>::to_vec)
                };
                (child, lower, upper)
            })
            .collect();
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

/// Reads and loads page `id`, folding its LSN into the commit sequence so
/// the next commit stamps above every page read back so far.
fn load_page<S: PageStore>(store: &mut S, commit_seq: &mut u64, id: u32) -> Result<Page, KvError> {
    let mut bytes = Box::new([0u8; PAGE_SIZE]);
    store.read_page(id, &mut bytes)?;
    let (page, lsn) = Page::load(bytes).map_err(corrupt(id))?;
    *commit_seq = (*commit_seq).max(lsn);
    Ok(page)
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::store::StoreStats;

    /// Committed pages in memory; counts page reads.
    #[derive(Default)]
    struct Mem {
        pages: BTreeMap<u32, [u8; PAGE_SIZE]>,
        reads: u64,
        stats: StoreStats,
    }

    impl PageStore for Mem {
        fn read_page(&mut self, id: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<(), KvError> {
            self.reads += 1;
            *buf = self.pages.get(&id).copied().unwrap_or([0; PAGE_SIZE]);
            Ok(())
        }

        fn commit_pages(&mut self, dirty: &[(u32, [u8; PAGE_SIZE])]) -> Result<(), KvError> {
            self.pages.extend(dirty.iter().copied());
            self.stats.commits += 1;
            self.stats.pages_committed += dirty.len() as u64;
            Ok(())
        }

        fn page_capacity(&self) -> u32 {
            u32::MAX
        }

        fn stats(&self) -> StoreStats {
            self.stats
        }
    }

    /// A steady-state commit — same-length updates, the meta page unchanged,
    /// every page cached — computes no full-page CRC: the meta page is not
    /// encoded, nothing is loaded (and so checked), and no dirty page needs
    /// the full seal, which are the only three places a page CRC is taken.
    #[test]
    fn a_steady_state_commit_computes_no_full_page_crc() {
        let key = |i: u32| format!("row-{i:08}").into_bytes();
        let val =
            |i: u32, round: u32| format!("{round:04}/{i:04}/{}", "v".repeat(110)).into_bytes();
        let mut db = Db::open(Mem::default()).unwrap();
        db.begin().unwrap();
        for i in 0..600 {
            db.put(&key(i), &val(i, 0)).unwrap();
        }
        db.commit().unwrap();
        let reads = db.store.reads;
        for round in 1..=50 {
            db.begin().unwrap();
            for i in [round * 7 % 600, round * 131 % 600, round * 313 % 600] {
                db.put(&key(i), &val(i, round)).unwrap();
            }
            assert_eq!(db.meta, db.durable_meta, "round {round}");
            assert!(!db.dirty.is_empty(), "round {round}");
            for &id in &db.dirty {
                let cached = db.cache[id as usize].as_ref().unwrap();
                assert!(!cached.page.full, "round {round}: page {id} full seal");
            }
            db.commit().unwrap();
        }
        assert_eq!(db.store.reads, reads, "pages loaded in the steady state");
        assert_eq!(db.get(&key(7)).unwrap(), Some(val(7, 1)));
    }
}
