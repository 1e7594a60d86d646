//! The 16-byte cache entry (§4.2, Fig. 5).
//!
//! ```text
//!  bits   0..8   flags  (VALID | R role | M modified)
//!  bits   8..64  on-disk block number (7 bytes)
//!  bits  64..96  previous NVM block number (FRESH if none)
//!  bits  96..128 current NVM block number
//! ```
//!
//! An entry is always read and written as one `u128`; persistent updates go
//! through a single 16-byte atomic store (`LOCK cmpxchg16b` in the paper)
//! followed by `clflush` + `sfence`, so an entry can never be observed
//! half-updated after a crash.

/// `prev` value for a block that had no cached previous version (§4.3:
/// "Tinca just creates a new cache entry where the previous NVM block
/// number is set to be a special FRESH tag").
pub(crate) const FRESH: u32 = u32::MAX;

/// The role of a cached block (§4.3). Stored in the entry's R bit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Role {
    /// Block belongs to the ongoing committing transaction; may not be
    /// replaced and must be revoked if the transaction does not complete.
    Log,
    /// Stationary block; eligible for cache replacement.
    Buffer,
}

const FLAG_VALID: u64 = 1 << 0;
const FLAG_LOG: u64 = 1 << 1;
const FLAG_MOD: u64 = 1 << 2;
const DISK_BLK_MAX: u64 = (1 << 56) - 1;

/// Decoded view of a cache entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CacheEntry {
    pub valid: bool,
    pub role: Role,
    /// True if the cached (current) version differs from the disk copy.
    pub modified: bool,
    /// On-disk block number this entry maps.
    pub disk_blk: u64,
    /// NVM block holding the previous version ([`FRESH`] if none).
    pub prev: u32,
    /// NVM block holding the current version.
    pub cur: u32,
}

impl CacheEntry {
    /// An invalid (empty) entry; encodes to all-zero.
    pub(crate) const INVALID: CacheEntry = CacheEntry {
        valid: false,
        role: Role::Buffer,
        modified: false,
        disk_blk: 0,
        prev: 0,
        cur: 0,
    };

    /// Creates a valid entry.
    pub(crate) fn new(role: Role, modified: bool, disk_blk: u64, prev: u32, cur: u32) -> Self {
        assert!(
            disk_blk <= DISK_BLK_MAX,
            "disk block number exceeds 7 bytes"
        );
        CacheEntry {
            valid: true,
            role,
            modified,
            disk_blk,
            prev,
            cur,
        }
    }

    /// Packs the entry into its 16-byte NVM representation.
    pub(crate) fn encode(&self) -> u128 {
        if !self.valid {
            return 0;
        }
        let mut flags = FLAG_VALID;
        if self.role == Role::Log {
            flags |= FLAG_LOG;
        }
        if self.modified {
            flags |= FLAG_MOD;
        }
        let lo = flags | (self.disk_blk << 8);
        let hi = (self.prev as u64) | ((self.cur as u64) << 32);
        (lo as u128) | ((hi as u128) << 64)
    }

    /// Unpacks a 16-byte NVM representation.
    pub(crate) fn decode(raw: u128) -> CacheEntry {
        let lo = raw as u64;
        let hi = (raw >> 64) as u64;
        if lo & FLAG_VALID == 0 {
            return CacheEntry::INVALID;
        }
        CacheEntry {
            valid: true,
            role: if lo & FLAG_LOG != 0 {
                Role::Log
            } else {
                Role::Buffer
            },
            modified: lo & FLAG_MOD != 0,
            disk_blk: lo >> 8,
            prev: hi as u32,
            cur: (hi >> 32) as u32,
        }
    }

    /// The entry after the commit-completion *role switch* (§4.3): the block
    /// leaves the log role and becomes a replaceable buffer block. `prev` is
    /// retained — it is only reclaimed (in DRAM) once `Tail` has moved, so a
    /// crash between role switch and `Tail` can still revoke.
    pub(crate) fn switched_to_buffer(&self) -> CacheEntry {
        CacheEntry {
            role: Role::Buffer,
            ..*self
        }
    }

    /// The entry after revoking an uncommitted update: the previous version
    /// becomes current again. Returns `None` if there was no previous
    /// version (`prev == FRESH`) — the entry must be deleted instead.
    ///
    /// The revoked entry deliberately keeps `prev == cur` (both naming the
    /// restored block). No runtime state ever produces `prev == cur` (a
    /// write hit always allocates a fresh `cur` distinct from `prev`), so
    /// the marker lets a *second* recovery pass — after a crash during the
    /// first — recognise already-revoked entries and skip them, making
    /// recovery idempotent.
    pub(crate) fn revoked(&self) -> Option<CacheEntry> {
        if self.prev == FRESH {
            return None;
        }
        Some(CacheEntry {
            role: Role::Buffer,
            // The previous version had been committed but possibly never
            // written back; treat it as modified so it reaches the disk.
            modified: true,
            prev: self.prev,
            cur: self.prev,
            ..*self
        })
    }

    /// True if this entry is the result of a revocation (see
    /// [`Self::revoked`]): recovery must not process it a second time.
    pub(crate) fn is_revoked_marker(&self) -> bool {
        self.valid && self.prev == self.cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let e = CacheEntry::new(Role::Log, true, 0x00DE_ADBE_EF12_3456, 7, 42);
        assert_eq!(CacheEntry::decode(e.encode()), e);
    }

    #[test]
    fn invalid_is_zero() {
        assert_eq!(CacheEntry::INVALID.encode(), 0);
        assert_eq!(CacheEntry::decode(0), CacheEntry::INVALID);
    }

    #[test]
    fn max_disk_blk_fits() {
        let e = CacheEntry::new(Role::Buffer, false, DISK_BLK_MAX, FRESH, 0);
        let d = CacheEntry::decode(e.encode());
        assert_eq!(d.disk_blk, DISK_BLK_MAX);
    }

    #[test]
    #[should_panic(expected = "7 bytes")]
    fn oversized_disk_blk_rejected() {
        let _ = CacheEntry::new(Role::Buffer, false, 1 << 56, FRESH, 0);
    }

    #[test]
    fn role_switch_preserves_mapping() {
        let e = CacheEntry::new(Role::Log, true, 99, 3, 4);
        let s = e.switched_to_buffer();
        assert_eq!(s.role, Role::Buffer);
        assert_eq!(s.prev, 3, "prev must survive the role switch");
        assert_eq!(s.cur, 4);
        assert!(s.modified);
    }

    #[test]
    fn revoke_restores_previous_version() {
        let e = CacheEntry::new(Role::Log, true, 99, 3, 4);
        let r = e.revoked().unwrap();
        assert_eq!(r.cur, 3);
        assert_eq!(r.prev, 3, "revoked entries carry the prev == cur marker");
        assert!(r.is_revoked_marker());
        assert_eq!(r.role, Role::Buffer);
        assert!(r.modified);
        // Re-revoking must be recognisable, not destructive.
        assert!(!e.is_revoked_marker());
    }

    #[test]
    fn revoke_of_fresh_entry_deletes() {
        let e = CacheEntry::new(Role::Log, true, 99, FRESH, 4);
        assert!(e.revoked().is_none());
    }

    #[test]
    fn flags_are_independent() {
        for role in [Role::Log, Role::Buffer] {
            for modified in [false, true] {
                let e = CacheEntry::new(role, modified, 1, 2, 3);
                let d = CacheEntry::decode(e.encode());
                assert_eq!(d.role, role);
                assert_eq!(d.modified, modified);
            }
        }
    }
}
