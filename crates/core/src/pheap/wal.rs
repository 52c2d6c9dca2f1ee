//! On-MRAM formats for the persistent heap: superblock, write-ahead log
//! and root table.
//!
//! Everything is little-endian `u64` words guarded by FNV-1a checksums.
//! The WAL holds **one** transaction at a time (the heap persists
//! synchronously), laid out at `wal_off`:
//!
//! ```text
//! [ txn header | record* | commit ]
//!   header (32 B):  WAL_MAGIC, seq, n_records, body_len
//!   record:         id, home_off, len, crc(payload)   (32 B header)
//!                   payload, zero-padded to 8 bytes
//!   commit (24 B):  COMMIT_MAGIC, seq, crc(seq ‖ n ‖ record crcs)
//! ```
//!
//! The commit record is written by a **separate** MRAM write after a
//! durability barrier, so a crash can only produce (a) no new header,
//! (b) a torn header/body, or (c) header+body without commit — all of
//! which [`parse_txn`] classifies as non-committed and recovery
//! discards. Stale bytes from an older, longer transaction may trail a
//! newer one; the per-record and commit checksums keep them from ever
//! parsing as part of it.

use std::collections::BTreeMap;

use super::alloc::PAllocator;
use super::object::ObjectMeta;

pub(crate) const SB_MAGIC: u64 = 0x5650_494d_5048_5031; // "VPIMPHP1"
pub(crate) const WAL_MAGIC: u64 = 0x5650_494d_5741_4c31; // "VPIMWAL1"
pub(crate) const COMMIT_MAGIC: u64 = 0x5650_494d_434d_5431; // "VPIMCMT1"
pub(crate) const ROOT_MAGIC: u64 = 0x5650_494d_524f_4f54; // "VPIMROOT"

/// Record id carried by the root-table record of every transaction.
pub(crate) const ROOT_RECORD_ID: u64 = u64::MAX;

pub(crate) const SB_LEN: u64 = 80;
pub(crate) const TXN_HEADER_LEN: u64 = 32;
pub(crate) const REC_HEADER_LEN: u64 = 32;
pub(crate) const COMMIT_LEN: u64 = 24;

/// FNV-1a over `bytes` — the integrity check for payloads and tables.
#[must_use]
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn put(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get(bytes: &[u8], word: usize) -> u64 {
    let i = word * 8;
    u64::from_le_bytes(bytes[i..i + 8].try_into().expect("8-byte word"))
}

/// The fixed MRAM placement of one heap instance, stored in (and
/// re-read from) the superblock so `recover` needs only the base offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Geometry {
    pub sb_off: u64,
    pub wal_off: u64,
    pub wal_size: u64,
    pub root_off: u64,
    pub root_size: u64,
    pub data_off: u64,
    pub data_size: u64,
}

impl Geometry {
    /// Lays the regions out contiguously from `base`.
    pub(crate) fn from_base(base: u64, wal_size: u64, root_size: u64, data_size: u64) -> Self {
        let sb_off = base;
        let wal_off = sb_off + SB_LEN;
        let root_off = wal_off + wal_size;
        let data_off = root_off + root_size;
        Geometry { sb_off, wal_off, wal_size, root_off, root_size, data_off, data_size }
    }

    /// One past the last MRAM byte the heap owns.
    pub(crate) fn end(&self) -> u64 {
        self.data_off + self.data_size
    }
}

/// Superblock: geometry plus the sequence number of the last transaction
/// whose records were applied to their home locations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Superblock {
    pub geom: Geometry,
    pub applied_seq: u64,
}

impl Superblock {
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(SB_LEN as usize);
        put(&mut out, SB_MAGIC);
        put(&mut out, 1); // version
        put(&mut out, self.geom.wal_off);
        put(&mut out, self.geom.wal_size);
        put(&mut out, self.geom.root_off);
        put(&mut out, self.geom.root_size);
        put(&mut out, self.geom.data_off);
        put(&mut out, self.geom.data_size);
        put(&mut out, self.applied_seq);
        let crc = fnv64(&out);
        put(&mut out, crc);
        out
    }

    /// Decodes and validates a superblock read at `sb_off`.
    pub(crate) fn decode(bytes: &[u8], sb_off: u64) -> Option<Superblock> {
        if bytes.len() < SB_LEN as usize {
            return None;
        }
        if get(bytes, 0) != SB_MAGIC || get(bytes, 1) != 1 {
            return None;
        }
        if fnv64(&bytes[..72]) != get(bytes, 9) {
            return None;
        }
        Some(Superblock {
            geom: Geometry {
                sb_off,
                wal_off: get(bytes, 2),
                wal_size: get(bytes, 3),
                root_off: get(bytes, 4),
                root_size: get(bytes, 5),
                data_off: get(bytes, 6),
                data_size: get(bytes, 7),
            },
            applied_seq: get(bytes, 8),
        })
    }
}

/// One WAL record: `payload` destined for absolute MRAM `home_off`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WalRecord {
    pub id: u64,
    pub home_off: u64,
    pub payload: Vec<u8>,
}

/// Encodes a transaction, returning `(body, commit)` — body is header +
/// records and is written first; commit is written separately after the
/// durability barrier. The commit's MRAM offset is `wal_off + body.len()`.
pub(crate) fn encode_txn(seq: u64, records: &[WalRecord]) -> (Vec<u8>, Vec<u8>) {
    let mut body = Vec::new();
    put(&mut body, WAL_MAGIC);
    put(&mut body, seq);
    put(&mut body, records.len() as u64);
    let body_len_at = body.len();
    put(&mut body, 0); // body_len patched below
    let mut crcs = Vec::new();
    put(&mut crcs, seq);
    put(&mut crcs, records.len() as u64);
    for r in records {
        let crc = fnv64(&r.payload);
        put(&mut body, r.id);
        put(&mut body, r.home_off);
        put(&mut body, r.payload.len() as u64);
        put(&mut body, crc);
        body.extend_from_slice(&r.payload);
        body.resize(body.len().next_multiple_of(8), 0);
        put(&mut crcs, crc);
    }
    let body_len = (body.len() as u64) - TXN_HEADER_LEN;
    body[body_len_at..body_len_at + 8].copy_from_slice(&body_len.to_le_bytes());

    let mut commit = Vec::with_capacity(COMMIT_LEN as usize);
    put(&mut commit, COMMIT_MAGIC);
    put(&mut commit, seq);
    put(&mut commit, fnv64(&crcs));
    (body, commit)
}

/// What a WAL region scan found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum WalParse {
    /// No transaction header at all (fresh heap).
    Empty,
    /// A header for `seq` whose body or commit record does not check out:
    /// a torn append or a dropped commit. Recovery discards it.
    Torn { seq: u64 },
    /// A fully committed transaction.
    Committed { seq: u64, records: Vec<WalRecord> },
}

/// Parses the WAL region (`wal_size` bytes read at `wal_off`).
pub(crate) fn parse_txn(wal: &[u8]) -> WalParse {
    if wal.len() < TXN_HEADER_LEN as usize || get(wal, 0) != WAL_MAGIC {
        return WalParse::Empty;
    }
    let seq = get(wal, 1);
    let n_records = get(wal, 2);
    let body_len = get(wal, 3);
    let body_end = TXN_HEADER_LEN + body_len;
    if body_end + COMMIT_LEN > wal.len() as u64 {
        return WalParse::Torn { seq };
    }
    // Walk the records, checking each against its own checksum; any
    // mismatch (old bytes shining through a torn append) is a torn txn.
    let mut records = Vec::new();
    let mut crcs = Vec::new();
    put(&mut crcs, seq);
    put(&mut crcs, n_records);
    let mut pos = TXN_HEADER_LEN;
    for _ in 0..n_records {
        if pos + REC_HEADER_LEN > body_end {
            return WalParse::Torn { seq };
        }
        let at = (pos / 8) as usize;
        let (id, home_off, len, crc) =
            (get(wal, at), get(wal, at + 1), get(wal, at + 2), get(wal, at + 3));
        pos += REC_HEADER_LEN;
        let padded = (len + 7) & !7;
        if pos + padded > body_end {
            return WalParse::Torn { seq };
        }
        let payload = wal[pos as usize..(pos + len) as usize].to_vec();
        if fnv64(&payload) != crc {
            return WalParse::Torn { seq };
        }
        put(&mut crcs, crc);
        records.push(WalRecord { id, home_off, payload });
        pos += padded;
    }
    if pos != body_end {
        return WalParse::Torn { seq };
    }
    let c = (body_end / 8) as usize;
    if get(wal, c) != COMMIT_MAGIC || get(wal, c + 1) != seq || get(wal, c + 2) != fnv64(&crcs) {
        return WalParse::Torn { seq };
    }
    WalParse::Committed { seq, records }
}

/// Serializes the root table: object directory plus allocator state.
/// Written as the final record of every transaction, so the directory
/// and the data it points at commit atomically. Self-delimiting (a byte
/// length follows the magic) because it is read back from the
/// fixed-size root region with stale bytes trailing it.
pub(crate) fn encode_root(
    next_id: u64,
    alloc: &PAllocator,
    objects: &BTreeMap<u64, ObjectMeta>,
) -> Vec<u8> {
    let mut out = Vec::new();
    put(&mut out, ROOT_MAGIC);
    let len_at = out.len();
    put(&mut out, 0); // byte length, patched below
    put(&mut out, next_id);
    put(&mut out, alloc.bump());
    put(&mut out, alloc.free_spans().len() as u64);
    for &(off, len) in alloc.free_spans() {
        put(&mut out, off);
        put(&mut out, len);
    }
    put(&mut out, objects.len() as u64);
    for (&id, m) in objects {
        put(&mut out, id);
        put(&mut out, m.off);
        put(&mut out, m.len);
    }
    let total = (out.len() + 8) as u64;
    out[len_at..len_at + 8].copy_from_slice(&total.to_le_bytes());
    let crc = fnv64(&out);
    put(&mut out, crc);
    out
}

/// Decoded root table.
pub(crate) struct RootTable {
    pub next_id: u64,
    pub bump: u64,
    pub free: Vec<(u64, u64)>,
    pub objects: BTreeMap<u64, ObjectMeta>,
}

/// Decodes and validates a root table (`None` on any corruption). The
/// slice may extend past the table (a full root-region read).
pub(crate) fn decode_root(bytes: &[u8]) -> Option<RootTable> {
    if bytes.len() < 56 || get(bytes, 0) != ROOT_MAGIC {
        return None;
    }
    let total = get(bytes, 1);
    if !total.is_multiple_of(8) || total < 56 || total > bytes.len() as u64 {
        return None;
    }
    let bytes = &bytes[..total as usize];
    let words = bytes.len() / 8;
    if fnv64(&bytes[..(words - 1) * 8]) != get(bytes, words - 1) {
        return None;
    }
    let next_id = get(bytes, 2);
    let bump = get(bytes, 3);
    let n_free = get(bytes, 4) as usize;
    let mut at = 5;
    if words < 5 + n_free * 2 + 2 {
        return None;
    }
    let mut free = Vec::with_capacity(n_free);
    for _ in 0..n_free {
        free.push((get(bytes, at), get(bytes, at + 1)));
        at += 2;
    }
    let n_objects = get(bytes, at) as usize;
    at += 1;
    if words != at + n_objects * 3 + 1 {
        return None;
    }
    let mut objects = BTreeMap::new();
    for _ in 0..n_objects {
        objects.insert(
            get(bytes, at),
            ObjectMeta { off: get(bytes, at + 1), len: get(bytes, at + 2) },
        );
        at += 3;
    }
    Some(RootTable { next_id, bump, free, objects })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn superblock_roundtrip_and_corruption() {
        let sb = Superblock {
            geom: Geometry::from_base(1 << 20, 4096, 1024, 65536),
            applied_seq: 7,
        };
        let bytes = sb.encode();
        assert_eq!(Superblock::decode(&bytes, 1 << 20), Some(sb));
        let mut bad = bytes.clone();
        bad[40] ^= 1;
        assert_eq!(Superblock::decode(&bad, 1 << 20), None);
    }

    #[test]
    fn txn_roundtrip_and_torn_tails() {
        let recs = vec![
            WalRecord { id: 1, home_off: 100, payload: vec![1, 2, 3] },
            WalRecord { id: 2, home_off: 200, payload: vec![9; 16] },
        ];
        let (body, commit) = encode_txn(5, &recs);
        let mut wal = body.clone();
        wal.extend_from_slice(&commit);
        wal.resize(1024, 0xAA); // stale trailing bytes must not matter
        assert_eq!(parse_txn(&wal), WalParse::Committed { seq: 5, records: recs });
        // Every proper prefix is torn (or empty below the header).
        for cut in 8..body.len() + commit.len() {
            let mut torn = wal.clone();
            for b in torn.iter_mut().skip(cut).take(1024 - cut) {
                *b = 0x55; // "old" bytes beyond the tear
            }
            match parse_txn(&torn) {
                WalParse::Torn { .. } | WalParse::Empty => {}
                other => panic!("cut at {cut} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn root_roundtrip() {
        let mut objects = BTreeMap::new();
        objects.insert(3, ObjectMeta { off: 4096, len: 33 });
        objects.insert(9, ObjectMeta { off: 8192, len: 8 });
        let alloc = PAllocator::from_parts(4096, 65536, 128, vec![(40, 16)]);
        let mut bytes = encode_root(10, &alloc, &objects);
        let exact = bytes.len();
        bytes.resize(exact + 64, 0xEE); // stale region tail must not matter
        let rt = decode_root(&bytes).unwrap();
        assert_eq!((rt.next_id, rt.bump), (10, 128));
        assert_eq!(rt.free, vec![(40, 16)]);
        assert_eq!(rt.objects, objects);
        assert!(decode_root(&bytes[..exact - 8]).is_none());
    }
}
