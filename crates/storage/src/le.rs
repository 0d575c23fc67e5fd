//! Panic-free little-endian slice decoding, and how a persisted file says
//! what it is.
//!
//! The on-disk formats in this crate (B+ tree pages and footers, log
//! blocks, manifests, bloom filters) are decoded from byte slices whose
//! lengths are usually guaranteed by construction (pages are always
//! [`crate::io::PAGE_SIZE`]). The crate's `clippy::unwrap_used` denial still
//! bans `try_into().unwrap()` there: a corrupt offset must not panic while
//! the reader holds a buffer-cache shard lock. Two flavors are provided:
//!
//! * `u16_at`/`u32_at`/`u64_at` — *defaulting* reads for structurally
//!   bounded offsets: out-of-range reads yield 0, which downstream code
//!   treats as an empty/terminated structure. Use only where the offset is
//!   derived from a compile-time layout over a fixed-size page.
//! * `Cursor` — checked reads of a structure front to back (a trailer, a
//!   manifest, a log block and its records): each read moves past what it
//!   read, and one that runs off the end is [`StorageError::Corrupt`],
//!   naming the offset it stopped at. `try_u16_at`/`try_u32_at`/
//!   `try_u64_at`/`try_bytes_at` are one read of it at a *data-dependent*
//!   offset (entry tables, key lengths).
//!
//! **Format versions.** Every kind of file has one header, a `Format`
//! constant beside its writer holding the bytes this build writes: the
//! B+-tree footer, the spatial B+-tree footer, the manifest and the log
//! block's tag. `Cursor::header` is the one check of it; a file
//! of another version or of another kind is refused there, with one error.
//! A format changes by changing its kind's constant.

use crate::error::{Result, StorageError};
use asterix_adm::binary::read_varint;

macro_rules! defaulting {
    ($name:ident, $ty:ty, $n:literal) => {
        /// Defaulting read: 0 when the slice is too short. For offsets that
        /// are in bounds by page-layout construction.
        #[inline]
        pub fn $name(b: &[u8], off: usize) -> $ty {
            match b.get(off..off + $n) {
                Some(s) => {
                    let mut a = [0u8; $n];
                    a.copy_from_slice(s);
                    <$ty>::from_le_bytes(a)
                }
                None => 0,
            }
        }
    };
}

macro_rules! checked {
    ($($name:ident: $ty:ident),*) => {$(
        /// Checked read: `StorageError::Corrupt` when the slice is too
        /// short. For data-dependent offsets read off disk.
        #[inline]
        pub fn $name(b: &[u8], off: usize) -> Result<$ty> {
            Cursor::at(b, off).$ty()
        }
    )*};
}

defaulting!(u16_at, u16, 2);
defaulting!(u32_at, u32, 4);
defaulting!(u64_at, u64, 8);
checked!(try_u16_at: u16, try_u32_at: u32, try_u64_at: u64);

/// Checked sub-slice: `StorageError::Corrupt` when `off + len` overruns.
#[inline]
pub fn try_bytes_at(b: &[u8], off: usize, len: usize) -> Result<&[u8]> {
    Cursor::at(b, off).bytes(len)
}

/// The checksum of log blocks and manifests: FNV-1a.
pub(crate) fn fnv1a(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in data {
        h ^= *b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// The hash of persisted placement — bloom bits, partition of a key,
/// linear-hash bucket: SipHash-1-3 under zero keys, which is what std's
/// default hasher, made with `new()`, computed over the same bytes at rustc
/// 1.95. Written out here because std does not promise that hasher across
/// releases.
#[inline]
pub fn hash64(bytes: &[u8]) -> u64 {
    Sip13::default().finish(bytes, 0)
}

/// [`hash64`] of `prefix`'s eight little-endian bytes followed by `bytes`;
/// with `prefix = bytes.len()` it is how `<[u8] as Hash>` feeds a hasher.
#[inline]
pub fn hash64_after(prefix: u64, bytes: &[u8]) -> u64 {
    let mut s = Sip13::default();
    s.compress(prefix);
    s.finish(bytes, 8)
}

struct Sip13([u64; 4]);

impl Default for Sip13 {
    fn default() -> Self {
        // "somepseudorandomlygeneratedbytes", each word xored with a zero key
        Sip13([
            0x736f_6d65_7073_6575,
            0x646f_7261_6e64_6f6d,
            0x6c79_6765_6e65_7261,
            0x7465_6462_7974_6573,
        ])
    }
}

impl Sip13 {
    #[inline]
    fn round(&mut self) {
        let [v0, v1, v2, v3] = &mut self.0;
        *v0 = v0.wrapping_add(*v1);
        *v1 = v1.rotate_left(13) ^ *v0;
        *v0 = v0.rotate_left(32);
        *v2 = v2.wrapping_add(*v3);
        *v3 = v3.rotate_left(16) ^ *v2;
        *v0 = v0.wrapping_add(*v3);
        *v3 = v3.rotate_left(21) ^ *v0;
        *v2 = v2.wrapping_add(*v1);
        *v1 = v1.rotate_left(17) ^ *v2;
        *v2 = v2.rotate_left(32);
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.0[3] ^= m;
        self.round();
        self.0[0] ^= m;
    }

    /// Absorbs `bytes`, `before` bytes having been absorbed already, and
    /// returns the hash.
    #[inline]
    fn finish(mut self, bytes: &[u8], before: usize) -> u64 {
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            self.compress(u64::from_le_bytes(*w));
        }
        let mut last = ((before + bytes.len()) as u64) << 56;
        for (i, b) in tail.iter().enumerate() {
            last |= u64::from(*b) << (8 * i);
        }
        self.compress(last);
        self.0[2] ^= 0xff;
        for _ in 0..3 {
            self.round();
        }
        self.0.iter().fold(0, |h, v| h ^ v)
    }
}

/// The header of one kind of persisted file: what the one version of it
/// this build writes, and reads, begins with.
pub(crate) struct Format {
    /// What the file is, as the error names it.
    pub kind: &'static str,
    /// The headers of that version: one, but for a log block, whose tag
    /// also says whether its payload is coded.
    pub headers: &'static [&'static [u8]],
}

/// Little-endian integer reads of a [`Cursor`].
macro_rules! ints {
    ($($ty:ident),*) => {$(
        #[inline]
        pub fn $ty(&mut self) -> Result<$ty> {
            let mut a = [0; std::mem::size_of::<$ty>()];
            a.copy_from_slice(self.bytes(std::mem::size_of::<$ty>())?);
            Ok($ty::from_le_bytes(a))
        }
    )*};
}

/// Checked reads front to back over one persisted structure.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor::at(buf, 0)
    }

    /// A cursor that reads `buf` from byte `pos` on (from past its end,
    /// every read is `Corrupt`).
    pub fn at(buf: &'a [u8], pos: usize) -> Self {
        Cursor { buf, pos }
    }

    /// Bytes read so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn unread(&self) -> &'a [u8] {
        self.buf.get(self.pos..).unwrap_or_default()
    }

    fn corrupt(&self, what: &str) -> StorageError {
        StorageError::Corrupt(format!("{what} at offset {} (len {})", self.pos, self.buf.len()))
    }

    /// Which of `format`'s headers comes next. Any other bytes are refused
    /// here, and only here: the error names the kind, the bytes found and
    /// the bytes this build reads.
    pub fn header(&mut self, format: &Format) -> Result<&'static [u8]> {
        let unread = self.unread();
        if let Some(header) = format.headers.iter().find(|h| unread.starts_with(h)) {
            self.pos += header.len();
            return Ok(header);
        }
        let width = format.headers.iter().map(|h| h.len()).max().unwrap_or(0);
        let reads: Vec<String> = format.headers.iter().map(|h| format!("{h:02x?}")).collect();
        Err(StorageError::Corrupt(format!(
            "{} begins {:02x?} where this build reads {}: a file of another version or another kind",
            format.kind,
            &unread[..width.min(unread.len())],
            reads.join(" or ")
        )))
    }

    /// The next `n` bytes.
    #[inline]
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        let bytes = self.buf.get(self.pos..).and_then(|b| b.get(..n)).ok_or_else(|| self.corrupt("read past the end"))?;
        self.pos += n;
        Ok(bytes)
    }

    /// Every byte not read yet.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = self.unread();
        self.pos = self.buf.len();
        rest
    }

    ints!(u8, u16, u32, u64);

    /// A LEB128 varint in its shortest form ([`read_varint`]) that fits `T`.
    pub fn varint<T: TryFrom<u64>>(&mut self) -> Result<T> {
        let (v, n) = read_varint(self.unread()).ok_or_else(|| self.corrupt("bad varint"))?;
        let v = T::try_from(v).map_err(|_| self.corrupt("bad varint"))?;
        self.pos += n;
        Ok(v)
    }

    /// A UTF-8 string after its `u32` length.
    pub fn str(&mut self) -> Result<&'a str> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.bytes(n)?).map_err(|_| self.corrupt("bad UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::{self, BTreeBuilder, DiskBTree, LeafShape};
    use crate::cache::BufferCache;
    use crate::harness;
    use crate::io::FileManager;
    use crate::lsm::{LsmConfig, LsmTree};
    use crate::spatial;
    use crate::stats::IoStats;
    use crate::testutil::TempDir;
    use crate::log_block;
    use crate::wal::{self, WalRecord, WalWriter};
    use asterix_adm::Point;
    use std::path::Path;
    use std::sync::Arc;

    #[test]
    fn defaulting_reads() {
        let b = [0x34, 0x12, 0xff];
        assert_eq!(u16_at(&b, 0), 0x1234);
        assert_eq!(u16_at(&b, 2), 0, "short read defaults to 0");
        assert_eq!(u64_at(&b, 0), 0);
    }

    #[test]
    fn checked_reads() {
        let b = 0xDEAD_BEEFu32.to_le_bytes();
        assert_eq!(try_u32_at(&b, 0).unwrap(), 0xDEAD_BEEF);
        assert!(matches!(try_u32_at(&b, 1), Err(StorageError::Corrupt(_))));
        assert_eq!(try_bytes_at(&b, 1, 3).unwrap(), &b[1..4]);
        assert!(try_bytes_at(&b, 2, 3).is_err());
    }

    /// Bloom bits, partitions and buckets on disk were placed by these
    /// values: what std's default hasher gave at rustc 1.95.0 for the bytes
    /// `0, 1, .., n-1`, written once and never recomputed.
    #[test]
    fn the_persisted_hash_is_pinned() {
        let pinned: [(u8, u64, u64); 6] = [
            (0, 0xd1fb_a762_150c_532c, 0xbd60_acb6_58c7_9e45),
            (1, 0x68a9_1412_8e01_e473, 0xdc58_fdc2_e5c5_babe),
            (7, 0x2f09_8ab0_c751_325a, 0x8f63_05ba_3e50_b0eb),
            (8, 0xead4_11e6_7ebe_2eea, 0x128e_b5bf_6a9b_4604),
            (9, 0x7592_7f9d_9512_4362, 0xc51a_3097_82bf_cd3a),
            (64, 0x75e0_5fd5_bbc8_70c6, 0x47ee_413e_b5b6_2e62),
        ];
        for (n, plain, length_prefixed) in pinned {
            let bytes: Vec<u8> = (0..n).collect();
            assert_eq!(hash64(&bytes), plain, "{n} bytes");
            assert_eq!(hash64_after(bytes.len() as u64, &bytes), length_prefixed, "{n} bytes, length first");
        }
    }

    #[test]
    fn a_cursor_reads_front_to_back_and_names_where_it_stopped() {
        let mut buf = vec![7];
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&[0xac, 0x02]); // 300
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(b"ok!");
        let mut c = Cursor::new(&buf);
        assert_eq!((c.u8().unwrap(), c.u32().unwrap(), c.u64().unwrap()), (7, 0xDEAD_BEEF, u64::MAX));
        assert_eq!(c.varint::<u16>().unwrap(), 300);
        assert_eq!((c.str().unwrap(), c.pos()), ("ok", 21));
        assert_eq!((c.rest(), c.pos()), (&b"!"[..], 22));
        let corrupt = |e: StorageError| matches!(e, StorageError::Corrupt(why) if why.contains("at offset 13"));
        // a varint too wide for its field, a cut string, u64 and byte range
        let at_13 = |read: fn(&mut Cursor) -> Result<()>| {
            let mut c = Cursor::new(&buf[..16]);
            c.bytes(13).unwrap();
            corrupt(read(&mut c).unwrap_err())
        };
        assert!(at_13(|c| c.varint::<u8>().map(drop)));
        assert!(at_13(|c| c.str().map(drop)));
        assert!(at_13(|c| c.u64().map(drop)));
        assert!(at_13(|c| c.bytes(4).map(drop)));
    }

    /// One kind of persisted file, as the test below drives it.
    struct Kind {
        format: &'static Format,
        /// What `format` must hold: the bytes a file of the kind this build
        /// wrote begins with.
        pinned: &'static [&'static [u8]],
        /// Which header byte is the version.
        version: usize,
        /// The file `write` makes under the directory it is given.
        name: &'static str,
        /// Writes the file; returns where in it the header is.
        write: fn(&Path) -> usize,
        /// What a reader does with the directory: open the file.
        open: fn(&Path) -> Result<()>,
        /// Mends the checksum a new header breaks (a log block's).
        seal: fn(&mut [u8]),
    }

    /// A cache of its own for every open, so that no page of an earlier
    /// file is kept.
    fn cache(dir: &Path) -> Arc<BufferCache> {
        BufferCache::new(FileManager::new(dir, IoStats::new()).unwrap(), 8)
    }

    fn seal_first_block(log: &mut [u8]) {
        let len = u32_at(log, 0) as usize;
        let crc = fnv1a(&log[8..8 + len]);
        log[4..8].copy_from_slice(&crc.to_le_bytes());
    }

    fn kinds() -> [Kind; 4] {
        [
            Kind {
                format: &btree::FORMAT,
                pinned: &[b"8RTB"],
                version: 0,
                name: "t.btree",
                write: |dir| {
                    let mut b = BTreeBuilder::new(cache(dir).manager().bulk_writer("t.btree").unwrap(), true);
                    b.add(b"k", Some(b"v")).unwrap();
                    b.finish().unwrap();
                    // the footer's magic is the file's last four bytes
                    std::fs::metadata(dir.join("t.btree")).unwrap().len() as usize - 4
                },
                open: |dir| {
                    let cache = cache(dir);
                    let file = cache.manager().open("t.btree")?;
                    DiskBTree::open(cache, file, &LeafShape::Rows).map(drop)
                },
                seal: |_| {},
            },
            Kind {
                format: &btree::SPATIAL_FORMAT,
                pinned: &[b"1STB"],
                version: 0,
                name: "s.btree",
                write: |dir| {
                    let w = cache(dir).manager().bulk_writer("s.btree").unwrap();
                    let mut b = BTreeBuilder::with_shape(w, true, &LeafShape::Spatial);
                    b.add(b"k", Some(&spatial::value(&Point::new(1.0, 2.0).to_mbr()))).unwrap();
                    b.finish().unwrap();
                    std::fs::metadata(dir.join("s.btree")).unwrap().len() as usize - 4
                },
                open: |dir| {
                    let cache = cache(dir);
                    let file = cache.manager().open("s.btree")?;
                    DiskBTree::open(cache, file, &LeafShape::Spatial).map(drop)
                },
                seal: |_| {},
            },
            Kind {
                format: &harness::FORMAT,
                pinned: &[b"AXM2"],
                version: 3,
                name: "t.manifest",
                write: |dir| {
                    let mut t = LsmTree::new(cache(dir), LsmConfig::new("t"));
                    t.upsert(b"k".to_vec(), b"v".to_vec()).unwrap();
                    t.flush().unwrap();
                    0
                },
                open: |dir| LsmTree::reopen(cache(dir), LsmConfig::new("t")).map(drop),
                seal: |_| {},
            },
            Kind {
                format: &log_block::FORMAT,
                pinned: &[&[0x20], &[0x22], &[0x26]],
                version: 0,
                name: "t.wal",
                write: |dir| {
                    let mut w = WalWriter::open(dir.join("t.wal")).unwrap();
                    w.append(&WalRecord::Commit { txn_id: 1 }).unwrap();
                    w.sync().unwrap();
                    8 // a block's tag follows its length and checksum
                },
                open: |dir| {
                    wal::read_log(dir.join("t.wal"))?;
                    WalWriter::open(dir.join("t.wal")).map(drop)
                },
                seal: seal_first_block,
            },
        ]
    }

    /// Every kind of file this crate persists opens when this build wrote
    /// it, and is refused with the one error of [`Cursor::header`] — and left
    /// as it was — when its header is one of another version (its version
    /// byte one up or down: 0x1f, 0x21, 0x23, 0x25 and 0x27 for a log block,
    /// and 0x24, the split block whose cells were all coded as they are) or
    /// of another kind.
    #[test]
    fn every_file_kind_opens_its_one_version_and_refuses_any_other_header() {
        let kinds = kinds();
        for kind in &kinds {
            let what = kind.format.kind;
            assert_eq!(kind.format.headers, kind.pinned, "{what}: the bytes on disk moved");
            let dir = TempDir::new();
            let at = (kind.write)(dir.path());
            let path = dir.path().join(kind.name);
            let image = std::fs::read(&path).unwrap();
            let width = kind.pinned[0].len();
            assert!(kind.pinned.contains(&&image[at..at + width]), "{what}: written under another header");
            (kind.open)(dir.path()).unwrap_or_else(|e| panic!("{what}: {e}"));
            let mut others: Vec<Vec<u8>> = Vec::new();
            for header in kind.pinned {
                for step in [1, u8::MAX] {
                    let mut other = header.to_vec();
                    other[kind.version] = other[kind.version].wrapping_add(step);
                    others.push(other);
                }
            }
            others.extend(kinds.iter().filter(|k| k.name != kind.name).flat_map(|k| k.pinned.iter().map(|h| h.to_vec())));
            if kind.name == "t.wal" {
                others.push(vec![0x24]);
            }
            // none that this build reads
            others.retain(|h| !kind.pinned.iter().any(|p| h.starts_with(p) || p.starts_with(h)));
            for other in others {
                let mut damaged = image.clone();
                let n = other.len().min(width);
                damaged[at..at + n].copy_from_slice(&other[..n]);
                (kind.seal)(&mut damaged);
                std::fs::write(&path, &damaged).unwrap();
                let want = Cursor::new(&damaged[at..]).header(kind.format).unwrap_err().to_string();
                match (kind.open)(dir.path()) {
                    Err(e @ StorageError::Corrupt(_)) => assert_eq!(e.to_string(), want),
                    Err(e) => panic!("{what} under {other:02x?}: {e}"),
                    Ok(()) => panic!("{what} under {other:02x?} opened"),
                }
                assert_eq!(std::fs::read(&path).unwrap(), damaged, "{what} under {other:02x?}: the file changed");
            }
        }
        // and a record of a tag no record has, in a block of today's tag
        let dir = TempDir::new();
        let log = &kinds[3];
        assert_eq!((log.write)(dir.path()), 8);
        let path = dir.path().join(log.name);
        let mut image = std::fs::read(&path).unwrap();
        // [len][crc][0x20][stream length][record length][tag 2][transaction]
        assert_eq!(image[8..12], [0x20, 10, 9, 2]);
        image[11] = 0xff;
        seal_first_block(&mut image);
        std::fs::write(&path, &image).unwrap();
        assert!(matches!((log.open)(dir.path()), Err(StorageError::Corrupt(why)) if why.contains("tag 255")));
        assert_eq!(std::fs::read(&path).unwrap(), image, "a refused log is left as it was");
    }
}
