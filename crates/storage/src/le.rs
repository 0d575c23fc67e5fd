//! Panic-free little-endian slice decoding, and how a persisted file says
//! what it is.
//!
//! The on-disk formats in this crate (B+ tree pages, R-tree pages, log
//! blocks, manifests, bloom filters) are decoded from byte slices whose
//! lengths are usually guaranteed by construction (pages are always
//! [`crate::io::PAGE_SIZE`]). The xlint panic-path rule (L1) still bans
//! `try_into().unwrap()` there: a corrupt offset must not panic while the
//! reader holds a buffer-cache shard lock. Two flavors are provided:
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
//! B+-tree trailer (`.btree`, `.delkeys`), the R-tree trailer, the manifest
//! and the log block's tag. `Cursor::header` is the one check of it; a file
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
            Cursor { buf: b, pos: off }.$ty()
        }
    )*};
}

defaulting!(u16_at, u16, 2);
defaulting!(u32_at, u32, 4);
defaulting!(u64_at, u64, 8);
checked!(try_u16_at: u16, try_u32_at: u32, try_u64_at: u64);

/// Defaulting little-endian f64 read (0.0 when the slice is too short).
#[inline]
pub fn f64_at(b: &[u8], off: usize) -> f64 {
    f64::from_bits(u64_at(b, off))
}

/// Checked sub-slice: `StorageError::Corrupt` when `off + len` overruns.
#[inline]
pub fn try_bytes_at(b: &[u8], off: usize, len: usize) -> Result<&[u8]> {
    Cursor { buf: b, pos: off }.bytes(len)
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
        Cursor { buf, pos: 0 }
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
    use crate::btree::{self, BTreeBuilder, DiskBTree};
    use crate::cache::BufferCache;
    use crate::harness;
    use crate::io::{FileManager, PAGE_SIZE};
    use crate::lsm::{LsmConfig, LsmTree};
    use crate::rtree::{self, DiskRTree, RTreeBuilder, SpatialEntry};
    use crate::stats::IoStats;
    use crate::testutil::TempDir;
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

    fn trailer_of(dir: &Path, name: &str) -> usize {
        std::fs::metadata(dir.join(name)).unwrap().len() as usize - PAGE_SIZE
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
                pinned: &[b"5RTB"],
                version: 0,
                name: "t.btree",
                write: |dir| {
                    let mut b = BTreeBuilder::new(cache(dir).manager().bulk_writer("t.btree").unwrap(), 1);
                    b.add(b"k", b"v").unwrap();
                    b.finish().unwrap();
                    trailer_of(dir, "t.btree")
                },
                open: |dir| {
                    let cache = cache(dir);
                    let file = cache.manager().open("t.btree")?;
                    DiskBTree::open(cache, file, None).map(drop)
                },
                seal: |_| {},
            },
            Kind {
                format: &rtree::FORMAT,
                pinned: &[b"2RTR"],
                version: 0,
                name: "t.rtree",
                write: |dir| {
                    let entry = SpatialEntry { mbr: Point::new(1.0, 2.0).to_mbr(), key: b"k".to_vec() };
                    let w = cache(dir).manager().bulk_writer("t.rtree").unwrap();
                    RTreeBuilder::new(w, true).build(vec![entry]).unwrap();
                    trailer_of(dir, "t.rtree")
                },
                open: |dir| {
                    let cache = cache(dir);
                    let file = cache.manager().open("t.rtree")?;
                    DiskRTree::open(cache, file).map(drop)
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
                format: &wal::FORMAT,
                pinned: &[&[0x20], &[0x22]],
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
    /// byte one up or down: 0x1f, 0x21 and 0x23 for a log block) or of
    /// another kind.
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
