//! Page-file layer: fixed-size pages in ordinary files, managed per
//! "I/O device" directory (paper Figure 2 shows multiple I/O devices per
//! node, each holding LSM components).
//!
//! All physical reads/writes are counted in [`IoStats`]. Immutable component
//! files are written once with a sequential [`PageFileWriter`] and then only
//! read (through the buffer cache); mutable structures (linear hashing, WAL)
//! use in-place page writes.

use crate::error::{Result, StorageError};
use crate::faults::{FaultInjector, WritePlan};
use crate::lock_order::RwLock;
use crate::stats::IoStats;
use asterix_obs::IdGen;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Size of one storage page in bytes.
pub const PAGE_SIZE: usize = 8192;

/// Identifier of an open page file within a [`FileManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FileId(pub u32);

struct OpenFile {
    file: File,
    path: PathBuf,
    pages: u64,
    writable: bool,
}

/// Manages the page files under one device directory.
///
/// Files are created, opened, read page-wise, and deleted here; every
/// physical access increments the shared [`IoStats`].
pub struct FileManager {
    dir: PathBuf,
    stats: Arc<IoStats>,
    next_id: IdGen,
    files: RwLock<HashMap<FileId, Arc<RwLock<OpenFile>>>>,
    faults: Option<Arc<FaultInjector>>,
}

impl FileManager {
    /// Opens (creating if needed) a device directory.
    pub fn new(dir: impl AsRef<Path>, stats: Arc<IoStats>) -> Result<Arc<Self>> {
        FileManager::with_faults(dir, stats, None)
    }

    /// Opens a device directory whose physical I/O consults `faults`.
    pub fn with_faults(
        dir: impl AsRef<Path>,
        stats: Arc<IoStats>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Arc<Self>> {
        std::fs::create_dir_all(dir.as_ref())?;
        Ok(Arc::new(FileManager {
            dir: dir.as_ref().to_path_buf(),
            stats,
            next_id: IdGen::new(1),
            files: RwLock::new(HashMap::new()),
            faults,
        }))
    }

    /// The fault injector wired into this manager, if any.
    pub fn faults(&self) -> Option<&Arc<FaultInjector>> {
        self.faults.as_ref()
    }

    /// The device directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The shared I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        &self.stats
    }

    fn register(&self, file: File, path: PathBuf, pages: u64, writable: bool) -> FileId {
        // the low 32 bits: ids wrap past `u32::MAX`
        let id = FileId(self.next_id.next() as u32);
        self.files
            .write()
            .insert(id, Arc::new(RwLock::new(OpenFile { file, path, pages, writable })));
        id
    }

    /// Creates a new, empty, writable page file with the given name.
    pub fn create(&self, name: &str) -> Result<FileId> {
        if let Some(f) = &self.faults {
            f.check_alive(name)?;
        }
        let path = self.dir.join(name);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(self.register(file, path, 0, true))
    }

    /// Opens an existing file read-only (e.g. a component found at recovery).
    pub fn open(&self, name: &str) -> Result<FileId> {
        if let Some(f) = &self.faults {
            f.check_alive(name)?;
        }
        let path = self.dir.join(name);
        let file = OpenOptions::new().read(true).open(&path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::NotFound {
                StorageError::NotFound(format!("file {}", path.display()))
            } else {
                StorageError::Io(e)
            }
        })?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "file {} length {len} is not page-aligned",
                path.display()
            )));
        }
        Ok(self.register(file, path, len / PAGE_SIZE as u64, false))
    }

    fn handle(&self, id: FileId) -> Result<Arc<RwLock<OpenFile>>> {
        self.files
            .read()
            .get(&id)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(format!("file id {id:?}")))
    }

    /// Number of pages in the file.
    pub fn page_count(&self, id: FileId) -> Result<u64> {
        Ok(self.handle(id)?.read().pages)
    }

    /// Reads one physical page.
    pub fn read_page(&self, id: FileId, page_no: u64) -> Result<Vec<u8>> {
        let mut buf = vec![0u8; PAGE_SIZE];
        self.read_pages_into(id, page_no, &mut buf)?;
        Ok(buf)
    }

    /// Reads `n` contiguous physical pages starting at `start` in one
    /// operation (sequential readahead). Fault checks and stats apply per
    /// page, in page order, exactly as `n` single-page reads would.
    pub fn read_pages(&self, id: FileId, start: u64, n: usize) -> Result<Vec<Vec<u8>>> {
        let mut buf = vec![0u8; n.max(1) * PAGE_SIZE];
        self.read_pages_into(id, start, &mut buf)?;
        Ok(buf.chunks_exact(PAGE_SIZE).map(<[u8]>::to_vec).collect())
    }

    /// Reads the pages from `start` on into `buf`, as many whole pages as it
    /// holds, in one operation: every physical read is this one.
    pub fn read_pages_into(&self, id: FileId, start: u64, buf: &mut [u8]) -> Result<()> {
        let handle = self.handle(id)?;
        let guard = handle.read();
        let end = start + (buf.len() / PAGE_SIZE) as u64;
        if end > guard.pages {
            return Err(StorageError::Corrupt(format!(
                "read of pages {start}..{end} past end ({} pages) in {}",
                guard.pages,
                guard.path.display()
            )));
        }
        guard.file.read_exact_at(buf, start * PAGE_SIZE as u64)?;
        for (page_no, page) in (start..).zip(buf.chunks_exact_mut(PAGE_SIZE)) {
            if let Some(f) = &self.faults {
                f.on_read(&format!("{}:{page_no}", crate::faults::target_name(&guard.path)), page)?;
            }
            self.stats.count_physical_read();
        }
        Ok(())
    }

    /// Writes one physical page in place, extending the file if `page_no`
    /// is the next page.
    pub fn write_page(&self, id: FileId, page_no: u64, data: &[u8]) -> Result<()> {
        if data.len() != PAGE_SIZE {
            return Err(StorageError::Invalid(format!(
                "write_page requires exactly {PAGE_SIZE} bytes, got {}",
                data.len()
            )));
        }
        let handle = self.handle(id)?;
        let mut guard = handle.write();
        if !guard.writable {
            return Err(StorageError::Invalid(format!(
                "file {} is read-only",
                guard.path.display()
            )));
        }
        if let Some(f) = &self.faults {
            let target = format!("{}:{page_no}", crate::faults::target_name(&guard.path));
            match f.on_write(&target, PAGE_SIZE)? {
                WritePlan::Full => {}
                WritePlan::Torn { kept } | WritePlan::Short { kept } => {
                    // persist only a prefix of the page — a torn page write
                    if kept > 0 {
                        guard.file.write_all_at(&data[..kept], page_no * PAGE_SIZE as u64)?;
                    }
                    return Err(f.write_failed(&target));
                }
            }
        }
        // Writes past the current end extend the file (sparse holes read as
        // zeros).
        guard.file.write_all_at(data, page_no * PAGE_SIZE as u64)?;
        guard.pages = guard.pages.max(page_no + 1);
        self.stats.count_physical_write();
        Ok(())
    }

    /// Appends a page at the end, returning its page number.
    pub fn append_page(&self, id: FileId, data: &[u8]) -> Result<u64> {
        let page_no = self.page_count(id)?;
        self.write_page(id, page_no, data)?;
        Ok(page_no)
    }

    /// Forces file contents to stable storage.
    pub fn sync(&self, id: FileId) -> Result<()> {
        let handle = self.handle(id)?;
        let guard = handle.read();
        if let Some(f) = &self.faults {
            f.on_sync(&crate::faults::target_name(&guard.path))?;
        }
        guard.file.sync_data()?;
        Ok(())
    }

    /// Closes and deletes a file (e.g. merged-away LSM components). The
    /// failpoint is consulted *before* the handle is dropped, so an injected
    /// delete failure leaves both the open handle and the file intact —
    /// callers may retry or defer the cleanup.
    pub fn delete(&self, id: FileId) -> Result<()> {
        let path = self.handle(id)?.read().path.clone();
        remove_file(&path, self.faults.as_ref())?;
        self.files.write().remove(&id);
        Ok(())
    }

    /// Name (within the device directory) of an open file.
    pub fn name_of(&self, id: FileId) -> Result<String> {
        Ok(crate::faults::target_name(&self.handle(id)?.read().path))
    }

    /// Sequential bulk writer for building an immutable component file.
    /// Pages written through it are counted when [`PageFileWriter::finish`]
    /// flushes.
    pub fn bulk_writer(self: &Arc<Self>, name: &str) -> Result<PageFileWriter> {
        if let Some(f) = &self.faults {
            f.check_alive(name)?;
        }
        let path = self.dir.join(name);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(PageFileWriter {
            manager: Arc::clone(self),
            writer: Some(BufWriter::with_capacity(64 * PAGE_SIZE, file)),
            path,
            pages: 0,
        })
    }

    /// Lists files currently open under this manager (name → id).
    pub fn open_files(&self) -> Vec<(String, FileId)> {
        self.files
            .read()
            .iter()
            .map(|(id, f)| {
                let f = f.read();
                let name = f.path.file_name().unwrap_or(f.path.as_os_str());
                (name.to_string_lossy().into_owned(), *id)
            })
            .collect()
    }
}

/// Replaces the file at `path` with `bytes`, atomically and durably: the
/// bytes go to `<path>.tmp`, which is fsynced, renamed over `path`, and the
/// directory fsynced. A crash at any step leaves either the old file or the
/// new one, never a mix; a leftover `.tmp` is garbage. Every step is a
/// failpoint, so crash schedules can land inside it.
pub fn write_atomic(path: &Path, bytes: &[u8], faults: Option<&Arc<FaultInjector>>) -> Result<()> {
    let name = crate::faults::target_name(path);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    if let Some(f) = faults {
        let target = format!("{name}.tmp:write");
        match f.on_write(&target, bytes.len())? {
            WritePlan::Full => {}
            WritePlan::Torn { kept } | WritePlan::Short { kept } => {
                File::create(&tmp)?.write_all(&bytes[..kept])?;
                return Err(f.write_failed(&target));
            }
        }
    }
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    if let Some(f) = faults {
        f.on_sync(&format!("{name}.tmp"))?;
    }
    file.sync_all()?;
    if let Some(f) = faults {
        f.on_rename(&format!("{name}:rename"))?;
    }
    std::fs::rename(&tmp, path)?;
    // the rename is durable once its directory is
    if let Some(f) = faults {
        f.on_sync(&format!("{name}:dirsync"))?;
    }
    if let Some(dir) = path.parent() {
        File::open(dir)?.sync_all()?;
    }
    Ok(())
}

/// Unlinks `path` (a missing file is not an error). Not made durable: every
/// caller removes garbage that the next open would remove again.
pub fn remove_file(path: &Path, faults: Option<&Arc<FaultInjector>>) -> Result<()> {
    if let Some(f) = faults {
        f.on_delete(&format!("{}:unlink", crate::faults::target_name(path)))?;
    }
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// Buffered sequential page writer used by bulk loads (B+ tree component
/// construction). Call [`PageFileWriter::finish`] to flush, sync,
/// and register the file read-only with the manager.
pub struct PageFileWriter {
    manager: Arc<FileManager>,
    writer: Option<BufWriter<File>>,
    path: PathBuf,
    pages: u64,
}

impl PageFileWriter {
    /// Appends one page (must be exactly [`PAGE_SIZE`] bytes), returning its
    /// page number.
    pub fn append(&mut self, data: &[u8]) -> Result<u64> {
        if data.len() != PAGE_SIZE {
            return Err(StorageError::Invalid(format!(
                "append requires exactly {PAGE_SIZE} bytes, got {}",
                data.len()
            )));
        }
        let w = self
            .writer
            .as_mut()
            .ok_or_else(|| StorageError::Invalid("writer already finished".into()))?;
        if let Some(f) = self.manager.faults.clone() {
            let target = format!("{}:{}", crate::faults::target_name(&self.path), self.pages);
            match f.on_write(&target, PAGE_SIZE)? {
                WritePlan::Full => {}
                WritePlan::Torn { kept } | WritePlan::Short { kept } => {
                    // flush what was buffered, then persist only a prefix of
                    // this page — the bulk file ends mid-page
                    w.write_all(&data[..kept])?;
                    w.flush()?;
                    return Err(f.write_failed(&target));
                }
            }
        }
        w.write_all(data)?;
        self.manager.stats.count_physical_write();
        let no = self.pages;
        self.pages += 1;
        Ok(no)
    }

    /// Pages appended so far.
    pub fn page_count(&self) -> u64 {
        self.pages
    }

    /// The file's name within its device directory.
    pub(crate) fn name(&self) -> String {
        crate::faults::target_name(&self.path)
    }

    /// The counters of the file manager it writes for.
    pub(crate) fn stats(&self) -> &Arc<IoStats> {
        &self.manager.stats
    }

    /// Flushes, syncs, and registers the file; returns its [`FileId`].
    pub fn finish(mut self) -> Result<FileId> {
        let mut w = self
            .writer
            .take()
            .ok_or_else(|| StorageError::Invalid("writer already finished".into()))?;
        w.flush()?;
        let file = w.into_inner().map_err(|e| StorageError::Io(e.into_error()))?;
        if let Some(f) = &self.manager.faults {
            f.on_sync(&crate::faults::target_name(&self.path))?;
        }
        file.sync_data()?;
        Ok(self.manager.register(file, self.path.clone(), self.pages, false))
    }
}

/// Reads one file's pages front to back straight from the [`FileManager`],
/// [`PageStream::WINDOW`] pages per physical read into a buffer of its own,
/// and installs nothing in the buffer cache. It is how a merge reads its
/// inputs: a component file is immutable and was bulk-written, so the cache
/// holds nothing newer than the file, and one pass over data about to be
/// retired must not evict the pages queries are hot on.
pub struct PageStream {
    manager: Arc<FileManager>,
    file: FileId,
    /// Pages `first..` of the file, as many whole pages as it holds.
    window: Vec<u8>,
    first: u64,
}

impl PageStream {
    /// Pages per physical read: the buffer cache's default readahead.
    const WINDOW: u64 = crate::cache::DEFAULT_READAHEAD as u64;

    pub fn new(manager: Arc<FileManager>, file: FileId) -> Self {
        PageStream { manager, file, window: Vec::new(), first: 0 }
    }

    /// Page `page_no`. Asking for pages in ascending order costs one
    /// physical read per window; a page past the end of the file is an error.
    pub fn page(&mut self, page_no: u64) -> Result<&[u8]> {
        let held = (self.window.len() / PAGE_SIZE) as u64;
        if page_no < self.first || page_no >= self.first + held {
            let left = self.manager.page_count(self.file)?.saturating_sub(page_no);
            // past the end: ask for the one page, and let the read say so
            self.window.resize(left.clamp(1, Self::WINDOW) as usize * PAGE_SIZE, 0);
            self.first = page_no;
            if let Err(e) = self.manager.read_pages_into(self.file, page_no, &mut self.window) {
                self.window.clear();
                return Err(e);
            }
        }
        let at = (page_no - self.first) as usize * PAGE_SIZE;
        Ok(&self.window[at..at + PAGE_SIZE])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::testutil::TempDir;

    fn temp_manager() -> (Arc<FileManager>, TempDir) {
        let dir = TempDir::new();
        let stats = IoStats::new();
        let fm = FileManager::new(dir.path(), stats).unwrap();
        (fm, dir)
    }

    #[test]
    fn write_read_pages() {
        let (fm, _d) = temp_manager();
        let id = fm.create("t.pf").unwrap();
        let mut page = vec![0u8; PAGE_SIZE];
        page[0] = 42;
        assert_eq!(fm.append_page(id, &page).unwrap(), 0);
        page[0] = 43;
        assert_eq!(fm.append_page(id, &page).unwrap(), 1);
        assert_eq!(fm.read_page(id, 0).unwrap()[0], 42);
        assert_eq!(fm.read_page(id, 1).unwrap()[0], 43);
        assert_eq!(fm.page_count(id).unwrap(), 2);
        assert_eq!(fm.stats().physical_writes(), 2);
        assert_eq!(fm.stats().physical_reads(), 2);
    }

    #[test]
    fn in_place_update() {
        let (fm, _d) = temp_manager();
        let id = fm.create("t.pf").unwrap();
        let mut page = vec![1u8; PAGE_SIZE];
        fm.append_page(id, &page).unwrap();
        page[100] = 99;
        fm.write_page(id, 0, &page).unwrap();
        assert_eq!(fm.read_page(id, 0).unwrap()[100], 99);
        assert_eq!(fm.page_count(id).unwrap(), 1);
    }

    #[test]
    fn bounds_and_validation() {
        let (fm, _d) = temp_manager();
        let id = fm.create("t.pf").unwrap();
        assert!(fm.read_page(id, 0).is_err(), "read past end");
        assert!(fm.write_page(id, 0, &[0; 10]).is_err(), "bad size");
        // out-of-order writes extend the file with sparse holes
        fm.write_page(id, 5, &vec![7u8; PAGE_SIZE]).unwrap();
        assert_eq!(fm.page_count(id).unwrap(), 6);
        assert_eq!(fm.read_page(id, 5).unwrap()[0], 7);
        assert_eq!(fm.read_page(id, 2).unwrap()[0], 0, "hole reads as zeros");
    }

    #[test]
    fn bulk_writer_then_reopen() {
        let (fm, d) = temp_manager();
        {
            let mut w = fm.bulk_writer("comp.pf").unwrap();
            for i in 0..5u8 {
                let mut p = vec![i; PAGE_SIZE];
                p[0] = i;
                w.append(&p).unwrap();
            }
            let id = w.finish().unwrap();
            assert_eq!(fm.page_count(id).unwrap(), 5);
            assert_eq!(fm.read_page(id, 3).unwrap()[0], 3);
            // bulk files are read-only after finish
            assert!(fm.write_page(id, 0, &vec![0; PAGE_SIZE]).is_err());
        }
        // a second manager can re-open the persisted file
        let fm2 = FileManager::new(d.path(), IoStats::new()).unwrap();
        let id2 = fm2.open("comp.pf").unwrap();
        assert_eq!(fm2.page_count(id2).unwrap(), 5);
        assert_eq!(fm2.read_page(id2, 4).unwrap()[0], 4);
    }

    #[test]
    fn delete_removes_file() {
        let (fm, d) = temp_manager();
        let id = fm.create("gone.pf").unwrap();
        fm.append_page(id, &vec![0; PAGE_SIZE]).unwrap();
        fm.delete(id).unwrap();
        assert!(!d.path().join("gone.pf").exists());
        assert!(fm.read_page(id, 0).is_err());
    }

    #[test]
    fn open_missing_file_is_not_found() {
        let (fm, _d) = temp_manager();
        match fm.open("nope.pf") {
            Err(StorageError::NotFound(_)) => {}
            other => panic!("expected NotFound, got {other:?}"),
        }
    }
}
