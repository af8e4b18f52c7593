//! Segment storage backends for the write-ahead log.
//!
//! A [`Store`] holds numbered append-only segments. The log writes through
//! one *current* segment at a time and maintains the **sync-before-rotate
//! invariant**: before opening segment `n+1` it syncs segment `n`, so every
//! non-current segment is fully durable and only the current segment can
//! lose a suffix in a crash.
//!
//! Backends:
//!
//! - [`DirStore`] — real files in a directory (`wal-00000000.seg`, ...);
//! - [`MemStore`] — in-memory, modeling the durable/volatile split that
//!   fsync collapses, with crash/truncate/corrupt helpers for tests;
//! - [`SharedMemStore`] — a cloneable handle over a [`MemStore`] so a test
//!   harness keeps inspection access after the log consumes the store;
//! - [`FaultyStore`] — a wrapper that kills writes at scripted points.
//!
//! [`MemStore`]'s model holds of real files too: in it a segment exists
//! durably once opened, a removal is final once done, and only a
//! segment's bytes wait for [`Store::sync`]. [`DirStore`] makes that
//! true of the directory by syncing it after every create and every
//! unlink, and its parent when it creates the directory, so a crash can
//! neither lose a synced segment's name nor bring a removed one back.
//! Retention removes oldest-first, so the segments that survive any
//! crash are a suffix — and the crash grid's verdicts, reached on
//! [`MemStore`], carry over to [`DirStore`] with no second store model.

use crate::WalError;
use std::collections::BTreeMap;
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// An append-only segment store. Object-safe and [`Send`] so the log can
/// own any backend behind a `Box<dyn Store>` and move across threads.
pub trait Store: Send {
    /// Creates empty segment `index` and makes it the append target.
    fn open_segment(&mut self, index: u64) -> Result<(), WalError>;

    /// Appends `bytes` to the current segment.
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError>;

    /// Makes everything appended to the current segment durable.
    fn sync(&mut self) -> Result<(), WalError>;

    /// The segment indexes present, ascending.
    fn list(&self) -> Result<Vec<u64>, WalError>;

    /// Reads segment `index` in full.
    fn read(&self, index: u64) -> Result<Vec<u8>, WalError>;

    /// Deletes segment `index` (checkpoint pruning).
    fn remove(&mut self, index: u64) -> Result<(), WalError>;
}

// ---------------------------------------------------------------------------
// MemStore

#[derive(Clone, Default, Debug)]
struct MemSegment {
    data: Vec<u8>,
    /// Bytes guaranteed to survive a crash (advanced by `sync`).
    durable: usize,
}

/// An in-memory store that models the durable/volatile split: appended
/// bytes sit in a volatile suffix until [`Store::sync`] moves the durable
/// mark, and [`MemStore::crashed`] discards exactly the volatile part.
#[derive(Clone, Default, Debug)]
pub struct MemStore {
    segments: BTreeMap<u64, MemSegment>,
    current: Option<u64>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The store as a crash would leave it: every segment truncated to its
    /// durable length. With `keep_volatile`, unsynced bytes survive too —
    /// the lucky crash where the OS had already flushed them; recovery
    /// must cope with both.
    pub fn crashed(&self, keep_volatile: bool) -> MemStore {
        let segments = self
            .segments
            .iter()
            .map(|(&i, s)| {
                let len = if keep_volatile {
                    s.data.len()
                } else {
                    s.durable
                };
                let data = s.data[..len].to_vec();
                (
                    i,
                    MemSegment {
                        durable: data.len(),
                        data,
                    },
                )
            })
            .collect();
        MemStore {
            segments,
            current: None,
        }
    }

    /// Total bytes written across all segments, in segment order.
    pub fn total_bytes(&self) -> usize {
        self.segments.values().map(|s| s.data.len()).sum()
    }

    /// The store truncated to the first `bytes` of the concatenated
    /// segment stream — a crash at an arbitrary byte position. Segments
    /// wholly past the cut disappear (they were never created).
    pub fn prefix(&self, mut bytes: usize) -> MemStore {
        let mut out = MemStore::new();
        for (&i, s) in &self.segments {
            if bytes == 0 {
                break;
            }
            let take = s.data.len().min(bytes);
            bytes -= take;
            let data = s.data[..take].to_vec();
            out.segments.insert(
                i,
                MemSegment {
                    durable: data.len(),
                    data,
                },
            );
        }
        out
    }

    /// XORs `mask` into the byte at `offset` of the concatenated segment
    /// stream (bit-rot injection). Panics if `offset` is out of range —
    /// test-harness misuse, not a recovery input.
    pub fn corrupt(&mut self, mut offset: usize, mask: u8) {
        for s in self.segments.values_mut() {
            if offset < s.data.len() {
                s.data[offset] ^= mask;
                return;
            }
            offset -= s.data.len();
        }
        panic!("corrupt offset past end of log");
    }

    fn current_mut(&mut self) -> Result<&mut MemSegment, WalError> {
        let index = self
            .current
            .ok_or_else(|| WalError::Io("no open segment".into()))?;
        Ok(self
            .segments
            .get_mut(&index)
            .expect("current segment exists"))
    }
}

impl Store for MemStore {
    fn open_segment(&mut self, index: u64) -> Result<(), WalError> {
        if self.segments.contains_key(&index) {
            return Err(WalError::Io(format!("segment {index} already exists")));
        }
        self.segments.insert(index, MemSegment::default());
        self.current = Some(index);
        Ok(())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.current_mut()?.data.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let seg = self.current_mut()?;
        seg.durable = seg.data.len();
        Ok(())
    }

    fn list(&self) -> Result<Vec<u64>, WalError> {
        Ok(self.segments.keys().copied().collect())
    }

    fn read(&self, index: u64) -> Result<Vec<u8>, WalError> {
        self.segments
            .get(&index)
            .map(|s| s.data.clone())
            .ok_or_else(|| WalError::Io(format!("segment {index} not found")))
    }

    fn remove(&mut self, index: u64) -> Result<(), WalError> {
        self.segments
            .remove(&index)
            .map(|_| ())
            .ok_or_else(|| WalError::Io(format!("segment {index} not found")))
    }
}

// ---------------------------------------------------------------------------
// SharedMemStore

/// A cloneable handle over a [`MemStore`]. The log consumes its store by
/// value (`Box<dyn Store>`); handing it a `SharedMemStore` lets the test
/// harness keep a second handle to crash, corrupt, and recover from the
/// same bytes the log wrote.
#[derive(Clone, Default, Debug)]
pub struct SharedMemStore {
    inner: Arc<Mutex<MemStore>>,
}

impl SharedMemStore {
    /// A handle to a fresh empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of the underlying store at this moment.
    pub fn snapshot(&self) -> MemStore {
        self.inner.lock().expect("store lock").clone()
    }

    /// Runs `f` against the underlying store.
    pub fn with<R>(&self, f: impl FnOnce(&mut MemStore) -> R) -> R {
        f(&mut self.inner.lock().expect("store lock"))
    }
}

impl Store for SharedMemStore {
    fn open_segment(&mut self, index: u64) -> Result<(), WalError> {
        self.with(|s| s.open_segment(index))
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.with(|s| s.append(bytes))
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.with(|s| s.sync())
    }

    fn list(&self) -> Result<Vec<u64>, WalError> {
        self.inner.lock().expect("store lock").list()
    }

    fn read(&self, index: u64) -> Result<Vec<u8>, WalError> {
        self.inner.lock().expect("store lock").read(index)
    }

    fn remove(&mut self, index: u64) -> Result<(), WalError> {
        self.with(|s| s.remove(index))
    }
}

// ---------------------------------------------------------------------------
// DirStore

/// A store over real files: segment `n` is `wal-<n:08>.seg` in the
/// directory, synced with `File::sync_data`. The directory itself is
/// synced once opened and after every segment it creates or removes, and
/// its parent once when opening creates it.
#[derive(Debug)]
pub struct DirStore {
    dir: PathBuf,
    current: Option<(u64, fs::File)>,
    /// Directory syncs done ([`DirStore::sync_dir`]).
    #[cfg(test)]
    dir_syncs: usize,
    /// Parent-directory syncs done ([`DirStore::open`]).
    #[cfg(test)]
    parent_syncs: usize,
}

impl DirStore {
    /// Opens (creating if absent) the segment directory at `dir`, and
    /// syncs it. When it creates the directory it also syncs the parent,
    /// which holds the new directory's name: without that a crash could
    /// lose the name, and with it every synced segment inside.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, WalError> {
        let dir = dir.into();
        let created = !dir.is_dir();
        fs::create_dir_all(&dir)?;
        let mut store = DirStore {
            dir,
            current: None,
            #[cfg(test)]
            dir_syncs: 0,
            #[cfg(test)]
            parent_syncs: 0,
        };
        if created {
            // A bare relative name's parent is the empty path.
            let parent = store.dir.parent().filter(|p| !p.as_os_str().is_empty());
            fs::File::open(parent.unwrap_or(Path::new(".")))?.sync_all()?;
            #[cfg(test)]
            {
                store.parent_syncs += 1;
            }
        }
        store.sync_dir()?;
        Ok(store)
    }

    /// Makes the directory's entries — the segments' names — durable.
    fn sync_dir(&mut self) -> Result<(), WalError> {
        fs::File::open(&self.dir)?.sync_all()?;
        #[cfg(test)]
        {
            self.dir_syncs += 1;
        }
        Ok(())
    }

    fn path(&self, index: u64) -> PathBuf {
        self.dir.join(format!("wal-{index:08}.seg"))
    }
}

impl Store for DirStore {
    fn open_segment(&mut self, index: u64) -> Result<(), WalError> {
        let file = fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(self.path(index))?;
        self.current = Some((index, file));
        self.sync_dir()
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        let (_, file) = self
            .current
            .as_mut()
            .ok_or_else(|| WalError::Io("no open segment".into()))?;
        file.write_all(bytes)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), WalError> {
        let (_, file) = self
            .current
            .as_mut()
            .ok_or_else(|| WalError::Io("no open segment".into()))?;
        file.sync_data()?;
        Ok(())
    }

    fn list(&self) -> Result<Vec<u64>, WalError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(num) = name
                .strip_prefix("wal-")
                .and_then(|rest| rest.strip_suffix(".seg"))
            {
                if let Ok(index) = num.parse::<u64>() {
                    out.push(index);
                }
            }
        }
        out.sort_unstable();
        Ok(out)
    }

    fn read(&self, index: u64) -> Result<Vec<u8>, WalError> {
        let mut data = Vec::new();
        fs::File::open(self.path(index))?.read_to_end(&mut data)?;
        Ok(data)
    }

    fn remove(&mut self, index: u64) -> Result<(), WalError> {
        fs::remove_file(self.path(index))?;
        self.sync_dir()
    }
}

// ---------------------------------------------------------------------------
// FaultyStore

/// A store wrapper that simulates a crash at a scripted point: after a
/// byte budget runs out mid-append (leaving a torn partial write behind)
/// or on the nth sync (leaving everything since the last sync volatile).
/// After the fault fires, every operation returns [`WalError::Crashed`].
pub struct FaultyStore<S> {
    inner: S,
    /// Remaining append-byte budget; the append that exhausts it is torn.
    fail_after_bytes: Option<u64>,
    /// Remaining syncs before the fault; `Some(0)` kills the next sync.
    fail_on_sync: Option<u64>,
    dead: bool,
}

impl<S: Store> FaultyStore<S> {
    /// Wraps `inner` with no scripted fault (use the builders below).
    pub fn new(inner: S) -> Self {
        FaultyStore {
            inner,
            fail_after_bytes: None,
            fail_on_sync: None,
            dead: false,
        }
    }

    /// Crashes mid-append once `budget` appended bytes have been written:
    /// the fatal append writes only its first remaining-budget bytes.
    pub fn fail_after_bytes(mut self, budget: u64) -> Self {
        self.fail_after_bytes = Some(budget);
        self
    }

    /// Crashes on the `nth` sync call (0-based) without syncing, so bytes
    /// appended since the previous sync stay volatile.
    pub fn fail_on_sync(mut self, nth: u64) -> Self {
        self.fail_on_sync = Some(nth);
        self
    }

    /// Whether the scripted fault has fired.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    fn check_alive(&self) -> Result<(), WalError> {
        if self.dead {
            return Err(WalError::Crashed);
        }
        Ok(())
    }
}

impl<S: Store> Store for FaultyStore<S> {
    fn open_segment(&mut self, index: u64) -> Result<(), WalError> {
        self.check_alive()?;
        self.inner.open_segment(index)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.check_alive()?;
        if let Some(budget) = self.fail_after_bytes {
            if (bytes.len() as u64) > budget {
                // Torn write: the crash lands mid-append.
                self.inner.append(&bytes[..budget as usize])?;
                self.dead = true;
                return Err(WalError::Crashed);
            }
            self.fail_after_bytes = Some(budget - bytes.len() as u64);
        }
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.check_alive()?;
        if let Some(nth) = self.fail_on_sync.as_mut() {
            if *nth == 0 {
                self.dead = true;
                return Err(WalError::Crashed);
            }
            *nth -= 1;
        }
        self.inner.sync()
    }

    fn list(&self) -> Result<Vec<u64>, WalError> {
        self.check_alive()?;
        self.inner.list()
    }

    fn read(&self, index: u64) -> Result<Vec<u8>, WalError> {
        self.check_alive()?;
        self.inner.read(index)
    }

    fn remove(&mut self, index: u64) -> Result<(), WalError> {
        self.check_alive()?;
        self.inner.remove(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(store: &mut dyn Store) {
        store.open_segment(0).unwrap();
        store.append(b"aaaa").unwrap();
        store.sync().unwrap();
        store.append(b"bbbb").unwrap();
        store.open_segment(1).unwrap();
        store.append(b"cc").unwrap();
    }

    #[test]
    fn mem_store_models_durability() {
        let mut store = MemStore::new();
        filled(&mut store);
        assert_eq!(store.list().unwrap(), vec![0, 1]);
        assert_eq!(store.read(0).unwrap(), b"aaaabbbb");
        // A crash keeps only synced bytes; segment 1 was never synced.
        let crashed = store.crashed(false);
        assert_eq!(crashed.read(0).unwrap(), b"aaaa");
        assert_eq!(crashed.read(1).unwrap(), b"");
        // A lucky crash may keep everything.
        let lucky = store.crashed(true);
        assert_eq!(lucky.read(0).unwrap(), b"aaaabbbb");
        assert_eq!(lucky.read(1).unwrap(), b"cc");
    }

    #[test]
    fn mem_store_prefix_cuts_across_segments() {
        let mut store = MemStore::new();
        filled(&mut store);
        assert_eq!(store.total_bytes(), 10);
        let cut = store.prefix(9);
        assert_eq!(cut.read(0).unwrap(), b"aaaabbbb");
        assert_eq!(cut.read(1).unwrap(), b"c");
        let cut = store.prefix(3);
        assert_eq!(cut.read(0).unwrap(), b"aaa");
        assert_eq!(cut.list().unwrap(), vec![0]);
    }

    #[test]
    fn mem_store_corrupt_addresses_the_concatenated_stream() {
        let mut store = MemStore::new();
        filled(&mut store);
        store.corrupt(8, 0x01); // first byte of segment 1
        assert_eq!(store.read(1).unwrap(), b"bc");
    }

    #[test]
    fn shared_handle_sees_writes_through_the_boxed_store() {
        let handle = SharedMemStore::new();
        let mut boxed: Box<dyn Store> = Box::new(handle.clone());
        boxed.open_segment(0).unwrap();
        boxed.append(b"xyz").unwrap();
        assert_eq!(handle.snapshot().read(0).unwrap(), b"xyz");
    }

    #[test]
    fn dir_store_round_trips_through_real_files() {
        let dir =
            std::env::temp_dir().join(format!("slp-durability-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = DirStore::open(&dir).unwrap();
        filled(&mut store);
        // A re-opened store (recovery path) sees the same segments.
        let reopened = DirStore::open(&dir).unwrap();
        assert_eq!(reopened.list().unwrap(), vec![0, 1]);
        assert_eq!(reopened.read(0).unwrap(), b"aaaabbbb");
        assert_eq!(reopened.read(1).unwrap(), b"cc");
        let mut store = reopened;
        store.remove(0).unwrap();
        assert_eq!(store.list().unwrap(), vec![1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A segment's name is durable once it is created and its removal
    /// once it is done: the directory is synced once on open, once per
    /// create and once per remove.
    #[test]
    fn dir_store_syncs_its_directory_on_every_create_and_remove() {
        let dir =
            std::env::temp_dir().join(format!("slp-durability-dir-sync-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut store = DirStore::open(&dir).unwrap();
        assert_eq!(store.dir_syncs, 1, "open");
        filled(&mut store);
        assert_eq!(store.dir_syncs, 3, "two creates");
        store.append(b"dd").unwrap();
        store.sync().unwrap();
        assert_eq!(store.dir_syncs, 3, "appends and data syncs leave it");
        store.remove(0).unwrap();
        assert_eq!(store.dir_syncs, 4, "one remove");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The directory's own name is durable once `open` created it: a
    /// fresh open syncs the parent, and a reopen finds the directory and
    /// leaves the parent alone.
    #[test]
    fn a_fresh_dir_store_syncs_its_name_into_its_parent() {
        let dir =
            std::env::temp_dir().join(format!("slp-durability-parent-sync-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let store = DirStore::open(&dir).unwrap();
        assert_eq!((store.parent_syncs, store.dir_syncs), (1, 1), "fresh open");
        drop(store);
        let reopened = DirStore::open(&dir).unwrap();
        assert_eq!(
            (reopened.parent_syncs, reopened.dir_syncs),
            (0, 1),
            "reopen"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_store_tears_the_fatal_append() {
        let handle = SharedMemStore::new();
        let mut faulty = FaultyStore::new(handle.clone()).fail_after_bytes(6);
        faulty.open_segment(0).unwrap();
        faulty.append(b"aaaa").unwrap();
        assert_eq!(faulty.append(b"bbbb"), Err(WalError::Crashed));
        assert!(faulty.is_dead());
        // The torn write left exactly the remaining budget behind.
        assert_eq!(handle.snapshot().read(0).unwrap(), b"aaaabb");
        // Everything after the crash fails.
        assert_eq!(faulty.append(b"x"), Err(WalError::Crashed));
        assert_eq!(faulty.sync(), Err(WalError::Crashed));
        assert_eq!(faulty.list(), Err(WalError::Crashed));
    }

    #[test]
    fn faulty_store_kills_the_nth_sync_leaving_bytes_volatile() {
        let handle = SharedMemStore::new();
        let mut faulty = FaultyStore::new(handle.clone()).fail_on_sync(1);
        faulty.open_segment(0).unwrap();
        faulty.append(b"aaaa").unwrap();
        faulty.sync().unwrap(); // sync 0 passes
        faulty.append(b"bbbb").unwrap();
        assert_eq!(faulty.sync(), Err(WalError::Crashed));
        let crashed = handle.snapshot().crashed(false);
        assert_eq!(crashed.read(0).unwrap(), b"aaaa");
    }
}
