//! The append-only JSONL record log behind both persistent stores. The
//! run registry ([`RunRegistry`](crate::RunRegistry)) and the geometry
//! warm-start store ([`GeometryStore`](crate::GeometryStore)) are this
//! one log over two [`Record`] line formats.
//!
//! The log owns everything the formats share:
//!
//! * the append handle, written one whole line per `write_all` with no
//!   user-space buffer, so a failed append leaves no half-written bytes
//!   to be flushed later;
//! * the dedup set of `(scope, canonical key)` pairs already on disk.
//!   The scope is the execution-plan hash for characterizations and
//!   [`geometry_code_epoch`](coldtall_array::geometry_code_epoch) for
//!   geometries. `open` reads nothing: the first replay installs the
//!   set its read built, and an append, sync or `len` before any replay
//!   scans the file once, so a start-up that opens and replays a store
//!   reads it once;
//! * the incremental sync: a [`CacheCursor`] into the explorer's cache,
//!   a position in its insertion-ordered log, so a sync visits only the
//!   entries published since the last and a request pays for the
//!   records it adds, not for the cache's size;
//! * the one line reader behind every replay and the dedup scan. Every
//!   replay re-reads the file;
//! * the codec helpers. Floats travel as the 16-hex-digit
//!   [`f64::to_bits`] pattern, not decimal text, so a replayed value is
//!   *bit-identical* to the one originally computed.
//!
//! A line that is not UTF-8, not JSON, of another schema or kind,
//! longer than [`MAX_RECORD_BYTES`], or that its format cannot decode
//! (a stale epoch, a bad field, a crash mid-append) is *skipped and
//! counted*, never fatal: each store is a cache, and losing one record
//! costs a recomputation, not correctness.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use coldtall_core::{CacheCursor, DesignPointKey};
use coldtall_obs::json::{self, Value};

/// The longest store line the reader takes, newline included. Real
/// records are far shorter (the longest geometry record is 5,804 bytes,
/// the longest registry record 621); the cap bounds what a line with no
/// newline can make the reader buffer.
pub(crate) const MAX_RECORD_BYTES: usize = 1 << 20;

/// One line format of a [`RecordLog`].
pub trait Record: Sized {
    /// The `kind` tag every line of this format carries.
    const KIND: &'static str;
    /// The `schema` version this build writes; lines of any other
    /// version are skipped.
    const SCHEMA: u32;

    /// Decodes the fields of a line whose `schema` and `kind` match;
    /// `None` for a malformed or stale record.
    fn decode(fields: &BTreeMap<String, Value>) -> Option<Self>;

    /// The record's dedup identity: its scope and canonical key.
    fn id(&self) -> (u64, &str);
}

/// Counters from one replay of a record log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records imported into the explorer's caches.
    pub replayed: u64,
    /// Well-formed records whose `(scope, key)` was already read earlier
    /// in the file (the first copy wins).
    pub duplicates: u64,
    /// Lines skipped: not UTF-8, not JSON, another schema or kind,
    /// longer than the line cap (1 MiB), or a record its format cannot
    /// decode.
    pub skipped: u64,
}

/// An append-only on-disk log of `R` records, one JSON object per line.
///
/// All methods take `&self`; appends serialize through an internal
/// mutex, so one log can be shared across connection threads.
pub struct RecordLog<R> {
    path: PathBuf,
    inner: Mutex<Inner>,
    record: PhantomData<R>,
}

/// Canonical keys per scope — nested so a lookup borrows the key's
/// `&str` instead of allocating a `(scope, key)` pair.
#[derive(Default)]
struct Seen(HashMap<u64, HashSet<String>>);

impl Seen {
    fn contains(&self, scope: u64, key: &str) -> bool {
        self.0.get(&scope).is_some_and(|keys| keys.contains(key))
    }

    /// Marks `(scope, key)`; `false` if it was already marked.
    fn insert(&mut self, scope: u64, key: &str) -> bool {
        let keys = self.0.entry(scope).or_default();
        !keys.contains(key) && keys.insert(key.to_string())
    }
}

/// The append handle, the dedup set and the sync position.
struct Inner {
    file: File,
    /// `None` until the first replay installs the set its read built,
    /// or the first append, sync or `len` scans the file.
    seen: Option<Seen>,
    /// Where the last sync left the explorer's cache, and the scope it
    /// synced under: another scope's dedup set differs, so switching
    /// scopes rewinds to a full walk.
    cursor: CacheCursor,
    cursor_scope: u64,
}

/// The dedup set in `slot`, scanning the log at `path` into it first if
/// no replay has loaded one. A failed scan leaves the slot empty.
fn loaded<'a, R: Record>(slot: &'a mut Option<Seen>, path: &Path) -> io::Result<&'a mut Seen> {
    let seen = match slot.take() {
        Some(seen) => seen,
        None => read::<R>(path, drop)?.0,
    };
    Ok(slot.insert(seen))
}

/// Writes one line whole and marks `(scope, key)` on disk. One
/// `write_all` and no user-space buffer: a failed append leaves no
/// bytes behind to be flushed later.
fn append(
    file: &mut File,
    seen: &mut Seen,
    scope: u64,
    key: &str,
    mut line: String,
) -> io::Result<()> {
    line.push('\n');
    file.write_all(line.as_bytes())?;
    seen.insert(scope, key);
    Ok(())
}

impl<R> std::fmt::Debug for RecordLog<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordLog")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl<R: Record> RecordLog<R> {
    /// Opens (creating if absent) the log at `path` for appending. It
    /// reads nothing: the first replay fills the dedup set as it reads
    /// the file, and an append, sync or [`len`](Self::len) before any
    /// replay scans the file into it once, so restarts append only
    /// genuinely new work. Skipped lines stay out of the set: a rebuilt
    /// model re-records its stale-epoch keys fresh.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be opened for
    /// appending. A read error surfaces from the first replay, append or
    /// sync instead; unreadable *records* are never errors.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            path,
            inner: Mutex::new(Inner {
                file,
                seen: None,
                cursor: CacheCursor::new(),
                cursor_scope: 0,
            }),
            record: PhantomData,
        })
    }

    /// The file backing this log.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records on disk: those the first replay or scan read, plus those
    /// appended since. Before any replay, the first call scans the file.
    /// A failed scan is not a panic: `len` reports 0 and the set stays
    /// unloaded, so the next replay, append or sync returns the read
    /// error.
    #[must_use]
    pub fn len(&self) -> usize {
        let mut inner = self.lock();
        loaded::<R>(&mut inner.seen, &self.path)
            .map_or(0, |seen| seen.0.values().map(HashSet::len).sum())
    }

    /// Whether no records are on disk, as [`len`](Self::len) counts them.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("record log lock poisoned")
    }

    /// Reads the whole file, handing the first copy of each record to
    /// `import`, and installs the dedup set that read built unless one
    /// is loaded already (an append's scan, or an earlier replay, keeps
    /// its set). Every replay re-reads the file. The log lock is held
    /// across the read, so `import` runs under it: log before cache, the
    /// order a sync takes them in.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file exists but cannot be
    /// read. A missing file is an empty log, not an error.
    pub(crate) fn replay(&self, import: impl FnMut(R)) -> io::Result<ReplayStats> {
        let mut inner = self.lock();
        let (seen, stats) = read(&self.path, import)?;
        inner.seen.get_or_insert(seen);
        Ok(stats)
    }

    /// Appends the line `render` makes unless `(scope, key)` is already
    /// on disk, handing the whole line to the OS before returning so a
    /// crash afterwards never loses it. Returns whether it wrote.
    pub(crate) fn append_new(
        &self,
        scope: u64,
        key: &str,
        render: impl FnOnce() -> String,
    ) -> io::Result<bool> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let seen = loaded::<R>(&mut inner.seen, &self.path)?;
        if seen.contains(scope, key) {
            return Ok(false);
        }
        append(&mut inner.file, seen, scope, key, render())?;
        Ok(true)
    }

    /// Appends every cache entry `collect` returns, each rendered by
    /// `render`, in the canonical key order `collect` sorts them into.
    /// Returns how many records landed.
    ///
    /// `collect` walks the cache from the log's cursor, so it visits
    /// only the entries published since the previous sync, and clones
    /// only those its `keep` argument accepts: the ones not yet on
    /// disk under `scope`. The log lock is held once for the whole
    /// sync.
    ///
    /// # Errors
    ///
    /// Returns the read error if the dedup set is not loaded and the
    /// file cannot be scanned, or the first I/O error from an append.
    /// After a failed append the cursor rewinds to a full walk, so the
    /// next sync offers every entry that is still not on disk again.
    pub(crate) fn sync<V>(
        &self,
        scope: u64,
        collect: impl FnOnce(
            &mut CacheCursor,
            &mut dyn FnMut(&DesignPointKey) -> bool,
        ) -> Vec<(DesignPointKey, V)>,
        mut render: impl FnMut(&DesignPointKey, &V) -> String,
    ) -> io::Result<u64> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        if inner.cursor_scope != scope {
            inner.cursor.reset();
            inner.cursor_scope = scope;
        }
        let seen = loaded::<R>(&mut inner.seen, &self.path)?;
        let fresh = collect(&mut inner.cursor, &mut |key| {
            !seen.contains(scope, key.canonical())
        });
        let mut appended = 0;
        for (key, value) in fresh {
            let line = render(&key, &value);
            if let Err(error) = append(&mut inner.file, seen, scope, key.canonical(), line) {
                inner.cursor.reset();
                return Err(error);
            }
            appended += 1;
        }
        Ok(appended)
    }
}

#[cfg(test)]
impl<R> RecordLog<R> {
    /// Swaps the append handle, so a test can make every append fail.
    pub(crate) fn swap_file(&self, file: File) -> File {
        std::mem::replace(&mut self.inner.lock().unwrap().file, file)
    }
}

/// Replays the log at `path`, handing the first copy of each record to
/// `import`, without opening the file for writing.
///
/// # Errors
///
/// Returns the underlying I/O error if the file exists but cannot be
/// read. A missing file is an empty log, not an error.
pub(crate) fn replay<R: Record>(path: &Path, import: impl FnMut(R)) -> io::Result<ReplayStats> {
    read(path, import).map(|(_, stats)| stats)
}

/// The one line reader. A missing file reads as empty and blank lines
/// are ignored. Each record's first copy goes to `each` and counts as
/// `replayed`; later copies count as `duplicates`; a line
/// [`decode`] rejects, one that is not UTF-8, or one longer than
/// [`MAX_RECORD_BYTES`] counts as `skipped`. An over-long line is never
/// buffered whole: the reader drops the rest of it up to the next
/// newline a buffer at a time. Returns the dedup set of the records
/// read with the counts.
fn read<R: Record>(path: &Path, mut each: impl FnMut(R)) -> io::Result<(Seen, ReplayStats)> {
    #[cfg(test)]
    READS.with(|reads| reads.borrow_mut().push(path.to_path_buf()));
    let mut seen = Seen::default();
    let mut stats = ReplayStats::default();
    let mut reader = match File::open(path) {
        Ok(file) => BufReader::new(file),
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((seen, stats)),
        Err(e) => return Err(e),
    };
    let mut line = Vec::new();
    loop {
        line.clear();
        // At most one byte past the cap: a line that reaches it is
        // over-long whether or not its newline has arrived.
        let budget = MAX_RECORD_BYTES as u64 + 1;
        if (&mut reader).take(budget).read_until(b'\n', &mut line)? == 0 {
            break;
        }
        if line.len() > MAX_RECORD_BYTES {
            if line.last() != Some(&b'\n') {
                reader.skip_until(b'\n')?;
            }
            stats.skipped += 1;
            continue;
        }
        let text = std::str::from_utf8(&line);
        if !text.is_ok_and(|text| text.trim().is_empty()) {
            match text.ok().and_then(decode::<R>) {
                None => stats.skipped += 1,
                Some(record) => {
                    let (scope, key) = record.id();
                    if seen.insert(scope, key) {
                        each(record);
                        stats.replayed += 1;
                    } else {
                        stats.duplicates += 1;
                    }
                }
            }
        }
    }
    Ok((seen, stats))
}

#[cfg(test)]
thread_local! {
    /// Every file [`read`] opened on this thread, in order: the tally the
    /// read-count tests pin.
    static READS: std::cell::RefCell<Vec<PathBuf>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Drains this thread's tally of [`read`] calls, one path per read.
#[cfg(test)]
pub(crate) fn take_reads() -> Vec<PathBuf> {
    READS.with(std::cell::RefCell::take)
}

/// Decodes one line: a JSON object whose `schema` and `kind` are `R`'s,
/// with fields `R` can decode.
pub(crate) fn decode<R: Record>(line: &str) -> Option<R> {
    let Value::Object(fields) = json::parse(line).ok()? else {
        return None;
    };
    let header = fields.get("schema").and_then(Value::as_f64) == Some(f64::from(R::SCHEMA))
        && matches!(fields.get("kind"), Some(Value::String(kind)) if kind == R::KIND);
    header.then(|| R::decode(&fields)).flatten()
}

/// Decodes a 16-hex-digit string into the exact `u64`.
pub(crate) fn hex_u64(value: &Value) -> Option<u64> {
    match value {
        Value::String(s) if s.len() == 16 => u64::from_str_radix(s, 16).ok(),
        _ => None,
    }
}

/// Decodes a 16-hex-digit bit-pattern string into the exact `f64`.
pub(crate) fn f64_bits(value: &Value) -> Option<f64> {
    hex_u64(value).map(f64::from_bits)
}

/// Validates a stored subarray dimension:
/// [`Organization::new`](coldtall_array::Organization::new) panics on
/// non-power-of-two geometry, so a corrupt record must be rejected
/// *here*, before reconstruction.
pub(crate) fn subarray_dim(value: &Value) -> Option<u32> {
    let n = value.as_f64()?;
    if !(n.is_finite() && n.fract() == 0.0 && (1.0..=f64::from(u32::MAX)).contains(&n)) {
        return None;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let dim = n as u32;
    dim.is_power_of_two().then_some(dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GeometryStore, RunRegistry};
    use coldtall_core::{Backend, Explorer, MemoryConfig};
    use std::slice::from_ref;

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("coldtall-log-{tag}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// An explorer that swept the 350 K and 77 K SRAM points, and a
    /// registry (plan 1) and a geometry store holding what it computed:
    /// two characterizations and their one geometry.
    fn seeded(tag: &str) -> (Explorer, PathBuf, PathBuf) {
        let explorer = Explorer::with_defaults();
        explorer
            .try_sweep_configs(&[MemoryConfig::sram_350k(), MemoryConfig::sram_77k()])
            .unwrap();
        let registry = temp_path(&format!("{tag}-registry"));
        let geometry = temp_path(&format!("{tag}-geometry"));
        assert_eq!(
            RunRegistry::open(&registry)
                .unwrap()
                .sync_from(&explorer, 1)
                .unwrap(),
            2
        );
        assert_eq!(
            GeometryStore::open(&geometry)
                .unwrap()
                .sync_from(&explorer)
                .unwrap(),
            1
        );
        take_reads();
        (explorer, registry, geometry)
    }

    #[test]
    fn open_reads_nothing_and_each_replay_reads_once() {
        let (_, registry_path, geometry_path) = seeded("replay");
        let registry = RunRegistry::open(&registry_path).unwrap();
        let store = GeometryStore::open(&geometry_path).unwrap();
        assert_eq!(take_reads(), Vec::<PathBuf>::new(), "open reads nothing");

        let explorer = Explorer::with_defaults();
        let replay = registry.replay_into(&explorer).unwrap();
        assert_eq!(take_reads(), from_ref(&registry_path));
        let warm = store
            .warm_into(&explorer, &[MemoryConfig::sram_350k()])
            .unwrap();
        assert_eq!(take_reads(), from_ref(&geometry_path));
        assert_eq!((replay.replayed, warm.replayed), (2, 1));

        // The replays filled the dedup sets: counting and syncing read
        // nothing more, and append nothing.
        assert_eq!((registry.len(), store.len()), (2, 1));
        assert_eq!(registry.sync_from(&explorer, 1).unwrap(), 0);
        assert_eq!(store.sync_from(&explorer).unwrap(), 0);
        assert_eq!(take_reads(), Vec::<PathBuf>::new());

        // Every replay re-reads the file.
        assert_eq!(registry.replay_into(&explorer).unwrap(), replay);
        store.warm_into(&explorer, &[]).unwrap();
        assert_eq!(take_reads(), [registry_path.clone(), geometry_path.clone()]);

        let _ = std::fs::remove_file(&registry_path);
        let _ = std::fs::remove_file(&geometry_path);
    }

    #[test]
    fn an_append_sync_or_len_before_any_replay_scans_once() {
        let (explorer, registry_path, geometry_path) = seeded("scan");
        let config = MemoryConfig::sram_350k();
        let key = DesignPointKey::of_config(&config);
        let value = explorer.characterize(&config);
        let (geometry_key, geometry) = explorer.geometry_cache().snapshot().remove(0);

        // Each first use finds the records already on disk, so it must
        // have scanned them; a second use reads nothing.
        let registry_uses: [&dyn Fn(&RunRegistry); 3] = [
            &|registry| assert!(!registry.record(1, &key, Backend::CryoMem, &value).unwrap()),
            &|registry| assert_eq!(registry.sync_from(&explorer, 1).unwrap(), 0),
            &|registry| assert_eq!(registry.len(), 2),
        ];
        for first_use in registry_uses {
            let registry = RunRegistry::open(&registry_path).unwrap();
            first_use(&registry);
            first_use(&registry);
            assert_eq!(take_reads(), from_ref(&registry_path), "one scan");
            registry.replay_into(&Explorer::with_defaults()).unwrap();
            assert_eq!(
                take_reads(),
                from_ref(&registry_path),
                "a replay reads again"
            );
        }
        let store_uses: [&dyn Fn(&GeometryStore); 3] = [
            &|store| assert!(!store.record(&geometry_key, &geometry).unwrap()),
            &|store| assert_eq!(store.sync_from(&explorer).unwrap(), 0),
            &|store| assert_eq!(store.len(), 1),
        ];
        for first_use in store_uses {
            let store = GeometryStore::open(&geometry_path).unwrap();
            first_use(&store);
            first_use(&store);
            assert_eq!(take_reads(), from_ref(&geometry_path), "one scan");
            store
                .warm_into(&Explorer::with_defaults(), from_ref(&config))
                .unwrap();
            assert_eq!(
                take_reads(),
                from_ref(&geometry_path),
                "a warm-start reads again"
            );
        }

        // A replay keeps the set a scan loaded: it does not take in a
        // record another handle appended after the scan.
        let registry = RunRegistry::open(&registry_path).unwrap();
        assert_eq!(registry.len(), 2);
        assert!(RunRegistry::open(&registry_path)
            .unwrap()
            .record(2, &key, Backend::CryoMem, &value)
            .unwrap());
        let stats = registry.replay_into(&Explorer::with_defaults()).unwrap();
        assert_eq!(
            stats.replayed, 3,
            "the replay read the other handle's record"
        );
        assert_eq!(registry.len(), 2, "and kept the scanned set");

        let _ = std::fs::remove_file(&registry_path);
        let _ = std::fs::remove_file(&geometry_path);
    }

    #[test]
    fn open_fails_only_where_it_cannot_append_and_reads_fail_later() {
        let dir = std::env::temp_dir();
        assert!(RunRegistry::open(&dir).is_err(), "a directory");
        let orphan = temp_path("orphan").join("registry.jsonl");
        assert!(GeometryStore::open(&orphan).is_err(), "a missing parent");

        let path = temp_path("created");
        let registry = RunRegistry::open(&path).unwrap();
        assert!(path.exists(), "open creates the file");

        // A path that stops being readable after `open`: the read error
        // surfaces from each replay, append and sync, and `len` reports 0.
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        let explorer = Explorer::with_defaults();
        let config = MemoryConfig::sram_350k();
        let value = explorer.characterize(&config);
        take_reads();
        assert!(registry.is_empty());
        assert!(registry.replay_into(&explorer).is_err());
        assert!(registry
            .record(
                1,
                &DesignPointKey::of_config(&config),
                Backend::CryoMem,
                &value
            )
            .is_err());
        assert!(registry.sync_from(&explorer, 1).is_err());
        assert_eq!(take_reads().len(), 4, "each use retries the scan");
        std::fs::remove_dir(&path).unwrap();
    }
}
