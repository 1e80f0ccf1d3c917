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
//!   geometries;
//! * the incremental sync: a [`CacheCursor`] into the explorer's cache,
//!   so a sync revisits only the cache shards that grew since the last
//!   and a request pays for the records it adds, not for the cache's
//!   size;
//! * the one line reader behind `open`'s dedup scan and every replay;
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
    seen: Seen,
    /// Where the last sync left the explorer's cache, and the scope it
    /// synced under: another scope's dedup set differs, so switching
    /// scopes rewinds to a full walk.
    cursor: CacheCursor,
    cursor_scope: u64,
}

impl Inner {
    /// Writes one line whole and marks `(scope, key)` on disk. One
    /// `write_all` and no user-space buffer: a failed append leaves no
    /// bytes behind to be flushed later.
    fn append(&mut self, scope: u64, key: &str, mut line: String) -> io::Result<()> {
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.seen.insert(scope, key);
        Ok(())
    }
}

impl<R> std::fmt::Debug for RecordLog<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordLog")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl<R: Record> RecordLog<R> {
    /// Opens (creating if absent) the log at `path` and scans its
    /// records into the dedup set, so restarts append only genuinely
    /// new work. Skipped lines stay out of the set: a rebuilt model
    /// re-records its stale-epoch keys fresh.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be read or
    /// opened for appending. Unreadable *records* are not errors.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let (seen, _) = read::<R>(&path, drop)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            path,
            inner: Mutex::new(Inner {
                file,
                seen,
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

    /// Records on disk, including those scanned at open.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().seen.0.values().map(HashSet::len).sum()
    }

    /// Whether no records have been written or scanned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().expect("record log lock poisoned")
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
        let mut inner = self.lock();
        if inner.seen.contains(scope, key) {
            return Ok(false);
        }
        inner.append(scope, key, render())?;
        Ok(true)
    }

    /// Appends every cache entry `collect` returns, each rendered by
    /// `render`, in the canonical key order `collect` sorts them into.
    /// Returns how many records landed.
    ///
    /// `collect` walks the cache from the log's cursor, so it visits
    /// only the shards that grew since the previous sync, and clones
    /// only the entries its `keep` argument accepts: those not yet on
    /// disk under `scope`. The log lock is held once for the whole
    /// sync.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error from an append. The cursor then
    /// rewinds to a full walk, so the next sync offers every entry that
    /// is still not on disk again.
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
        let seen = &inner.seen;
        let fresh = collect(&mut inner.cursor, &mut |key| {
            !seen.contains(scope, key.canonical())
        });
        let mut appended = 0;
        for (key, value) in fresh {
            if let Err(error) = inner.append(scope, key.canonical(), render(&key, &value)) {
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
