//! The persistent run registry: an append-only JSONL log of every
//! characterization the daemon computes, replayable at startup to warm
//! a fresh process's caches.
//!
//! One record per line. Floats are stored as the 16-hex-digit
//! [`f64::to_bits`] pattern, not decimal text, so a replayed value is
//! *bit-identical* to the one originally computed — the property the
//! round-trip tests pin. Records carry a schema version and the
//! [`ExecutionPlan::stable_hash`](coldtall_core::ExecutionPlan::stable_hash)
//! they were computed under; replay ignores records from other schema
//! versions, and dedup keys on `(plan, key)` so restarts never grow the
//! file with repeats.
//!
//! Only characterizations are logged. Evaluations derive from them
//! deterministically, so replaying the characterization cache is enough
//! to make a fresh daemon answer sweeps bit-identically without
//! re-solving any geometry.
//!
//! A corrupt or truncated line (a crash mid-append) is *skipped and
//! counted*, never fatal: the registry is a cache, and losing one
//! record costs a recomputation, not correctness.
//!
//! Syncing is incremental: the registry keeps a [`CacheCursor`] into
//! the explorer's cache and each [`RunRegistry::sync_from`] revisits
//! only the cache shards that grew since the previous one, so a request
//! pays for the records it adds, not for the cache's size.

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use coldtall_array::{ArrayCharacterization, Organization};
use coldtall_core::{CacheCursor, DesignPointKey, Explorer};
use coldtall_obs::json::{self, Value};
use coldtall_units::{Joules, Seconds, SquareMeters, Watts};

use crate::proto::push_escaped;

/// The record schema this build writes and replays. Bump when the
/// field set changes; replay skips records from other versions.
///
/// v2 added the `backend` field: the registry-resolved backend per
/// design-point key, so the routing decision is persisted alongside
/// the characterization it produced.
pub const SCHEMA_VERSION: u32 = 2;

/// Counters from one registry replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Well-formed records imported into the cache.
    pub replayed: u64,
    /// Records whose `(plan, key)` was already seen earlier in the file.
    pub duplicates: u64,
    /// Corrupt, truncated, or wrong-schema lines skipped.
    pub skipped: u64,
}

/// Internal mutable state: the append handle, the dedup set and the
/// sync position.
struct Inner {
    file: File,
    /// Canonical keys already on disk, per plan hash — nested so a
    /// lookup borrows the key's `&str` instead of allocating a pair.
    seen: HashMap<u64, HashSet<String>>,
    /// Where the last [`RunRegistry::sync_from`] left the explorer's
    /// cache, and the plan hash it synced under (another plan's dedup
    /// set differs, so switching plans rewinds to a full walk).
    cursor: CacheCursor,
    cursor_plan: u64,
}

impl Inner {
    fn on_disk(&self, plan_hash: u64, key: &DesignPointKey) -> bool {
        self.seen
            .get(&plan_hash)
            .is_some_and(|keys| keys.contains(key.canonical()))
    }

    /// Writes one record line whole and marks it on disk. One
    /// `write_all` per record: nothing lingers in a buffer, so a failed
    /// append leaves no half-written bytes to be flushed later.
    fn append(
        &mut self,
        plan_hash: u64,
        key: &DesignPointKey,
        backend: &str,
        value: &ArrayCharacterization,
    ) -> io::Result<()> {
        let mut line = render_record(plan_hash, key, backend, value);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.seen
            .entry(plan_hash)
            .or_default()
            .insert(key.canonical().to_string());
        Ok(())
    }
}

/// An append-only on-disk log of computed characterizations.
///
/// All methods take `&self`; appends serialize through an internal
/// mutex, so the registry can be shared across connection threads.
pub struct RunRegistry {
    path: PathBuf,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for RunRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunRegistry")
            .field("path", &self.path)
            .finish_non_exhaustive()
    }
}

impl RunRegistry {
    /// Opens (creating if absent) the registry at `path` and scans any
    /// existing records into the dedup set so restarts append only
    /// genuinely new work.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be opened
    /// for appending. Unreadable *records* are not errors.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        let mut seen: HashMap<u64, HashSet<String>> = HashMap::new();
        if let Ok(file) = File::open(&path) {
            for line in BufReader::new(file).lines() {
                let Ok(line) = line else { break };
                if let Some(record) = parse_record(&line) {
                    seen.entry(record.plan)
                        .or_default()
                        .insert(record.key.canonical().to_string());
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Self {
            path,
            inner: Mutex::new(Inner {
                file,
                seen,
                cursor: CacheCursor::new(),
                cursor_plan: 0,
            }),
        })
    }

    /// The file backing this registry.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records on disk (including those scanned at open).
    #[must_use]
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("registry lock poisoned");
        inner.seen.values().map(HashSet::len).sum()
    }

    /// Whether no records have been written or scanned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one characterization if its `(plan, key)` is not already
    /// on disk, handing the whole line to the OS before returning so a
    /// crash after `record` never loses it. Returns whether a record
    /// was written.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error from the append.
    pub fn record(
        &self,
        plan_hash: u64,
        key: &DesignPointKey,
        backend: &str,
        value: &ArrayCharacterization,
    ) -> io::Result<bool> {
        let mut inner = self.inner.lock().expect("registry lock poisoned");
        if inner.on_disk(plan_hash, key) {
            return Ok(false);
        }
        inner.append(plan_hash, key, backend, value)?;
        Ok(true)
    }

    /// Appends every cached characterization the explorer holds that is
    /// not yet on disk, in canonical key order. Called after each
    /// completed request; returns how many new records landed.
    ///
    /// Only the cache shards that grew since the previous sync are
    /// visited, and only entries missing from disk are cloned. The
    /// registry lock is held once for the whole sync.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error from an append. The sync position
    /// then rewinds to a full walk, so the next sync offers every entry
    /// that is still not on disk again.
    pub fn sync_from(&self, explorer: &Explorer, plan_hash: u64) -> io::Result<u64> {
        let mut guard = self.inner.lock().expect("registry lock poisoned");
        let inner = &mut *guard;
        if inner.cursor_plan != plan_hash {
            inner.cursor.reset();
            inner.cursor_plan = plan_hash;
        }
        let on_disk = inner.seen.get(&plan_hash);
        let fresh = explorer.cached_entries_since(&mut inner.cursor, |key| {
            !on_disk.is_some_and(|keys| keys.contains(key.canonical()))
        });
        let mut appended = 0;
        for (key, value) in fresh {
            // Every cache publish notes its routing; "unknown" is a
            // defensive fallback, not an expected value.
            let backend = explorer
                .resolved_backend(&key)
                .unwrap_or_else(|| "unknown".to_string());
            if let Err(error) = inner.append(plan_hash, &key, &backend, &value) {
                inner.cursor.reset();
                return Err(error);
            }
            appended += 1;
        }
        Ok(appended)
    }

    /// Replays every well-formed record from this registry's file into
    /// the explorer's characterization cache.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file exists but cannot
    /// be read. A missing file replays zero records successfully.
    pub fn replay_into(&self, explorer: &Explorer) -> io::Result<ReplayStats> {
        replay_file(&self.path, explorer)
    }
}

/// Replays the registry file at `path` into `explorer`'s cache, without
/// opening it for writing. Corrupt lines are skipped and counted.
///
/// # Errors
///
/// Returns the underlying I/O error if the file exists but cannot be
/// read. A missing file is an empty registry, not an error.
pub fn replay_file(path: &Path, explorer: &Explorer) -> io::Result<ReplayStats> {
    let mut stats = ReplayStats::default();
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(stats),
        Err(e) => return Err(e),
    };
    let mut seen: HashSet<(u64, String)> = HashSet::new();
    for line in BufReader::new(file).lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let Some(record) = parse_record(&line) else {
            stats.skipped += 1;
            continue;
        };
        if !seen.insert((record.plan, record.key.canonical().to_string())) {
            stats.duplicates += 1;
            continue;
        }
        explorer.import_characterization(&record.key, record.value);
        explorer.note_resolved_backend(&record.key, &record.backend);
        stats.replayed += 1;
    }
    Ok(stats)
}

/// One decoded registry record.
struct Record {
    plan: u64,
    key: DesignPointKey,
    backend: String,
    value: ArrayCharacterization,
}

/// Renders one record line (no trailing newline). Floats go out as
/// their exact bit pattern in hex.
fn render_record(
    plan_hash: u64,
    key: &DesignPointKey,
    backend: &str,
    a: &ArrayCharacterization,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"schema\":{SCHEMA_VERSION},\"plan\":\"{plan_hash:016x}\",\"kind\":\"char\",\"key\":\""
    );
    push_escaped(&mut out, key.canonical());
    out.push_str("\",\"backend\":\"");
    push_escaped(&mut out, backend);
    out.push('"');
    let bits = |out: &mut String, name: &str, v: f64| {
        let _ = write!(out, ",\"{name}\":\"{:016x}\"", v.to_bits());
    };
    bits(&mut out, "read_latency", a.read_latency.get());
    bits(&mut out, "write_latency", a.write_latency.get());
    bits(&mut out, "read_energy", a.read_energy.get());
    bits(&mut out, "write_energy", a.write_energy.get());
    bits(&mut out, "leakage_power", a.leakage_power.get());
    bits(&mut out, "refresh_power", a.refresh_power.get());
    bits(&mut out, "refresh_busy_fraction", a.refresh_busy_fraction);
    match a.retention {
        Some(r) => bits(&mut out, "retention", r.get()),
        None => out.push_str(",\"retention\":null"),
    }
    bits(&mut out, "footprint", a.footprint.get());
    bits(&mut out, "total_silicon", a.total_silicon.get());
    bits(&mut out, "array_efficiency", a.array_efficiency);
    let _ = write!(
        out,
        ",\"org\":[{},{}],\"dies\":{}",
        a.organization.rows(),
        a.organization.cols(),
        a.dies
    );
    bits(&mut out, "transfer_bits", a.transfer_bits);
    bits(&mut out, "read_cycle", a.read_cycle_time.get());
    bits(&mut out, "write_cycle", a.write_cycle_time.get());
    out.push('}');
    out
}

/// Decodes one record line; `None` for anything malformed — bad JSON,
/// wrong schema, missing fields, bad hex, out-of-range geometry.
fn parse_record(line: &str) -> Option<Record> {
    let value = json::parse(line).ok()?;
    let Value::Object(fields) = &value else {
        return None;
    };
    if fields.get("schema").and_then(Value::as_f64) != Some(f64::from(SCHEMA_VERSION)) {
        return None;
    }
    if fields.get("kind") != Some(&Value::String("char".to_string())) {
        return None;
    }
    let plan = match fields.get("plan") {
        Some(Value::String(s)) if s.len() == 16 => u64::from_str_radix(s, 16).ok()?,
        _ => return None,
    };
    let key = match fields.get("key") {
        Some(Value::String(s)) if !s.is_empty() => DesignPointKey::from_canonical(s.clone()),
        _ => return None,
    };
    let backend = match fields.get("backend") {
        Some(Value::String(s)) if !s.is_empty() => s.clone(),
        _ => return None,
    };
    let bits = |name: &str| -> Option<f64> { f64_bits(fields.get(name)?) };
    let retention = match fields.get("retention") {
        Some(Value::Null) => None,
        Some(v) => Some(Seconds::new(f64_bits(v)?)),
        None => return None,
    };
    let (rows, cols) = match fields.get("org") {
        Some(Value::Array(dims)) if dims.len() == 2 => {
            let rows = subarray_dim(&dims[0])?;
            let cols = subarray_dim(&dims[1])?;
            (rows, cols)
        }
        _ => return None,
    };
    let dies = match fields.get("dies").and_then(Value::as_f64) {
        Some(n) if n.fract() == 0.0 && (1.0..=255.0).contains(&n) => {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            {
                n as u8
            }
        }
        _ => return None,
    };
    let value = ArrayCharacterization {
        read_latency: Seconds::new(bits("read_latency")?),
        write_latency: Seconds::new(bits("write_latency")?),
        read_energy: Joules::new(bits("read_energy")?),
        write_energy: Joules::new(bits("write_energy")?),
        leakage_power: Watts::new(bits("leakage_power")?),
        refresh_power: Watts::new(bits("refresh_power")?),
        refresh_busy_fraction: bits("refresh_busy_fraction")?,
        retention,
        footprint: SquareMeters::new(bits("footprint")?),
        total_silicon: SquareMeters::new(bits("total_silicon")?),
        array_efficiency: bits("array_efficiency")?,
        organization: Organization::new(rows, cols),
        dies,
        transfer_bits: bits("transfer_bits")?,
        read_cycle_time: Seconds::new(bits("read_cycle")?),
        write_cycle_time: Seconds::new(bits("write_cycle")?),
    };
    Some(Record {
        plan,
        key,
        backend,
        value,
    })
}

/// Decodes a 16-hex-digit bit-pattern string into the exact `f64`.
fn f64_bits(value: &Value) -> Option<f64> {
    match value {
        Value::String(s) if s.len() == 16 => {
            u64::from_str_radix(s, 16).ok().map(f64::from_bits)
        }
        _ => None,
    }
}

/// Validates a stored subarray dimension: [`Organization::new`] panics
/// on non-power-of-two geometry, so a corrupt record must be rejected
/// *here*, before reconstruction.
fn subarray_dim(value: &Value) -> Option<u32> {
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
    use coldtall_core::MemoryConfig;

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "coldtall-registry-{tag}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn records_round_trip_bit_identically() {
        let explorer = Explorer::with_defaults();
        let config = MemoryConfig::edram_77k();
        let original = explorer.characterize(&config);
        let key = DesignPointKey::of_config(&config);

        let path = temp_path("roundtrip");
        let registry = RunRegistry::open(&path).unwrap();
        assert!(registry.record(7, &key, "cryomem", &original).unwrap());
        // Same (plan, key) again is a dedup no-op.
        assert!(!registry.record(7, &key, "cryomem", &original).unwrap());
        assert_eq!(registry.len(), 1);

        let fresh = Explorer::with_defaults();
        let stats = replay_file(&path, &fresh).unwrap();
        assert_eq!(
            stats,
            ReplayStats {
                replayed: 1,
                duplicates: 0,
                skipped: 0
            }
        );
        let cached = fresh.cached_entries();
        assert_eq!(cached.len(), 1);
        // Replay restores the routing record alongside the value.
        assert_eq!(fresh.resolved_backend(&key).as_deref(), Some("cryomem"));
        assert_eq!(cached[0].0.canonical(), key.canonical());
        assert_eq!(cached[0].0.stable_hash(), key.stable_hash());
        // Bit-identity, not approximate equality.
        assert_eq!(
            cached[0].1.read_latency.get().to_bits(),
            original.read_latency.get().to_bits()
        );
        assert_eq!(cached[0].1, original);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_and_foreign_lines_are_skipped_not_fatal() {
        let explorer = Explorer::with_defaults();
        let config = MemoryConfig::sram_350k();
        let array = explorer.characterize(&config);
        let key = DesignPointKey::of_config(&config);

        let path = temp_path("corrupt");
        let good = render_record(1, &key, "cryomem", &array);
        let truncated = &good[..good.len() / 2];
        let wrong_schema = good.replacen("\"schema\":2", "\"schema\":99", 1);
        // A v1 record (no backend field) is foreign, not fatal.
        let v1_record = good
            .replacen("\"schema\":2", "\"schema\":1", 1)
            .replacen(",\"backend\":\"cryomem\"", "", 1);
        // Non-power-of-two geometry must be rejected before the
        // Organization constructor can panic on it.
        let bad_org = good.replacen("\"org\":[", "\"org\":[3,", 1);
        let contents = format!(
            "{good}\nnot json at all\n{truncated}\n{wrong_schema}\n{v1_record}\n{bad_org}\n{good}\n"
        );
        std::fs::write(&path, contents).unwrap();

        let fresh = Explorer::with_defaults();
        let stats = replay_file(&path, &fresh).unwrap();
        assert_eq!(stats.replayed, 1);
        assert_eq!(stats.duplicates, 1); // the repeated good line
        assert_eq!(stats.skipped, 5);
        assert_eq!(fresh.cached_entries().len(), 1);

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_scans_the_dedup_set_and_sync_appends_only_new_work() {
        let path = temp_path("reopen");
        let explorer = Explorer::with_defaults();
        let plan = 42;
        let _ = explorer.characterize(&MemoryConfig::sram_350k());
        {
            let registry = RunRegistry::open(&path).unwrap();
            assert_eq!(registry.sync_from(&explorer, plan).unwrap(), 1);
        }
        // A second process appends only what is genuinely new.
        let _ = explorer.characterize(&MemoryConfig::edram_77k());
        let registry = RunRegistry::open(&path).unwrap();
        assert_eq!(registry.len(), 1);
        assert_eq!(registry.sync_from(&explorer, plan).unwrap(), 1);
        assert_eq!(registry.sync_from(&explorer, plan).unwrap(), 0);
        assert_eq!(registry.len(), 2);

        let stats = registry.replay_into(&Explorer::with_defaults()).unwrap();
        assert_eq!(stats.replayed, 2);
        assert_eq!(stats.skipped, 0);

        let _ = std::fs::remove_file(&path);
    }

    /// The sync this registry did before it kept a cursor: walk the
    /// whole cache and record whatever is not yet on disk.
    fn full_walk_sync(registry: &RunRegistry, explorer: &Explorer, plan: u64) {
        for (key, value) in explorer.cached_entries() {
            let backend = explorer
                .resolved_backend(&key)
                .unwrap_or_else(|| "unknown".to_string());
            registry.record(plan, &key, &backend, &value).unwrap();
        }
    }

    fn record_keys(path: &Path) -> Vec<String> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(|line| {
                parse_record(line)
                    .expect("well-formed line")
                    .key
                    .canonical()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn each_sync_appends_exactly_the_new_keys_like_a_full_walk() {
        let (path, reference_path) = (temp_path("incremental"), temp_path("full-walk"));
        let registry = RunRegistry::open(&path).unwrap();
        let reference = RunRegistry::open(&reference_path).unwrap();
        let explorer = Explorer::with_defaults();
        let plan = 11;
        let study = MemoryConfig::study_set();
        // Overlapping steps, one repeated: some syncs add nothing.
        let steps = [
            &study[..3],
            &study[2..9],
            &study[2..9],
            &study[9..],
            &study[..],
        ];
        let mut on_disk: Vec<String> = Vec::new();
        for step in steps {
            explorer.try_sweep_configs(step).unwrap();
            let mut expected: Vec<String> = explorer
                .cached_entries()
                .into_iter()
                .map(|(key, _)| key.canonical().to_string())
                .filter(|key| !on_disk.contains(key))
                .collect();
            expected.sort_unstable();
            let appended = registry.sync_from(&explorer, plan).unwrap();
            assert_eq!(appended as usize, expected.len());
            assert_eq!(record_keys(&path)[on_disk.len()..], expected[..]);
            on_disk.extend(expected);
            assert_eq!(
                registry.sync_from(&explorer, plan).unwrap(),
                0,
                "an idle sync adds nothing"
            );
            full_walk_sync(&reference, &explorer, plan);
        }
        assert_eq!(on_disk.len(), explorer.cached_characterizations());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&reference_path).unwrap(),
            "incremental sync must write the full walk's bytes"
        );
        // A sync under another plan hash starts a fresh dedup set.
        assert_eq!(
            registry.sync_from(&explorer, plan + 1).unwrap() as usize,
            on_disk.len()
        );

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&reference_path);
    }

    #[test]
    fn a_failed_append_is_retried_by_the_next_sync() {
        let path = temp_path("retry");
        let registry = RunRegistry::open(&path).unwrap();
        let explorer = Explorer::with_defaults();
        let _ = explorer.characterize(&MemoryConfig::sram_350k());
        assert_eq!(registry.sync_from(&explorer, 5).unwrap(), 1);

        // A read-only handle in place of the append handle: every
        // append fails.
        let append_handle = std::mem::replace(
            &mut registry.inner.lock().unwrap().file,
            File::open(&path).unwrap(),
        );
        let _ = explorer.characterize(&MemoryConfig::edram_77k());
        let _ = explorer.characterize(&MemoryConfig::sram_77k());
        assert!(registry.sync_from(&explorer, 5).is_err());
        assert_eq!(registry.len(), 1, "nothing new reached the disk");

        registry.inner.lock().unwrap().file = append_handle;
        assert_eq!(
            registry.sync_from(&explorer, 5).unwrap(),
            2,
            "the next sync appends what the failed one could not"
        );
        assert_eq!(registry.sync_from(&explorer, 5).unwrap(), 0);
        let stats = registry.replay_into(&Explorer::with_defaults()).unwrap();
        assert_eq!((stats.replayed, stats.duplicates, stats.skipped), (3, 0, 0));

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_replays_empty() {
        let path = temp_path("missing");
        let stats = replay_file(&path, &Explorer::with_defaults()).unwrap();
        assert_eq!(stats, ReplayStats::default());
    }

    #[test]
    fn retention_none_round_trips() {
        let explorer = Explorer::with_defaults();
        let config = MemoryConfig::sram_350k();
        let array = explorer.characterize(&config);
        assert!(array.retention.is_none(), "SRAM has no retention limit");
        let key = DesignPointKey::of_config(&config);
        let line = render_record(3, &key, "cryomem", &array);
        assert!(line.contains("\"retention\":null"));
        assert!(line.contains("\"backend\":\"cryomem\""));
        let record = parse_record(&line).expect("well-formed record");
        assert_eq!(record.value, array);
        assert_eq!(record.plan, 3);
        assert_eq!(record.backend, "cryomem");
    }
}
