//! The persistent run registry: the append-only record log of every
//! characterization the daemon computes, replayable at startup to warm
//! a fresh process's caches.
//!
//! One record per line, floats stored as the 16-hex-digit
//! [`f64::to_bits`] pattern so a replayed value is *bit-identical*.
//! Records carry a schema version and the
//! [`SweepPlan::stable_hash`](coldtall_core::SweepPlan::stable_hash)
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
//! counted* in [`ReplayStats`], never fatal: the registry is a cache,
//! and losing one record costs a recomputation, not correctness.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use coldtall_array::{ArrayCharacterization, Organization};
use coldtall_core::{Backend, DesignPointKey, Explorer};
use coldtall_obs::json::{push_escaped, Value};
use coldtall_units::{Joules, Seconds, SquareMeters, Watts};

use crate::log::{self, f64_bits, hex_u64, subarray_dim, Record, RecordLog, ReplayStats};

/// The record schema this build writes and replays. Bump when the
/// field set changes; replay skips records from other versions.
///
/// v2 added the `backend` field: the registry-resolved backend per
/// design-point key, so the routing decision is persisted alongside
/// the characterization it produced.
pub const SCHEMA_VERSION: u32 = 2;

/// An append-only on-disk log of computed characterizations.
///
/// `RunRegistry::open(path)` creates the file if absent and reads
/// nothing; `replay_into` reads it once, importing its records and
/// filling the dedup set together, so restarts append only new work. An
/// append, sync or `len` before any replay scans the file into the set
/// instead. `path`, `len` and `is_empty` report on it. All methods take
/// `&self`: appends serialize through an internal mutex, so one
/// registry can be shared across connection threads.
pub type RunRegistry = RecordLog<CharRecord>;

impl RunRegistry {
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
        backend: Backend,
        value: &ArrayCharacterization,
    ) -> io::Result<bool> {
        self.append_new(plan_hash, key.canonical(), || {
            render_record(plan_hash, key, backend, value)
        })
    }

    /// Appends every cached characterization the explorer holds that is
    /// not yet on disk under `plan_hash`, in canonical key order, and
    /// returns how many new records landed. Called after each completed
    /// request; only the cache entries published since the previous
    /// sync are visited, and a sync under another plan hash rewinds to
    /// a full walk.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error from an append. The sync position
    /// then rewinds to a full walk, so the next sync offers every entry
    /// that is still not on disk again.
    pub fn sync_from(&self, explorer: &Explorer, plan_hash: u64) -> io::Result<u64> {
        self.sync(
            plan_hash,
            |cursor, keep| explorer.cached_entries_since(cursor, keep),
            |key, (value, backend)| render_record(plan_hash, key, *backend, value),
        )
    }

    /// Replays every well-formed record from this registry's file into
    /// the explorer's characterization cache. Each call re-reads the
    /// file; the first one also fills the dedup set, unless an append
    /// already scanned it.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file exists but cannot
    /// be read. A missing file replays zero records successfully.
    pub fn replay_into(&self, explorer: &Explorer) -> io::Result<ReplayStats> {
        self.replay(|record| import(explorer, record))
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
    log::replay(path, |record| import(explorer, record))
}

/// Imports one replayed record into `explorer`'s characterization cache,
/// with the backend that produced it.
fn import(explorer: &Explorer, record: CharRecord) {
    explorer.import_characterization(&record.key, record.value, record.backend);
}

/// One decoded registry record: a characterization, the backend that
/// produced it, and the plan it was computed under.
pub struct CharRecord {
    plan: u64,
    key: DesignPointKey,
    backend: Backend,
    value: ArrayCharacterization,
}

/// Renders one record line (no trailing newline). Floats go out as
/// their exact bit pattern in hex.
fn render_record(
    plan_hash: u64,
    key: &DesignPointKey,
    backend: Backend,
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
    out.push_str(backend.name());
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

impl Record for CharRecord {
    const KIND: &'static str = "char";
    const SCHEMA: u32 = SCHEMA_VERSION;

    fn id(&self) -> (u64, &str) {
        (self.plan, self.key.canonical())
    }

    /// Rejects missing fields, bad hex, out-of-range geometry and a
    /// backend this build does not have.
    fn decode(fields: &BTreeMap<String, Value>) -> Option<Self> {
        let plan = hex_u64(fields.get("plan")?)?;
        let key = match fields.get("key") {
            Some(Value::String(s)) if !s.is_empty() => DesignPointKey::from_canonical(s.clone()),
            _ => return None,
        };
        let backend = match fields.get("backend") {
            Some(Value::String(s)) => Backend::from_name(s)?,
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
                (subarray_dim(&dims[0])?, subarray_dim(&dims[1])?)
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
        Some(Self {
            plan,
            key,
            backend,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coldtall_core::MemoryConfig;
    use std::fs::File;
    use std::path::PathBuf;

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
        assert!(registry
            .record(7, &key, Backend::CryoMem, &original)
            .unwrap());
        // Same (plan, key) again is a dedup no-op.
        assert!(!registry
            .record(7, &key, Backend::CryoMem, &original)
            .unwrap());
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
        assert_eq!(fresh.resolved_backend(&key), Some(Backend::CryoMem));
        assert_eq!(cached[0].0, key);
        // Bit-identity, not approximate equality.
        assert_eq!(
            cached[0].1.read_latency.get().to_bits(),
            original.read_latency.get().to_bits()
        );
        assert_eq!(cached[0].1, original);

        let _ = std::fs::remove_file(&path);
    }

    /// A corrupt or foreign record is one skipped line, never fatal. So
    /// is a line past the 1 MiB line cap, mid-file or running to EOF
    /// with no newline, and the records around it still replay.
    #[test]
    fn corrupt_and_foreign_lines_are_skipped_not_fatal() {
        let explorer = Explorer::with_defaults();
        let config = MemoryConfig::sram_350k();
        let array = explorer.characterize(&config);
        let key = DesignPointKey::of_config(&config);

        let path = temp_path("corrupt");
        let good = render_record(1, &key, Backend::CryoMem, &array);
        let truncated = &good[..good.len() / 2];
        let wrong_schema = good.replacen("\"schema\":2", "\"schema\":99", 1);
        // A v1 record (no backend field) is foreign, not fatal.
        let v1_record = good.replacen("\"schema\":2", "\"schema\":1", 1).replacen(
            ",\"backend\":\"cryomem\"",
            "",
            1,
        );
        // A backend this build does not have is foreign too.
        let foreign_backend = good.replacen("\"backend\":\"cryomem\"", "\"backend\":\"nvsim\"", 1);
        // Non-power-of-two geometry must be rejected before the
        // Organization constructor can panic on it.
        let bad_org = good.replacen("\"org\":[", "\"org\":[3,", 1);
        // A record padded past the line cap would decode, but is never
        // read whole: it is one skipped line.
        let over_long = format!("{good}{}", " ".repeat(log::MAX_RECORD_BYTES));
        let contents = format!(
            "{good}\nnot json at all\n{truncated}\n{wrong_schema}\n{v1_record}\n{foreign_backend}\n\
             {bad_org}\n{over_long}\n"
        );
        // Bytes that are not UTF-8 are a corrupt line, not a read error.
        let contents = [contents.as_bytes(), b"\xff\n", good.as_bytes(), b"\n"].concat();
        std::fs::write(&path, contents).unwrap();

        let fresh = Explorer::with_defaults();
        let stats = replay_file(&path, &fresh).unwrap();
        assert_eq!(stats.replayed, 1);
        assert_eq!(stats.duplicates, 1); // the repeated good line
        assert_eq!(stats.skipped, 8);
        assert_eq!(fresh.cached_entries().len(), 1);

        // An over-long last line with no newline runs to EOF after the
        // good records: skipped, and the records before it still count.
        std::fs::write(&path, format!("{good}\n{over_long}")).unwrap();
        let fresh = Explorer::with_defaults();
        let stats = replay_file(&path, &fresh).unwrap();
        assert_eq!(
            stats,
            ReplayStats {
                replayed: 1,
                duplicates: 0,
                skipped: 1
            }
        );

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
                .expect("every cached key has a backend");
            registry.record(plan, &key, backend, &value).unwrap();
        }
    }

    fn record_keys(path: &Path) -> Vec<String> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(|line| {
                log::decode::<CharRecord>(line)
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
        let append_handle = registry.swap_file(File::open(&path).unwrap());
        let _ = explorer.characterize(&MemoryConfig::edram_77k());
        let _ = explorer.characterize(&MemoryConfig::sram_77k());
        assert!(registry.sync_from(&explorer, 5).is_err());
        assert_eq!(registry.len(), 1, "nothing new reached the disk");

        registry.swap_file(append_handle);
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
        let line = render_record(3, &key, Backend::CryoMem, &array);
        assert!(line.contains("\"retention\":null"));
        assert!(line.contains("\"backend\":\"cryomem\""));
        let record = log::decode::<CharRecord>(&line).expect("well-formed record");
        assert_eq!(record.value, array);
        assert_eq!(record.plan, 3);
        assert_eq!(record.backend, Backend::CryoMem);
    }
}
