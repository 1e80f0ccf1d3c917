//! The persistent geometry warm-start store: the append-only record log
//! of solved organization geometries, replayable at startup so a fresh
//! process answers sweeps without re-running a single geometry solve.
//!
//! One record per line, one line per geometry key. A record holds the
//! full temperature-invariant candidate list of one
//! [`OrgGeometry`] — every feasible `(organization, geometry)` pair, in
//! canonical candidate order, floats stored as the 16-hex-digit
//! [`f64::to_bits`] pattern — so a restored geometry is *bit-identical*
//! to the one originally solved and every downstream characterization
//! reproduces the cold-path bytes exactly.
//!
//! Unlike the run registry (which persists *results* keyed by an
//! execution plan), geometry records are keyed by the model code
//! itself: each line carries the [`geometry_code_epoch`] fingerprint of
//! the build that wrote it. A record written by older model code — a
//! changed feasibility filter, device model, or candidate ordering —
//! hashes to a different epoch and is skipped wholesale rather than
//! replayed as stale physics. Like a corrupt or truncated line, it is
//! counted in [`ReplayStats`], never fatal.

use std::collections::{BTreeMap, HashMap};
use std::io;

use coldtall_array::{geometry_code_epoch, Geometry, OrgGeometry, Organization};
use coldtall_core::{DesignPointKey, Explorer, MemoryConfig};
use coldtall_obs::json::{push_escaped, Value};

use crate::log::{f64_bits, hex_u64, subarray_dim, Record, RecordLog, ReplayStats};

/// The geometry-record schema this build writes and replays. Bump when
/// the field set changes; replay skips records from other versions.
pub const GEOM_SCHEMA_VERSION: u32 = 1;

/// An append-only on-disk log of solved organization geometries.
///
/// `GeometryStore::open(path)` creates the file if absent and reads
/// nothing; `warm_into` reads it once, restoring geometries and filling
/// the dedup set with its current-epoch records together, so restarts
/// append only new geometries. An append, sync or `len` before any
/// warm-start scans the file into the set instead. `path`, `len` and
/// `is_empty` report on it. All methods take `&self`, exactly like the
/// run registry's.
pub type GeometryStore = RecordLog<GeomRecord>;

impl GeometryStore {
    /// Appends one solved geometry if its key is not already on disk
    /// under the current epoch, handing the whole line to the OS before
    /// returning so a crash after `record` never loses it. Returns
    /// whether a record was written.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error from the append.
    pub fn record(&self, key: &DesignPointKey, geometry: &OrgGeometry) -> io::Result<bool> {
        self.append_new(geometry_code_epoch(), key.canonical(), || {
            render_record(key, geometry)
        })
    }

    /// Appends every geometry the explorer's geometry cache holds that
    /// is not yet on disk, in canonical key order, and returns how many
    /// new records landed. Called after each completed sweep or
    /// request; only the geometries published since the previous sync
    /// are visited.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error from an append. The sync position
    /// then rewinds to a full walk, so the next sync offers every
    /// geometry that is still not on disk again.
    pub fn sync_from(&self, explorer: &Explorer) -> io::Result<u64> {
        self.sync(
            geometry_code_epoch(),
            |cursor, keep| explorer.geometry_cache().collect_since(cursor, keep),
            |key, geometry| render_record(key, geometry),
        )
    }

    /// Replays every current-epoch record matching one of `configs`'
    /// geometry keys into the explorer's geometry cache; `replayed`
    /// counts the geometries restored.
    ///
    /// The records are keyed by canonical geometry key
    /// ([`DesignPointKey::geometry_of`]); only keys reachable from
    /// `configs` are rebuilt, because reconstructing an [`OrgGeometry`]
    /// needs the base spec the key canonicalizes. Each matched key is
    /// imported once ([`OrgGeometry::from_parts`] — no feasibility
    /// enumeration, no geometry derivation, no solve counted), so a
    /// subsequent sweep over `configs` dispatches entirely from the
    /// warmed cache. Each call re-reads the file; the first one also
    /// fills the dedup set, unless an append already scanned it.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file exists but cannot
    /// be read. A missing file replays zero records successfully.
    pub fn warm_into(
        &self,
        explorer: &Explorer,
        configs: &[MemoryConfig],
    ) -> io::Result<ReplayStats> {
        let mut stored = HashMap::new();
        let read = self.replay(|record| {
            stored.insert(record.key, record.candidates);
        })?;
        let mut restored = 0;
        for config in configs {
            let key = DesignPointKey::geometry_of(config);
            // `remove` makes each key restore exactly once even when many
            // configs (a temperature stripe) share one geometry.
            let Some(candidates) = stored.remove(key.canonical()) else {
                continue;
            };
            let geometry =
                OrgGeometry::from_parts(&config.to_base_spec(explorer.node()), candidates);
            explorer.geometry_cache().import(&key, geometry);
            restored += 1;
        }
        Ok(ReplayStats {
            replayed: restored,
            ..read
        })
    }
}

/// One decoded geometry record: a canonical geometry key
/// (`geom|tech|tentpole|dN`) and its solved candidate list.
pub struct GeomRecord {
    key: String,
    candidates: Vec<(Organization, Geometry)>,
}

/// Renders one record line (no trailing newline). Each candidate is a
/// 15-element array: `[rows, cols, subarrays_total, subarrays_per_die]`
/// as integers, then the 11 `f64` geometry fields in struct order as
/// exact bit patterns in hex.
fn render_record(key: &DesignPointKey, geometry: &OrgGeometry) -> String {
    use std::fmt::Write as _;
    let candidates = geometry.candidates();
    let mut out = String::with_capacity(96 + candidates.len() * 256);
    let _ = write!(
        out,
        "{{\"schema\":{GEOM_SCHEMA_VERSION},\"kind\":\"geom\",\"epoch\":\"{:016x}\",\"key\":\"",
        geometry_code_epoch()
    );
    push_escaped(&mut out, key.canonical());
    out.push_str("\",\"candidates\":[");
    for (i, (org, geom)) in candidates.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "[{},{},{},{}",
            org.rows(),
            org.cols(),
            geom.subarrays_total,
            geom.subarrays_per_die
        );
        for v in geometry_floats(geom) {
            let _ = write!(out, ",\"{:016x}\"", v.to_bits());
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// The 11 `f64` fields of [`Geometry`], in declaration order — the
/// wire order of a candidate's hex-bits tail.
fn geometry_floats(g: &Geometry) -> [f64; 11] {
    [
        g.cell_width,
        g.cell_height,
        g.cell_block_area,
        g.strips_area,
        g.subarray_area,
        g.per_die_content,
        g.floor_area,
        g.tsv_area,
        g.footprint,
        g.total_silicon,
        g.periph_area,
    ]
}

impl Record for GeomRecord {
    const KIND: &'static str = "geom";
    const SCHEMA: u32 = GEOM_SCHEMA_VERSION;

    fn id(&self) -> (u64, &str) {
        (geometry_code_epoch(), &self.key)
    }

    /// Rejects a *wrong epoch*, missing fields, bad hex and out-of-range
    /// geometry.
    fn decode(fields: &BTreeMap<String, Value>) -> Option<Self> {
        if hex_u64(fields.get("epoch")?)? != geometry_code_epoch() {
            return None;
        }
        let key = match fields.get("key") {
            Some(Value::String(s)) if !s.is_empty() => s.clone(),
            _ => return None,
        };
        let raw = match fields.get("candidates") {
            Some(Value::Array(items)) if !items.is_empty() => items,
            _ => return None,
        };
        let mut candidates = Vec::with_capacity(raw.len());
        for item in raw {
            let Value::Array(parts) = item else {
                return None;
            };
            if parts.len() != 15 {
                return None;
            }
            let rows = subarray_dim(&parts[0])?;
            let cols = subarray_dim(&parts[1])?;
            let subarrays_total = exact_u64(&parts[2])?;
            let subarrays_per_die = exact_u64(&parts[3])?;
            let mut f = [0.0f64; 11];
            for (slot, v) in f.iter_mut().zip(&parts[4..]) {
                *slot = f64_bits(v)?;
            }
            candidates.push((
                Organization::new(rows, cols),
                Geometry {
                    cell_width: f[0],
                    cell_height: f[1],
                    cell_block_area: f[2],
                    strips_area: f[3],
                    subarray_area: f[4],
                    subarrays_total,
                    subarrays_per_die,
                    per_die_content: f[5],
                    floor_area: f[6],
                    tsv_area: f[7],
                    footprint: f[8],
                    total_silicon: f[9],
                    periph_area: f[10],
                },
            ));
        }
        Some(Self { key, candidates })
    }
}

/// Validates a stored subarray count: a non-negative integer small
/// enough to round-trip through the parser's `f64` exactly.
fn exact_u64(value: &Value) -> Option<u64> {
    let n = value.as_f64()?;
    let exact = 2f64.powi(53);
    if !(n.is_finite() && n.fract() == 0.0 && (0.0..=exact).contains(&n)) {
        return None;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Some(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log;
    use coldtall_tech::ProcessNode;
    use coldtall_units::Kelvin;
    use std::fs::File;
    use std::path::{Path, PathBuf};

    fn temp_path(tag: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "coldtall-geomstore-{tag}-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        path
    }

    fn solved(config: &MemoryConfig) -> (DesignPointKey, OrgGeometry) {
        let node = ProcessNode::ptm_22nm_hp();
        (
            DesignPointKey::geometry_of(config),
            OrgGeometry::solve(&config.to_base_spec(&node)),
        )
    }

    /// An explorer on a private metrics registry, so `geometry.solves`
    /// assertions cannot be perturbed by other tests feeding the
    /// process-global registry.
    fn private_explorer() -> Explorer {
        Explorer::with_registry(
            ProcessNode::ptm_22nm_hp(),
            coldtall_array::Objective::EnergyDelayProduct,
            &coldtall_obs::Registry::new(),
        )
    }

    #[test]
    fn records_round_trip_bit_identically() {
        let config = MemoryConfig::edram_77k();
        let (key, geometry) = solved(&config);
        let line = render_record(&key, &geometry);
        let record = log::decode::<GeomRecord>(&line).expect("well-formed record");
        assert_eq!(record.key, key.canonical());
        assert_eq!(record.candidates, geometry.candidates());
    }

    #[test]
    fn warm_start_restores_without_a_single_solve() {
        let config = MemoryConfig::edram_77k();
        let (key, geometry) = solved(&config);
        let path = temp_path("warm");
        let store = GeometryStore::open(&path).unwrap();
        assert!(store.record(&key, &geometry).unwrap());
        // Same key again is a dedup no-op.
        assert!(!store.record(&key, &geometry).unwrap());
        assert_eq!(store.len(), 1);

        let fresh = private_explorer();
        assert_eq!(fresh.geometry_cache().solves(), 0);
        // A temperature stripe shares one geometry: one restore.
        let configs = [
            config.clone(),
            config.clone().at_temperature(Kelvin::new(300.0)),
        ];
        let stats = store.warm_into(&fresh, &configs).unwrap();
        assert_eq!(
            stats,
            ReplayStats {
                replayed: 1,
                duplicates: 0,
                skipped: 0
            }
        );

        // The warmed sweep must produce the cold path's bytes while
        // counting zero geometry solves.
        let cold = private_explorer();
        let warm_rows = fresh.try_sweep_configs(&configs).unwrap();
        let cold_rows = cold.try_sweep_configs(&configs).unwrap();
        assert_eq!(warm_rows, cold_rows);
        assert_eq!(
            fresh.geometry_cache().solves(),
            0,
            "warm start must skip the solve"
        );
        assert!(
            cold.geometry_cache().solves() > 0,
            "the cold side really solves"
        );

        let _ = std::fs::remove_file(&path);
    }

    /// A store written by one process restores the full study set into
    /// a fresh explorer, whose sweep is byte-identical and solves no
    /// geometry.
    #[test]
    fn full_study_replays_byte_identically_with_zero_solves() {
        let path = temp_path("study");
        let configs = MemoryConfig::study_set();
        let seeder = private_explorer();
        let seeded_rows = seeder.try_sweep_configs(&configs).unwrap();
        let distinct = seeder.geometry_cache().solves();
        assert!(distinct > 0);
        {
            let store = GeometryStore::open(&path).unwrap();
            assert_eq!(store.sync_from(&seeder).unwrap(), distinct);
            // A second sync appends nothing.
            assert_eq!(store.sync_from(&seeder).unwrap(), 0);
        }

        // A second process opens the same file: `len` scans the dedup
        // set, and warm-start replays every geometry.
        let store = GeometryStore::open(&path).unwrap();
        assert_eq!(store.len() as u64, distinct);
        let fresh = private_explorer();
        let stats = store.warm_into(&fresh, &configs).unwrap();
        assert_eq!(stats.replayed, distinct);
        assert_eq!(stats.skipped, 0);
        let rows = fresh.try_sweep_configs(&configs).unwrap();
        assert_eq!(
            rows, seeded_rows,
            "warmed sweep diverged from the seeding sweep"
        );
        assert_eq!(fresh.geometry_cache().solves(), 0);

        let _ = std::fs::remove_file(&path);
    }

    /// A corrupt, truncated or stale-epoch line is skipped, never
    /// trusted and never fatal. So is a line past the 1 MiB line cap,
    /// mid-file or running to EOF, and the records around it replay.
    #[test]
    fn corrupt_truncated_and_stale_epoch_lines_are_skipped_not_fatal() {
        let config = MemoryConfig::sram_350k();
        let (key, geometry) = solved(&config);
        let good = render_record(&key, &geometry);
        let truncated = &good[..good.len() / 2];
        let wrong_schema = good.replacen("\"schema\":1", "\"schema\":99", 1);
        // Flip one epoch nibble: a record from different model code.
        let epoch = format!("{:016x}", geometry_code_epoch());
        let stale = format!("{:016x}", geometry_code_epoch() ^ 1);
        let wrong_epoch = good.replacen(epoch.as_str(), stale.as_str(), 1);
        // Non-power-of-two subarray geometry must be rejected before
        // the Organization constructor can panic on it.
        let bad_org = good.replacen("\"candidates\":[[", "\"candidates\":[[3,", 1);
        // A record padded past the line cap would decode, but is never
        // read whole: it is one skipped line.
        let over_long = format!("{good}{}", " ".repeat(log::MAX_RECORD_BYTES));
        let contents = format!(
            "{good}\nnot json at all\n{truncated}\n{wrong_schema}\n{wrong_epoch}\n{bad_org}\n\
             {over_long}\n"
        );
        // Bytes that are not UTF-8 are a corrupt line, not a read error.
        let contents = [contents.as_bytes(), b"\xff\n", good.as_bytes(), b"\n"].concat();
        let path = temp_path("corrupt");
        std::fs::write(&path, contents).unwrap();

        // The warm-start's read fills the dedup set and ignores the
        // junk too: the good key is already on disk, so re-recording it
        // below is a no-op.
        let store = GeometryStore::open(&path).unwrap();
        let fresh = private_explorer();
        let stats = store.warm_into(&fresh, &[config]).unwrap();
        assert_eq!(stats.replayed, 1);
        assert_eq!(stats.duplicates, 1); // the repeated good line
        assert_eq!(stats.skipped, 7);
        assert_eq!(fresh.geometry_cache().solves(), 0);
        assert_eq!(store.len(), 1);
        assert!(!store.record(&key, &geometry).unwrap());

        let _ = std::fs::remove_file(&path);
    }

    fn record_keys(path: &Path) -> Vec<String> {
        std::fs::read_to_string(path)
            .unwrap()
            .lines()
            .map(|line| {
                log::decode::<GeomRecord>(line)
                    .expect("well-formed line")
                    .key
            })
            .collect()
    }

    #[test]
    fn each_sync_appends_exactly_the_new_keys_like_a_full_walk() {
        let (path, reference_path) = (temp_path("incremental"), temp_path("full-walk"));
        let store = GeometryStore::open(&path).unwrap();
        let reference = GeometryStore::open(&reference_path).unwrap();
        let explorer = private_explorer();
        let study = MemoryConfig::study_set();
        let steps = [
            &study[..4],
            &study[4..12],
            &study[4..12],
            &study[12..],
            &study[..],
        ];
        let mut on_disk: Vec<String> = Vec::new();
        for step in steps {
            explorer.try_sweep_configs(step).unwrap();
            let mut expected: Vec<String> = explorer
                .geometry_cache()
                .snapshot()
                .into_iter()
                .map(|(key, _)| key.canonical().to_string())
                .filter(|key| !on_disk.contains(key))
                .collect();
            expected.sort_unstable();
            assert_eq!(store.sync_from(&explorer).unwrap() as usize, expected.len());
            assert_eq!(record_keys(&path)[on_disk.len()..], expected[..]);
            on_disk.extend(expected);
            assert_eq!(
                store.sync_from(&explorer).unwrap(),
                0,
                "an idle sync adds nothing"
            );
            // The pre-cursor sync: every cached geometry, deduped.
            for (key, geometry) in explorer.geometry_cache().snapshot() {
                reference.record(&key, &geometry).unwrap();
            }
        }
        assert_eq!(on_disk.len(), explorer.geometry_cache().len());
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(&reference_path).unwrap(),
            "incremental sync must write the full walk's bytes"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&reference_path);
    }

    #[test]
    fn a_failed_append_is_retried_by_the_next_sync() {
        let path = temp_path("retry");
        let store = GeometryStore::open(&path).unwrap();
        let explorer = private_explorer();
        let study = MemoryConfig::study_set();
        explorer.try_sweep_configs(&study[..1]).unwrap();
        assert_eq!(store.sync_from(&explorer).unwrap(), 1);

        // A read-only handle in place of the append handle: every
        // append fails.
        let append_handle = store.swap_file(File::open(&path).unwrap());
        explorer.try_sweep_configs(&study).unwrap();
        let total = explorer.geometry_cache().len();
        assert!(total > 1);
        assert!(store.sync_from(&explorer).is_err());
        assert_eq!(store.len(), 1, "nothing new reached the disk");

        store.swap_file(append_handle);
        assert_eq!(
            store.sync_from(&explorer).unwrap() as usize,
            total - 1,
            "the next sync appends what the failed one could not"
        );
        assert_eq!(store.sync_from(&explorer).unwrap(), 0);
        let stats = store.warm_into(&private_explorer(), &study).unwrap();
        assert_eq!(
            (stats.replayed as usize, stats.duplicates, stats.skipped),
            (total, 0, 0)
        );

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn missing_file_warms_empty() {
        let path = temp_path("missing");
        let store = GeometryStore::open(&path).unwrap();
        let stats = store
            .warm_into(&private_explorer(), &MemoryConfig::study_set())
            .unwrap();
        assert_eq!(stats, ReplayStats::default());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unmatched_keys_stay_on_disk_but_do_not_restore() {
        let edram = MemoryConfig::edram_77k();
        let (key, geometry) = solved(&edram);
        let path = temp_path("unmatched");
        let store = GeometryStore::open(&path).unwrap();
        assert!(store.record(&key, &geometry).unwrap());
        // Warming with a config set that never touches the stored
        // geometry restores nothing — and is not an error.
        let fresh = private_explorer();
        let stats = store
            .warm_into(&fresh, &[MemoryConfig::sram_350k()])
            .unwrap();
        assert_eq!(stats.replayed, 0);
        assert_eq!(stats.skipped, 0);
        let _ = std::fs::remove_file(&path);
    }
}
