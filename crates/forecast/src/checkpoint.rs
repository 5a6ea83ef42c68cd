//! Append-only sweep checkpoints.
//!
//! A checkpoint is a TSV journal: one header line binding the file to
//! a specific [`SweepConfig`](crate::sweep::SweepConfig) *and shard*,
//! then one line per finished cell, appended (and flushed) the moment
//! the cell completes. The format is designed to be *crash-consistent*
//! rather than transactional: a process killed mid-write leaves at
//! most one torn trailing line, which loading tolerates (the cell
//! simply reruns) and appending truncates before continuing. Anything
//! else malformed — a corrupt interior line, a header for a different
//! config, a grid shape or shard that disagrees with the plan, a
//! duplicated or off-shard cell — is a real error and refuses to
//! resume rather than silently mixing runs.
//!
//! The v2 header carries three facts:
//!
//! ```text
//! # hotspot-sweep-checkpoint v2 fingerprint=0123456789abcdef cells=288 shard=1/3
//! ```
//!
//! `fingerprint` is [`config_fingerprint`] (FNV-1a over the outcome-
//! determining config fields), `cells` is the number of plan cells
//! this shard covers (the grid-shape cross-check — a fingerprint
//! collision or hand-edited header cannot smuggle in a different
//! grid), and `shard` is the [`ShardSpec`] the journal belongs to
//! (`0/1` for unsharded runs).
//!
//! Floats are serialised with `{:?}` (Rust's shortest round-trip
//! rendering), so a resumed record is bit-identical to the one the
//! original run produced — the property the resume-equivalence test
//! in `tests/fault_tolerance.rs` pins down.

use crate::evaluate::EvalRecord;
use crate::models::ModelSpec;
use crate::sweep::{CellKey, CellOutcome, ShardSpec, SweepCell, SweepConfig, SweepPlan};
use hotspot_core::error::{CoreError, Result as CoreResult};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Mutex, PoisonError};

const MAGIC: &str = "# hotspot-sweep-checkpoint v2";

/// FNV-1a over the config fields that determine cell outcomes.
/// `n_threads` is deliberately excluded — a resume on a different
/// machine shape is still the same sweep — and so is sharding, which
/// is execution topology, not science: every shard of a sweep (and
/// its merge) carries the same fingerprint. `feature_cache` is
/// excluded for the same reason: the plane cache is byte-transparent,
/// so a cached run may resume an uncached checkpoint (and vice versa)
/// and still produce identical artifacts.
pub fn config_fingerprint(config: &SweepConfig) -> u64 {
    let identity = format!(
        "{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{}|{:?}|{:?}",
        config.models.iter().map(|m| m.name()).collect::<Vec<_>>(),
        config.ts,
        config.hs,
        config.ws,
        config.n_trees,
        config.train_days,
        config.random_repeats,
        config.seed,
        config.resilience,
        config.split,
    );
    let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
    for b in identity.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

pub(crate) fn escape_field(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\t', "\\t").replace('\n', "\\n").replace('\r', "\\r")
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            other => {
                out.push('\\');
                if let Some(o) = other {
                    out.push(o);
                }
            }
        }
    }
    out
}

/// The facts a v2 checkpoint header asserts about its journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// [`config_fingerprint`] of the sweep that wrote the journal.
    pub fingerprint: u64,
    /// Number of plan cells the journal's shard covers.
    pub cells: usize,
    /// Which shard the journal belongs to (`0/1` = unsharded).
    pub shard: ShardSpec,
}

impl CheckpointHeader {
    fn render(&self) -> String {
        format!(
            "{MAGIC} fingerprint={:016x} cells={} shard={}",
            self.fingerprint, self.cells, self.shard
        )
    }

    fn parse(line: &str) -> CoreResult<CheckpointHeader> {
        let bad = |why: &str| {
            CoreError::InvalidData(format!("checkpoint header {line:?}: {why}"))
        };
        let rest = line
            .strip_prefix(MAGIC)
            .ok_or_else(|| bad("not a v2 checkpoint (wrong magic — older formats do not resume)"))?;
        let mut fingerprint = None;
        let mut cells = None;
        let mut shard = None;
        for token in rest.split_whitespace() {
            match token.split_once('=') {
                Some(("fingerprint", v)) => {
                    fingerprint = Some(
                        u64::from_str_radix(v, 16).map_err(|_| bad("bad fingerprint field"))?,
                    )
                }
                Some(("cells", v)) => {
                    cells = Some(v.parse().map_err(|_| bad("bad cells field"))?)
                }
                Some(("shard", v)) => {
                    shard = Some(ShardSpec::parse(v).ok_or_else(|| bad("bad shard field"))?)
                }
                _ => return Err(bad("unknown header field")),
            }
        }
        Ok(CheckpointHeader {
            fingerprint: fingerprint.ok_or_else(|| bad("missing fingerprint"))?,
            cells: cells.ok_or_else(|| bad("missing cells"))?,
            shard: shard.ok_or_else(|| bad("missing shard"))?,
        })
    }
}

/// One cell recovered from a checkpoint file.
#[derive(Debug, Clone)]
pub struct CheckpointEntry {
    /// Model.
    pub model: ModelSpec,
    /// Evaluation day.
    pub t: usize,
    /// Horizon.
    pub h: usize,
    /// Window.
    pub w: usize,
    /// Recovered outcome.
    pub outcome: CellOutcome,
    /// Wall-clock of the original computation.
    pub elapsed_ms: u64,
    /// Attempts the original computation consumed.
    pub attempts: u32,
}

impl CheckpointEntry {
    /// This entry's grid coordinate.
    pub fn key(&self) -> CellKey {
        CellKey { model: self.model, t: self.t, h: self.h, w: self.w }
    }

    /// Convert into a [`SweepCell`] flagged as resumed.
    pub fn into_cell(self) -> SweepCell {
        SweepCell {
            model: self.model,
            t: self.t,
            h: self.h,
            w: self.w,
            outcome: self.outcome,
            elapsed_ms: self.elapsed_ms,
            attempts: self.attempts,
            resumed: true,
        }
    }
}

fn render_line(cell: &SweepCell) -> String {
    let mut cols = vec![
        cell.model.name().to_string(),
        cell.t.to_string(),
        cell.h.to_string(),
        cell.w.to_string(),
        cell.outcome.status().to_string(),
        cell.elapsed_ms.to_string(),
        cell.attempts.to_string(),
    ];
    match &cell.outcome {
        CellOutcome::Evaluated(r) => {
            cols.push(format!("{:?}", r.ap));
            cols.push(format!("{:?}", r.ap_random));
            cols.push(format!("{:?}", r.lift));
            cols.push(r.positives.to_string());
            cols.push(r.evaluated.to_string());
        }
        CellOutcome::Empty | CellOutcome::TimedOut { .. } => {}
        CellOutcome::Failed { error, .. } => cols.push(escape_field(error)),
    }
    cols.join("\t")
}

fn bad(line_no: usize, why: &str) -> CoreError {
    CoreError::InvalidData(format!("checkpoint line {line_no}: {why}"))
}

fn parse_line(line: &str, line_no: usize) -> CoreResult<CheckpointEntry> {
    let cols: Vec<&str> = line.split('\t').collect();
    if cols.len() < 7 {
        return Err(bad(line_no, "fewer than 7 columns"));
    }
    let model = ModelSpec::parse(cols[0])
        .ok_or_else(|| bad(line_no, &format!("unknown model {:?}", cols[0])))?;
    let usize_col = |i: usize, name: &str| -> CoreResult<usize> {
        cols[i].parse().map_err(|_| bad(line_no, &format!("bad {name} {:?}", cols[i])))
    };
    let f64_col = |i: usize, name: &str| -> CoreResult<f64> {
        cols[i].parse().map_err(|_| bad(line_no, &format!("bad {name} {:?}", cols[i])))
    };
    let t = usize_col(1, "t")?;
    let h = usize_col(2, "h")?;
    let w = usize_col(3, "w")?;
    let elapsed_ms = usize_col(5, "elapsed_ms")? as u64;
    let attempts = usize_col(6, "attempts")? as u32;
    let outcome = match cols[4] {
        "eval" => {
            if cols.len() != 12 {
                return Err(bad(line_no, "eval rows need 12 columns"));
            }
            CellOutcome::Evaluated(EvalRecord {
                ap: f64_col(7, "ap")?,
                ap_random: f64_col(8, "ap_random")?,
                lift: f64_col(9, "lift")?,
                positives: usize_col(10, "positives")?,
                evaluated: usize_col(11, "evaluated")?,
            })
        }
        "empty" => CellOutcome::Empty,
        "timeout" => CellOutcome::TimedOut { elapsed_ms, attempts },
        "failed" => {
            if cols.len() != 8 {
                return Err(bad(line_no, "failed rows need 8 columns"));
            }
            CellOutcome::Failed { error: unescape(cols[7]), elapsed_ms, attempts }
        }
        other => return Err(bad(line_no, &format!("unknown status {other:?}"))),
    };
    Ok(CheckpointEntry { model, t, h, w, outcome, elapsed_ms, attempts })
}

/// Load a checkpoint without a config to validate against: the header
/// and every complete entry, as written. The collector uses this to
/// gather shard journals before doing its own cross-shard validation.
///
/// Unlike [`load_checkpoint`], a **missing file is an error** here —
/// a merge cannot proceed without the shard.
pub fn load_checkpoint_raw(path: &Path) -> CoreResult<(CheckpointHeader, Vec<CheckpointEntry>)> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CoreError::InvalidData(format!("cannot read {}: {e}", path.display())))?;
    let complete = match text.rfind('\n') {
        Some(end) => &text[..end],
        None => return Err(CoreError::InvalidData("checkpoint has no complete header".into())),
    };
    let mut lines = complete.split('\n');
    let header = CheckpointHeader::parse(lines.next().unwrap_or(""))?;
    let mut entries = Vec::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        entries.push(parse_line(line, i + 2)?);
    }
    Ok((header, entries))
}

/// Load the cells journaled in `path` for one shard of `config`'s
/// plan.
///
/// A missing file is an empty checkpoint (fresh run). A torn final
/// line — no trailing newline, as a crash mid-append leaves — is
/// dropped, not an error; that cell simply reruns. Refused with a
/// [`CoreError::InvalidData`]: corrupt *complete* lines, a config-
/// fingerprint mismatch, a header whose cell count disagrees with the
/// plan's grid shape, a shard mismatch, and entries that are
/// duplicated or fall outside the shard's slice of the plan.
pub fn load_checkpoint_sharded(
    path: &Path,
    config: &SweepConfig,
    shard: ShardSpec,
) -> CoreResult<Vec<CheckpointEntry>> {
    shard.validate()?;
    if !path.exists() {
        return Ok(Vec::new());
    }
    let (header, entries) = load_checkpoint_raw(path)?;
    if header.fingerprint != config_fingerprint(config) {
        return Err(CoreError::InvalidData(format!(
            "checkpoint fingerprint mismatch: found {:016x}, expected {:016x} — \
             this checkpoint belongs to a different sweep configuration",
            header.fingerprint,
            config_fingerprint(config)
        )));
    }
    if header.shard != shard {
        return Err(CoreError::InvalidData(format!(
            "checkpoint belongs to shard {}, this run is shard {shard}",
            header.shard
        )));
    }
    let plan = SweepPlan::new(config);
    let owned: HashSet<CellKey> = plan.shard_cells(shard).into_iter().collect();
    if header.cells != owned.len() {
        return Err(CoreError::InvalidData(format!(
            "checkpoint grid shape mismatch: header declares {} cells for shard {shard} \
             but the plan assigns it {} — the fingerprint matches yet the grid does not, \
             so the checkpoint cannot be trusted for resume",
            header.cells,
            owned.len()
        )));
    }
    let mut seen: HashSet<CellKey> = HashSet::with_capacity(entries.len());
    for entry in &entries {
        let key = entry.key();
        if !owned.contains(&key) {
            return Err(CoreError::InvalidData(format!(
                "checkpoint entry {key} is outside shard {shard}'s slice of the plan"
            )));
        }
        if !seen.insert(key) {
            return Err(CoreError::InvalidData(format!(
                "checkpoint entry {key} appears twice — journal is corrupt"
            )));
        }
    }
    Ok(entries)
}

/// [`load_checkpoint_sharded`] for the unsharded whole.
pub fn load_checkpoint(path: &Path, config: &SweepConfig) -> CoreResult<Vec<CheckpointEntry>> {
    load_checkpoint_sharded(path, config, ShardSpec::FULL)
}

/// Appends finished cells to a checkpoint file, creating it (with its
/// v2 header) when absent. Safe to share across sweep worker threads;
/// every line is written and flushed atomically with respect to the
/// other workers.
pub struct CheckpointWriter {
    file: Mutex<File>,
}

impl CheckpointWriter {
    /// Open `path` for appending as `shard`'s journal. An existing
    /// file is first truncated back to its last complete line,
    /// discarding a torn tail from an earlier crash.
    pub fn open_sharded(
        path: &Path,
        config: &SweepConfig,
        shard: ShardSpec,
    ) -> CoreResult<Self> {
        shard.validate()?;
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)?;
        let mut existing = String::new();
        file.read_to_string(&mut existing)?;
        if existing.is_empty() {
            let header = CheckpointHeader {
                fingerprint: config_fingerprint(config),
                cells: SweepPlan::new(config).shard_cells(shard).len(),
                shard,
            };
            file.write_all(format!("{}\n", header.render()).as_bytes())?;
        } else {
            // Keep everything through the final newline; a torn tail
            // (crash mid-append) is overwritten by the next cell.
            let keep = existing.rfind('\n').map(|i| i + 1).unwrap_or(0) as u64;
            file.set_len(keep)?;
            file.seek(SeekFrom::Start(keep))?;
        }
        file.flush()?;
        Ok(CheckpointWriter { file: Mutex::new(file) })
    }

    /// [`CheckpointWriter::open_sharded`] for the unsharded whole.
    pub fn open(path: &Path, config: &SweepConfig) -> CoreResult<Self> {
        Self::open_sharded(path, config, ShardSpec::FULL)
    }

    /// Journal one finished cell.
    pub fn append(&self, cell: &SweepCell) -> CoreResult<()> {
        let line = format!("{}\n", render_line(cell));
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(line.as_bytes())?;
        file.flush()?;
        hotspot_obs::counter("sweep.checkpoint_appends").inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::ResiliencePolicy;

    fn config() -> SweepConfig {
        SweepConfig {
            models: vec![ModelSpec::Average, ModelSpec::RfF1],
            ts: vec![20, 24],
            hs: vec![1],
            ws: vec![3],
            n_trees: 8,
            train_days: 4,
            random_repeats: 10,
            seed: 3,
            n_threads: Some(2),
            resilience: ResiliencePolicy::default(),
            split: hotspot_trees::SplitStrategy::default(),
            feature_cache: crate::sweep::FeatureCacheConfig::default(),
        }
    }

    #[test]
    fn fingerprint_ignores_feature_cache_plumbing() {
        let base = config();
        let mut cached_off = config();
        cached_off.feature_cache = crate::sweep::FeatureCacheConfig::off();
        let mut tiny_budget = config();
        tiny_budget.feature_cache.budget_mb = 1;
        assert_eq!(config_fingerprint(&base), config_fingerprint(&cached_off));
        assert_eq!(config_fingerprint(&base), config_fingerprint(&tiny_budget));
        // Science fields still move it.
        let mut other_seed = config();
        other_seed.seed += 1;
        assert_ne!(config_fingerprint(&base), config_fingerprint(&other_seed));
    }

    fn cell(model: ModelSpec, t: usize, outcome: CellOutcome) -> SweepCell {
        SweepCell { model, t, h: 1, w: 3, outcome, elapsed_ms: 17, attempts: 2, resumed: false }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("hotspot-checkpoint-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn round_trips_every_outcome() {
        let path = tmp("round_trip.tsv");
        let _ = std::fs::remove_file(&path);
        let cfg = config();
        let outcomes = vec![
            CellOutcome::Evaluated(EvalRecord {
                ap: 0.1 + 0.2, // deliberately non-representable exactly
                ap_random: 0.3333333333333333,
                lift: f64::INFINITY.min(2.5e-300),
                positives: 3,
                evaluated: 16,
            }),
            CellOutcome::Empty,
            CellOutcome::Failed { error: "panic\twith\ttabs\nand newlines".into(), elapsed_ms: 17, attempts: 2 },
            CellOutcome::TimedOut { elapsed_ms: 17, attempts: 2 },
        ];
        // One distinct plan cell per outcome (the loader refuses
        // duplicated coordinates).
        let coords =
            [(ModelSpec::Average, 20), (ModelSpec::Average, 24), (ModelSpec::RfF1, 20), (ModelSpec::RfF1, 24)];
        let writer = CheckpointWriter::open(&path, &cfg).unwrap();
        for (o, (m, t)) in outcomes.iter().zip(coords) {
            writer.append(&cell(m, t, o.clone())).unwrap();
        }
        drop(writer);
        let loaded = load_checkpoint(&path, &cfg).unwrap();
        assert_eq!(loaded.len(), outcomes.len());
        for (entry, expected) in loaded.iter().zip(&outcomes) {
            assert_eq!(&entry.outcome, expected);
            assert_eq!(entry.elapsed_ms, 17);
            assert_eq!(entry.attempts, 2);
            assert!(entry.clone().into_cell().resumed);
        }
    }

    #[test]
    fn missing_file_is_empty_checkpoint() {
        let path = tmp("never_created.tsv");
        let _ = std::fs::remove_file(&path);
        assert!(load_checkpoint(&path, &config()).unwrap().is_empty());
        // But the raw (collector) loader insists on the file existing.
        assert!(load_checkpoint_raw(&path).is_err());
    }

    #[test]
    fn torn_final_line_is_dropped_on_load_and_truncated_on_append() {
        let path = tmp("torn.tsv");
        let _ = std::fs::remove_file(&path);
        let cfg = config();
        let writer = CheckpointWriter::open(&path, &cfg).unwrap();
        writer.append(&cell(ModelSpec::Average, 20, CellOutcome::Empty)).unwrap();
        drop(writer);
        // Simulate a crash mid-append: a partial record, no newline.
        let mut raw = std::fs::read_to_string(&path).unwrap();
        raw.push_str("RF-F1\t24\t1\t3\tev");
        std::fs::write(&path, &raw).unwrap();

        let loaded = load_checkpoint(&path, &cfg).unwrap();
        assert_eq!(loaded.len(), 1, "torn tail must be ignored");

        // Reopening for append truncates the tail so new lines parse.
        let writer = CheckpointWriter::open(&path, &cfg).unwrap();
        writer.append(&cell(ModelSpec::Average, 24, CellOutcome::Empty)).unwrap();
        drop(writer);
        assert_eq!(load_checkpoint(&path, &cfg).unwrap().len(), 2);
    }

    #[test]
    fn corrupt_interior_line_is_an_error() {
        let path = tmp("corrupt.tsv");
        let _ = std::fs::remove_file(&path);
        let cfg = config();
        let writer = CheckpointWriter::open(&path, &cfg).unwrap();
        writer.append(&cell(ModelSpec::Average, 20, CellOutcome::Empty)).unwrap();
        drop(writer);
        let mut raw = std::fs::read_to_string(&path).unwrap();
        raw.push_str("not\ta\tvalid\trecord\n");
        raw.push_str("Average\t24\t1\t3\tempty\t0\t1\n");
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(load_checkpoint(&path, &cfg), Err(CoreError::InvalidData(_))));
    }

    #[test]
    fn different_config_refuses_to_resume() {
        let path = tmp("fingerprint.tsv");
        let _ = std::fs::remove_file(&path);
        let cfg = config();
        drop(CheckpointWriter::open(&path, &cfg).unwrap());
        let mut other = config();
        other.seed = 99;
        let err = load_checkpoint(&path, &other).unwrap_err();
        assert!(matches!(err, CoreError::InvalidData(_)), "{err:?}");
        // Same config, new writer: still fine.
        assert!(load_checkpoint(&path, &cfg).unwrap().is_empty());
    }

    #[test]
    fn grid_shape_mismatch_refuses_to_resume_even_with_matching_fingerprint() {
        let path = tmp("grid_shape.tsv");
        let _ = std::fs::remove_file(&path);
        let cfg = config();
        drop(CheckpointWriter::open(&path, &cfg).unwrap());
        // Hand-edit the header's cell count: fingerprint still
        // matches, but the declared grid shape no longer does.
        let raw = std::fs::read_to_string(&path).unwrap();
        let edited = raw.replace("cells=4", "cells=5");
        assert_ne!(raw, edited, "test premise: config has 4 cells");
        std::fs::write(&path, &edited).unwrap();
        let err = load_checkpoint(&path, &cfg).unwrap_err();
        assert!(err.to_string().contains("grid shape mismatch"), "{err}");
    }

    #[test]
    fn shard_journals_are_bound_to_their_shard() {
        let path = tmp("sharded.tsv");
        let _ = std::fs::remove_file(&path);
        let cfg = config();
        let shard0 = ShardSpec { index: 0, count: 2 };
        let shard1 = ShardSpec { index: 1, count: 2 };
        let plan = SweepPlan::new(&cfg);
        let mine = plan.shard_cells(shard0);
        let theirs = plan.shard_cells(shard1);
        assert!(!mine.is_empty() && !theirs.is_empty(), "partition split 4 cells unevenly");

        let writer = CheckpointWriter::open_sharded(&path, &cfg, shard0).unwrap();
        writer.append(&cell(mine[0].model, mine[0].t, CellOutcome::Empty)).unwrap();
        drop(writer);
        assert_eq!(load_checkpoint_sharded(&path, &cfg, shard0).unwrap().len(), 1);
        // Loading as the wrong shard refuses.
        let err = load_checkpoint_sharded(&path, &cfg, shard1).unwrap_err();
        assert!(err.to_string().contains("belongs to shard 0/2"), "{err}");

        // An entry from the other shard's slice refuses.
        let writer = CheckpointWriter::open_sharded(&path, &cfg, shard0).unwrap();
        writer.append(&cell(theirs[0].model, theirs[0].t, CellOutcome::Empty)).unwrap();
        drop(writer);
        let err = load_checkpoint_sharded(&path, &cfg, shard0).unwrap_err();
        assert!(err.to_string().contains("outside shard"), "{err}");
    }

    #[test]
    fn duplicate_entries_refuse_to_resume() {
        let path = tmp("duplicates.tsv");
        let _ = std::fs::remove_file(&path);
        let cfg = config();
        let writer = CheckpointWriter::open(&path, &cfg).unwrap();
        writer.append(&cell(ModelSpec::Average, 20, CellOutcome::Empty)).unwrap();
        writer.append(&cell(ModelSpec::Average, 20, CellOutcome::Empty)).unwrap();
        drop(writer);
        let err = load_checkpoint(&path, &cfg).unwrap_err();
        assert!(err.to_string().contains("appears twice"), "{err}");
    }

    #[test]
    fn raw_loader_reports_header_facts() {
        let path = tmp("raw.tsv");
        let _ = std::fs::remove_file(&path);
        let cfg = config();
        let shard = ShardSpec { index: 1, count: 3 };
        drop(CheckpointWriter::open_sharded(&path, &cfg, shard).unwrap());
        let (header, entries) = load_checkpoint_raw(&path).unwrap();
        assert_eq!(header.fingerprint, config_fingerprint(&cfg));
        assert_eq!(header.shard, shard);
        assert_eq!(header.cells, SweepPlan::new(&cfg).shard_cells(shard).len());
        assert!(entries.is_empty());
    }

    #[test]
    fn thread_count_does_not_change_fingerprint() {
        let a = config();
        let mut b = config();
        b.n_threads = None;
        assert_eq!(config_fingerprint(&a), config_fingerprint(&b));
        let mut c = config();
        c.seed = 4;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&c));
        // The split engine changes cell outcomes, so it must bind.
        let mut d = config();
        d.split = hotspot_trees::SplitStrategy::Exact;
        assert_ne!(config_fingerprint(&a), config_fingerprint(&d));
    }

    #[test]
    fn escape_round_trips() {
        for s in ["plain", "tab\tnl\ncr\rback\\slash", "\\t literal", ""] {
            assert_eq!(unescape(&escape_field(s)), s);
        }
    }
}
