//! Loader for real crime-report data.
//!
//! The paper's raw records are `<crime type, timestamp, longitude, latitude>`
//! rows; this module parses such CSV extracts (e.g. NYC OpenData /
//! Chicago Data Portal exports) and rasterises them onto the `R×T×C` grid
//! tensor the models consume — the exact preprocessing the paper describes
//! ("each crime report is mapped into a specific geographical region based
//! on its coordinates", daily resolution, even grid partitioning).

use crate::dataset::{CrimeDataset, DatasetConfig};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::Path;
use sthsl_chaos::{read_file_verified, retry, Io, RetryPolicy, Sleeper};
use sthsl_tensor::{Result, Tensor, TensorError};

/// One parsed crime report.
#[derive(Debug, Clone, PartialEq)]
pub struct CrimeRecord {
    /// Category label, e.g. "BURGLARY".
    pub category: String,
    /// Day index (days since the observation start; the caller decides the
    /// epoch — see [`parse_csv`]'s `day_of` callback).
    pub day: usize,
    /// Longitude in degrees.
    pub lon: f64,
    /// Latitude in degrees.
    pub lat: f64,
}

/// Geographic bounding box and grid resolution for rasterisation.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// Minimum latitude (south edge).
    pub lat_min: f64,
    /// Maximum latitude (north edge).
    pub lat_max: f64,
    /// Minimum longitude (west edge).
    pub lon_min: f64,
    /// Maximum longitude (east edge).
    pub lon_max: f64,
    /// Grid rows (latitude bands, I).
    pub rows: usize,
    /// Grid cols (longitude bands, J).
    pub cols: usize,
}

impl GridSpec {
    /// Map a coordinate into a region index, or `None` if outside the box.
    pub fn region_of(&self, lat: f64, lon: f64) -> Option<usize> {
        if !(self.lat_min..=self.lat_max).contains(&lat)
            || !(self.lon_min..=self.lon_max).contains(&lon)
        {
            return None;
        }
        let fy = (lat - self.lat_min) / (self.lat_max - self.lat_min);
        let fx = (lon - self.lon_min) / (self.lon_max - self.lon_min);
        // Clamp the 1.0 edge into the last cell.
        let y = ((fy * self.rows as f64) as usize).min(self.rows - 1);
        let x = ((fx * self.cols as f64) as usize).min(self.cols - 1);
        Some(y * self.cols + x)
    }
}

/// Summary of a rasterisation run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Records mapped into the tensor.
    pub accepted: usize,
    /// Records outside the bounding box.
    pub out_of_bounds: usize,
    /// Records whose category was not in the requested list.
    pub unknown_category: usize,
    /// Records outside the observation span.
    pub out_of_span: usize,
    /// CSV lines that failed to parse (lenient loading only; strict
    /// [`parse_csv`] errors out instead).
    pub malformed: usize,
}

/// Output of [`parse_csv_lenient`]: the parseable records plus a full
/// account of what was skipped — nothing is dropped silently.
#[derive(Debug, Clone, Default)]
pub struct ParseReport {
    /// Successfully parsed records.
    pub records: Vec<CrimeRecord>,
    /// Total number of malformed lines skipped.
    pub malformed_total: usize,
    /// Per-line diagnostics (1-based line numbers) for the first
    /// [`ParseReport::MAX_DIAGNOSTICS`] malformed lines.
    pub malformed: Vec<String>,
}

impl ParseReport {
    /// Diagnostics kept before truncating (the total is always exact).
    pub const MAX_DIAGNOSTICS: usize = 100;
}

/// Parse one CSV line. `Ok(None)` for blanks/comments; `Err` carries the
/// 1-based line number so every diagnostic points at the offending row.
fn parse_line(
    lineno_1based: usize,
    line: &str,
) -> std::result::Result<Option<CrimeRecord>, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
    if fields.len() != 4 {
        return Err(format!(
            "line {lineno_1based}: expected 4 fields (category,day,lon,lat), got {}",
            fields.len()
        ));
    }
    let day: usize =
        fields[1].parse().map_err(|_| format!("line {lineno_1based}: bad day '{}'", fields[1]))?;
    let lon: f64 = fields[2]
        .parse()
        .map_err(|_| format!("line {lineno_1based}: bad longitude '{}'", fields[2]))?;
    let lat: f64 = fields[3]
        .parse()
        .map_err(|_| format!("line {lineno_1based}: bad latitude '{}'", fields[3]))?;
    Ok(Some(CrimeRecord { category: fields[0].to_string(), day, lon, lat }))
}

/// Parse a headerless CSV of `category,day,lon,lat` rows, strictly.
///
/// `day` may be any non-negative integer the caller has pre-computed (days
/// since the span start); the first malformed row aborts parsing with an
/// error carrying its 1-based line number. For messy real-world extracts,
/// use [`parse_csv_lenient`].
pub fn parse_csv(reader: impl BufRead) -> Result<Vec<CrimeRecord>> {
    let mut out = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| TensorError::Invalid(format!("line {}: {e}", lineno + 1)))?;
        if let Some(rec) = parse_line(lineno + 1, &line).map_err(TensorError::Invalid)? {
            out.push(rec);
        }
    }
    Ok(out)
}

/// Parse a headerless CSV of `category,day,lon,lat` rows, leniently.
///
/// Malformed rows are skipped but **counted and reported**: the returned
/// [`ParseReport`] carries the exact number skipped plus per-line
/// diagnostics (with 1-based line numbers) for the first
/// [`ParseReport::MAX_DIAGNOSTICS`] of them. I/O errors still abort.
pub fn parse_csv_lenient(reader: impl BufRead) -> Result<ParseReport> {
    let mut report = ParseReport::default();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| TensorError::Invalid(format!("line {}: {e}", lineno + 1)))?;
        match parse_line(lineno + 1, &line) {
            Ok(Some(rec)) => report.records.push(rec),
            Ok(None) => {}
            Err(diag) => {
                report.malformed_total += 1;
                if report.malformed.len() < ParseReport::MAX_DIAGNOSTICS {
                    report.malformed.push(diag);
                }
            }
        }
    }
    Ok(report)
}

/// Rasterise records into an `R×T×C` tensor.
///
/// `categories` fixes the category order (and filters records); `days` is
/// the observation span length. Returns the tensor plus acceptance stats so
/// callers can sanity-check their bounding box.
pub fn rasterize(
    records: &[CrimeRecord],
    grid: &GridSpec,
    categories: &[&str],
    days: usize,
) -> Result<(Tensor, LoadStats)> {
    if grid.rows == 0 || grid.cols == 0 || days == 0 || categories.is_empty() {
        return Err(TensorError::Invalid("rasterize: empty grid, span or category list".into()));
    }
    let cat_index: BTreeMap<&str, usize> =
        categories.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    if cat_index.len() != categories.len() {
        return Err(TensorError::Invalid("rasterize: duplicate categories".into()));
    }
    let (r, c) = (grid.rows * grid.cols, categories.len());
    let mut data = vec![0.0f32; r * days * c];
    let mut stats = LoadStats::default();
    for rec in records {
        let Some(&ci) = cat_index.get(rec.category.as_str()) else {
            stats.unknown_category += 1;
            continue;
        };
        if rec.day >= days {
            stats.out_of_span += 1;
            continue;
        }
        let Some(region) = grid.region_of(rec.lat, rec.lon) else {
            stats.out_of_bounds += 1;
            continue;
        };
        data[(region * days + rec.day) * c + ci] += 1.0;
        stats.accepted += 1;
    }
    Ok((Tensor::from_vec(data, &[r, days, c])?, stats))
}

/// Convenience: parse + rasterise + wrap into a [`CrimeDataset`].
pub fn dataset_from_csv(
    reader: impl BufRead,
    grid: &GridSpec,
    categories: &[&str],
    days: usize,
    config: DatasetConfig,
) -> Result<(CrimeDataset, LoadStats)> {
    let records = parse_csv(reader)?;
    let (tensor, stats) = rasterize(&records, grid, categories, days)?;
    let data = CrimeDataset::new(
        tensor,
        grid.rows,
        grid.cols,
        categories.iter().map(std::string::ToString::to_string).collect(),
        config,
    )?;
    Ok((data, stats))
}

/// Like [`dataset_from_csv`] but tolerant of malformed rows: they are
/// counted into [`LoadStats::malformed`] and their diagnostics returned
/// alongside, instead of aborting the load.
pub fn dataset_from_csv_lenient(
    reader: impl BufRead,
    grid: &GridSpec,
    categories: &[&str],
    days: usize,
    config: DatasetConfig,
) -> Result<(CrimeDataset, LoadStats, Vec<String>)> {
    let report = parse_csv_lenient(reader)?;
    let (tensor, mut stats) = rasterize(&report.records, grid, categories, days)?;
    stats.malformed = report.malformed_total;
    let data = CrimeDataset::new(
        tensor,
        grid.rows,
        grid.cols,
        categories.iter().map(std::string::ToString::to_string).collect(),
        config,
    )?;
    Ok((data, stats, report.malformed))
}

/// Load a CSV extract from `path` through the injectable I/O seam, with
/// transient read faults retried under `policy` and — when `expected_fnv`
/// is given — the file's FNV-1a checksum verified before a single row is
/// parsed.
///
/// Checksum verification is what makes the data path safe under bit rot:
/// lenient CSV parsing would otherwise *absorb* a flipped digit as a valid,
/// silently different record. A transient (read-path) corruption heals by
/// re-reading; persistent corruption is a typed error naming the path —
/// never a silently different dataset.
#[allow(clippy::too_many_arguments)] // the full injectable-I/O loading contract
pub fn dataset_from_csv_path_io(
    io: &dyn Io,
    path: &Path,
    expected_fnv: Option<u64>,
    policy: RetryPolicy,
    sleeper: &dyn Sleeper,
    grid: &GridSpec,
    categories: &[&str],
    days: usize,
    config: DatasetConfig,
) -> Result<(CrimeDataset, LoadStats)> {
    let bytes = match expected_fnv {
        Some(sum) => read_file_verified(io, path, sum, policy, sleeper),
        None => retry(policy, sleeper, io.chaos_log(), &path.to_string_lossy(), || io.read(path)),
    }
    .map_err(|e| {
        let msg = e.to_string();
        let shown = path.display().to_string();
        if msg.contains(&shown) {
            TensorError::Invalid(msg)
        } else {
            TensorError::Invalid(format!("{shown}: {msg}"))
        }
    })?;
    dataset_from_csv(bytes.as_slice(), grid, categories, days, config)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nyc_ish_grid() -> GridSpec {
        GridSpec { lat_min: 40.5, lat_max: 40.9, lon_min: -74.3, lon_max: -73.7, rows: 4, cols: 4 }
    }

    #[test]
    fn region_mapping_corners_and_bounds() {
        let g = nyc_ish_grid();
        // South-west corner → region 0; north-east corner → last region.
        assert_eq!(g.region_of(40.5, -74.3), Some(0));
        assert_eq!(g.region_of(40.9, -73.7), Some(15));
        // Outside the box → None.
        assert_eq!(g.region_of(41.5, -74.0), None);
        assert_eq!(g.region_of(40.7, -75.0), None);
    }

    #[test]
    fn parse_csv_accepts_comments_and_blank_lines() {
        let csv = "# header comment\nBURGLARY,0,-74.0,40.7\n\nROBBERY,3,-73.9,40.8\n";
        let recs = parse_csv(csv.as_bytes()).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].category, "BURGLARY");
        assert_eq!(recs[1].day, 3);
    }

    #[test]
    fn parse_csv_reports_line_numbers_on_errors() {
        let bad = "BURGLARY,0,-74.0,40.7\nROBBERY,x,-73.9,40.8\n";
        let err = parse_csv(bad.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let short = "BURGLARY,0,-74.0\n";
        assert!(parse_csv(short.as_bytes()).is_err());
    }

    #[test]
    fn parse_csv_lenient_skips_and_reports_malformed_rows() {
        let csv = "# messy extract\n\
                   BURGLARY,0,-74.0,40.7\n\
                   ROBBERY,not-a-day,-73.9,40.8\n\
                   TOO,FEW\n\
                   ROBBERY,3,-73.9,40.8\n\
                   ASSAULT,4,east,40.6\n\
                   \n\
                   BURGLARY,5,-74.1,north\n";
        let report = parse_csv_lenient(csv.as_bytes()).unwrap();
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.records[0].category, "BURGLARY");
        assert_eq!(report.records[1].day, 3);
        assert_eq!(report.malformed_total, 4);
        assert_eq!(report.malformed.len(), 4);
        // Diagnostics carry 1-based line numbers pointing at the bad rows.
        assert!(report.malformed[0].contains("line 3"), "{:?}", report.malformed);
        assert!(report.malformed[1].contains("line 4"), "{:?}", report.malformed);
        assert!(report.malformed[2].contains("line 6"), "{:?}", report.malformed);
        assert!(report.malformed[3].contains("line 8"), "{:?}", report.malformed);
    }

    #[test]
    fn parse_csv_lenient_caps_diagnostics_but_counts_everything() {
        let mut csv = String::new();
        for _ in 0..ParseReport::MAX_DIAGNOSTICS + 25 {
            csv.push_str("oops\n");
        }
        csv.push_str("BURGLARY,0,-74.0,40.7\n");
        let report = parse_csv_lenient(csv.as_bytes()).unwrap();
        assert_eq!(report.records.len(), 1);
        assert_eq!(report.malformed_total, ParseReport::MAX_DIAGNOSTICS + 25);
        assert_eq!(report.malformed.len(), ParseReport::MAX_DIAGNOSTICS);
    }

    #[test]
    fn dataset_from_csv_lenient_counts_malformed_in_stats() {
        let mut csv = String::from("garbage line\n");
        for day in 0..120 {
            csv.push_str(&format!("BURGLARY,{day},-74.0,40.7\n"));
            csv.push_str(&format!("ROBBERY,{day},-73.9,40.8\n"));
        }
        csv.push_str("BURGLARY,bad-day,-74.0,40.7\n");
        let (data, stats, diags) = dataset_from_csv_lenient(
            csv.as_bytes(),
            &nyc_ish_grid(),
            &["BURGLARY", "ROBBERY"],
            120,
            DatasetConfig { window: 10, val_days: 7, train_fraction: 7.0 / 8.0 },
        )
        .unwrap();
        assert_eq!(stats.accepted, 240);
        assert_eq!(stats.malformed, 2);
        assert_eq!(diags.len(), 2);
        assert_eq!(data.num_days(), 120);
        // Strict loading of the same bytes refuses up front.
        assert!(dataset_from_csv(
            csv.as_bytes(),
            &nyc_ish_grid(),
            &["BURGLARY", "ROBBERY"],
            120,
            DatasetConfig { window: 10, val_days: 7, train_fraction: 7.0 / 8.0 },
        )
        .is_err());
    }

    #[test]
    fn rasterize_counts_and_stats() {
        let g = nyc_ish_grid();
        let recs = vec![
            CrimeRecord { category: "BURGLARY".into(), day: 0, lon: -74.0, lat: 40.7 },
            CrimeRecord { category: "BURGLARY".into(), day: 0, lon: -74.0, lat: 40.7 },
            CrimeRecord { category: "ROBBERY".into(), day: 1, lon: -73.9, lat: 40.6 },
            CrimeRecord { category: "ARSON".into(), day: 0, lon: -74.0, lat: 40.7 }, // filtered
            CrimeRecord { category: "BURGLARY".into(), day: 99, lon: -74.0, lat: 40.7 }, // late
            CrimeRecord { category: "BURGLARY".into(), day: 0, lon: 0.0, lat: 0.0 }, // abroad
        ];
        let (tensor, stats) = rasterize(&recs, &g, &["BURGLARY", "ROBBERY"], 10).unwrap();
        assert_eq!(tensor.shape(), &[16, 10, 2]);
        assert_eq!(
            stats,
            LoadStats {
                accepted: 3,
                out_of_bounds: 1,
                unknown_category: 1,
                out_of_span: 1,
                malformed: 0
            }
        );
        // Two burglaries landed in the same cell-day.
        let region = g.region_of(40.7, -74.0).unwrap();
        assert_eq!(tensor.at(&[region, 0, 0]), 2.0);
        assert_eq!(tensor.sum_all(), 3.0);
    }

    #[test]
    fn rasterize_rejects_duplicates_and_empties() {
        let g = nyc_ish_grid();
        assert!(rasterize(&[], &g, &["A", "A"], 5).is_err());
        assert!(rasterize(&[], &g, &[], 5).is_err());
        assert!(rasterize(&[], &g, &["A"], 0).is_err());
    }

    fn span_csv() -> String {
        let mut csv = String::new();
        for day in 0..120 {
            csv.push_str(&format!("BURGLARY,{day},-74.0,40.7\n"));
            csv.push_str(&format!("ROBBERY,{day},-73.9,40.8\n"));
        }
        csv
    }

    fn quick_cfg() -> DatasetConfig {
        DatasetConfig { window: 10, val_days: 7, train_fraction: 7.0 / 8.0 }
    }

    #[test]
    fn verified_path_load_heals_transient_corruption() {
        use sthsl_chaos::{
            fnv1a, FaultKind, FaultPlan, FaultRule, FaultyIo, OpClass, RealIo, VirtualSleeper,
        };
        let dir =
            std::env::temp_dir().join(format!("sthsl_loader_verified_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crimes.csv");
        let csv = span_csv();
        std::fs::write(&path, &csv).unwrap();
        let sum = fnv1a(csv.as_bytes());

        // One injected bit flip on the first read; the re-read verifies.
        let plan = FaultPlan::new(17)
            .rule(FaultRule::always(FaultKind::BitFlip, OpClass::Read).with_max_fires(1));
        let io = FaultyIo::new(RealIo, plan);
        let sleeper = VirtualSleeper::new();
        let (data, stats) = dataset_from_csv_path_io(
            &io,
            &path,
            Some(sum),
            sthsl_chaos::RetryPolicy::default_read(),
            &sleeper,
            &nyc_ish_grid(),
            &["BURGLARY", "ROBBERY"],
            120,
            quick_cfg(),
        )
        .unwrap();
        assert_eq!(stats.accepted, 240);
        assert_eq!(data.num_days(), 120);
        let log = io.chaos_log().unwrap();
        assert_eq!(log.fault_count(), 1);
        assert!(log.recovery_count() >= 1, "reread recovery must be recorded");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verified_path_load_rejects_persistent_corruption_with_typed_error() {
        use sthsl_chaos::{fnv1a, RealIo, VirtualSleeper};
        let dir = std::env::temp_dir().join(format!("sthsl_loader_corrupt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("crimes.csv");
        let mut csv = span_csv();
        let sum = fnv1a(csv.as_bytes());
        // Persistent on-disk corruption: a flipped digit that lenient
        // parsing would happily absorb as a different record.
        csv.replace_range(9..10, "7");
        std::fs::write(&path, &csv).unwrap();

        let sleeper = VirtualSleeper::new();
        let Err(err) = dataset_from_csv_path_io(
            &RealIo,
            &path,
            Some(sum),
            sthsl_chaos::RetryPolicy::default_read(),
            &sleeper,
            &nyc_ish_grid(),
            &["BURGLARY", "ROBBERY"],
            120,
            quick_cfg(),
        ) else {
            panic!("persistently corrupt csv must not load")
        };
        let msg = err.to_string();
        assert!(msg.contains("crimes.csv"), "path in error: {msg}");
        assert!(msg.contains("checksum mismatch"), "cause in error: {msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dataset_from_csv_end_to_end() {
        // Synthesise enough span for the windowing to accept it.
        let mut csv = String::from("# synthetic extract\n");
        for day in 0..120 {
            csv.push_str(&format!("BURGLARY,{day},-74.0,40.7\n"));
            if day % 2 == 0 {
                csv.push_str(&format!("ROBBERY,{day},-73.9,40.8\n"));
            }
        }
        let (data, stats) = dataset_from_csv(
            csv.as_bytes(),
            &nyc_ish_grid(),
            &["BURGLARY", "ROBBERY"],
            120,
            DatasetConfig { window: 10, val_days: 7, train_fraction: 7.0 / 8.0 },
        )
        .unwrap();
        assert_eq!(stats.accepted, 120 + 60);
        assert_eq!(data.num_regions(), 16);
        assert_eq!(data.num_days(), 120);
        // The pipeline is ready for any Predictor.
        let s = data.sample(50).unwrap();
        assert_eq!(s.input.shape(), &[16, 10, 2]);
    }
}
