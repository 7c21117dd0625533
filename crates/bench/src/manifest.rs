//! Timing manifests for the experiment binaries.
//!
//! Every `exp_*` binary answers "where did the wall clock go?" by writing a
//! JSONL trace next to its CSVs: a [`TraceEvent::Manifest`] header (what
//! ran, seed, arguments), one [`TraceEvent::Span`] per completed section,
//! and a closing `total` span. The paper's efficiency study (Table V,
//! Fig. 8) asks exactly this question of the reference implementation.

use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use sthsl_obs::{Clock, RealIo, TraceEmitter, TraceEvent, WallClock};

use crate::scale::ExpArgs;

/// Incremental section-timing writer for one experiment run.
pub struct TimingManifest {
    run_start: u64,
    section_start: u64,
    clock: Rc<dyn Clock>,
    emitter: TraceEmitter,
    path: PathBuf,
}

impl TimingManifest {
    /// Start a manifest at `results/<name>_timing.jsonl`, emitting the run
    /// header immediately so even a crashed run leaves evidence of intent.
    pub fn start(name: &str, seed: u64, args: &[(String, String)]) -> io::Result<Self> {
        Self::start_in(Path::new("results"), name, seed, args)
    }

    /// [`TimingManifest::start`] into an explicit directory.
    pub fn start_in(
        dir: &Path,
        name: &str,
        seed: u64,
        args: &[(String, String)],
    ) -> io::Result<Self> {
        let clock: Rc<dyn Clock> = Rc::new(WallClock::new());
        let path = dir.join(format!("{name}_timing.jsonl"));
        let emitter = TraceEmitter::to_file(&RealIo, &path, Rc::clone(&clock))?;
        emitter.emit(&TraceEvent::Manifest { run: name.to_string(), seed, args: args.to_vec() });
        let now = clock.now_ns();
        Ok(TimingManifest { run_start: now, section_start: now, clock, emitter, path })
    }

    /// [`TimingManifest::start`] with the standard `--scale`/`--city`/`--seed`
    /// arguments recorded.
    pub fn for_args(name: &str, args: &ExpArgs) -> io::Result<Self> {
        let cities = args.cities.iter().map(|c| c.name().to_string()).collect::<Vec<_>>().join("+");
        let kv = vec![
            ("scale".to_string(), format!("{:?}", args.scale)),
            ("cities".to_string(), cities),
        ];
        Self::start(name, args.seed, &kv)
    }

    /// Close the section that began at the previous call (or at start) and
    /// record it as a span named `label`.
    pub fn section(&mut self, label: &str) {
        let now = self.clock.now_ns();
        self.emitter.emit(&TraceEvent::Span {
            name: label.to_string(),
            start_ns: self.section_start,
            dur_ns: now.saturating_sub(self.section_start),
        });
        self.section_start = now;
    }

    /// Emit the closing `total` span and flush; returns the manifest path.
    pub fn finish(self) -> io::Result<PathBuf> {
        let now = self.clock.now_ns();
        self.emitter.emit(&TraceEvent::Span {
            name: "total".to_string(),
            start_ns: self.run_start,
            dur_ns: now.saturating_sub(self.run_start),
        });
        self.emitter.flush()?;
        Ok(self.path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sthsl_obs::parse_trace;

    #[test]
    fn manifest_records_header_sections_and_total() {
        let dir = std::env::temp_dir().join(format!("sthsl-manifest-{}", std::process::id()));
        let mut m = TimingManifest::start_in(
            &dir,
            "exp_test",
            7,
            &[("scale".to_string(), "Quick".to_string())],
        )
        .unwrap();
        m.section("build_dataset");
        m.section("evaluate");
        let path = m.finish().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let events = parse_trace(&text).unwrap();
        assert_eq!(events.len(), 4, "{text}");
        assert!(
            matches!(&events[0], TraceEvent::Manifest { run, seed: 7, .. } if run == "exp_test")
        );
        let spans: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(spans, vec!["build_dataset", "evaluate", "total"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
