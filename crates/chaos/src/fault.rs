//! Seeded fault injection: [`FaultPlan`] describes *what* to inject and
//! [`FaultyIo`] wraps another [`Io`] to inject it.
//!
//! Determinism contract: whether a given operation faults, and how (bit-flip
//! offset, torn-write cut point, short-read length), is a pure function of
//! `(plan.seed, rule index, per-rule op counter)` via [`mix64`]. Running the
//! same plan against the same sequence of operations injects byte-identical
//! faults, which is what lets a fault-injection test be replayed and
//! asserted against a bit-identical fault-free run.

use std::cell::Cell;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use crate::io::{Io, OpClass};
use crate::log::ChaosLog;
use crate::mix64;

/// Raw OS error code for `EIO` (transient I/O error — retryable).
pub const EIO: i32 = 5;
/// Raw OS error code for `ENOSPC` (disk full — not retryable).
pub const ENOSPC: i32 = 28;

/// The kinds of fault [`FaultyIo`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A write persists only a prefix of the bytes, then errors (power cut
    /// mid-write). The cut point is seeded.
    TornWrite,
    /// A read silently returns a truncated payload. The kept length is
    /// seeded.
    ShortRead,
    /// A write fails with `ENOSPC` and persists nothing.
    Enospc,
    /// The operation fails with `EIO` but the filesystem is unharmed;
    /// retrying succeeds (unless the rule fires again).
    TransientEio,
    /// A read silently returns the payload with one seeded bit flipped.
    BitFlip,
    /// The data is written but the durability barrier fails (`EIO` from
    /// fsync).
    FsyncFail,
    /// The operation succeeds but a seeded latency is charged to the
    /// virtual clock (recorded in the event detail; no real sleeping, so
    /// tests stay fast and deterministic).
    Latency,
}

impl FaultKind {
    /// Stable lowercase name, used in chaos/trace events and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::TornWrite => "torn_write",
            FaultKind::ShortRead => "short_read",
            FaultKind::Enospc => "enospc",
            FaultKind::TransientEio => "transient_eio",
            FaultKind::BitFlip => "bit_flip",
            FaultKind::FsyncFail => "fsync_fail",
            FaultKind::Latency => "latency",
        }
    }

    /// The operation classes this fault kind can fire on.
    fn applies_to(self, op: OpClass) -> bool {
        match self {
            FaultKind::TornWrite => matches!(op, OpClass::Write | OpClass::StreamWrite),
            FaultKind::ShortRead | FaultKind::BitFlip => matches!(op, OpClass::Read),
            FaultKind::Enospc => {
                matches!(op, OpClass::Write | OpClass::StreamWrite | OpClass::CreateDir)
            }
            FaultKind::FsyncFail => matches!(op, OpClass::Write | OpClass::Fsync),
            FaultKind::TransientEio | FaultKind::Latency => true,
        }
    }
}

/// One injection rule: fire `kind` on operations of class `op` whose path
/// contains `path_substr` (if set), with probability `rate`, at most
/// `max_fires` times.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Fault to inject.
    pub kind: FaultKind,
    /// Operation class to target.
    pub op: OpClass,
    /// Only operations whose path contains this substring are eligible.
    /// `None` targets every path.
    pub path_substr: Option<String>,
    /// Probability in `[0, 1]` that an eligible operation faults.
    pub rate: f64,
    /// Upper bound on total fires for this rule; `None` is unlimited.
    pub max_fires: Option<u32>,
}

impl FaultRule {
    /// Rule firing on every eligible operation (`rate` 1.0, unlimited).
    pub fn always(kind: FaultKind, op: OpClass) -> Self {
        Self { kind, op, path_substr: None, rate: 1.0, max_fires: None }
    }

    /// Restrict the rule to paths containing `s`.
    pub fn on_path(mut self, s: &str) -> Self {
        self.path_substr = Some(s.to_string());
        self
    }

    /// Set the firing probability.
    pub fn with_rate(mut self, rate: f64) -> Self {
        self.rate = rate;
        self
    }

    /// Cap the number of fires.
    pub fn with_max_fires(mut self, n: u32) -> Self {
        self.max_fires = Some(n);
        self
    }
}

/// A seeded set of [`FaultRule`]s.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Seed for every injection decision.
    pub seed: u64,
    /// Rules, checked in order; the first eligible rule that fires wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Empty plan (injects nothing).
    pub fn new(seed: u64) -> Self {
        Self { seed, rules: Vec::new() }
    }

    /// Add a rule.
    pub fn rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }
}

/// Per-rule bookkeeping: monotonically increasing op counter (feeds the
/// seeded decision) and fires-so-far (enforces `max_fires`).
#[derive(Debug, Default)]
struct RuleState {
    ops_seen: Cell<u64>,
    fires: Cell<u32>,
}

/// An [`Io`] wrapper that injects faults per a [`FaultPlan`], recording every
/// injection in a shared [`ChaosLog`].
pub struct FaultyIo<I: Io> {
    inner: I,
    plan: FaultPlan,
    states: Vec<RuleState>,
    log: Rc<ChaosLog>,
}

impl<I: Io> FaultyIo<I> {
    /// Wrap `inner`, injecting per `plan` and logging to a fresh log.
    pub fn new(inner: I, plan: FaultPlan) -> Self {
        Self::with_log(inner, plan, Rc::new(ChaosLog::new()))
    }

    /// Wrap `inner`, injecting per `plan` and logging to `log`.
    pub fn with_log(inner: I, plan: FaultPlan, log: Rc<ChaosLog>) -> Self {
        let states = plan.rules.iter().map(|_| RuleState::default()).collect();
        Self { inner, plan, states, log }
    }

    /// Shared handle to the chaos log.
    pub fn log_handle(&self) -> Rc<ChaosLog> {
        Rc::clone(&self.log)
    }

    /// Decide whether `op` on `path` should fault. Returns the winning rule's
    /// kind plus a seeded payload word used to derive offsets/lengths.
    fn decide(&self, op: OpClass, path: &Path) -> Option<(FaultKind, u64)> {
        let path_str = path.to_string_lossy();
        for (idx, rule) in self.plan.rules.iter().enumerate() {
            if rule.op != op || !rule.kind.applies_to(op) {
                continue;
            }
            if let Some(sub) = &rule.path_substr {
                if !path_str.contains(sub.as_str()) {
                    continue;
                }
            }
            let state = &self.states[idx];
            let count = state.ops_seen.get();
            state.ops_seen.set(count + 1);
            if let Some(max) = rule.max_fires {
                if state.fires.get() >= max {
                    continue;
                }
            }
            let roll = mix64(self.plan.seed, idx as u64 + 1, count);
            // Map the top 53 bits to [0, 1): enough precision for rates.
            let unit = (roll >> 11) as f64 / (1u64 << 53) as f64;
            if unit < rule.rate {
                state.fires.set(state.fires.get() + 1);
                // Independent payload stream so the fire decision and the
                // fault payload (offset/length) are uncorrelated.
                let payload = mix64(self.plan.seed, (idx as u64 + 1) << 32, count);
                return Some((rule.kind, payload));
            }
        }
        None
    }

    fn eio(&self, op: OpClass, kind: FaultKind, path: &Path, detail: String) -> io::Error {
        self.log.fault(op, kind, &path.to_string_lossy(), detail);
        io::Error::from_raw_os_error(EIO)
    }

    fn enospc(&self, op: OpClass, path: &Path) -> io::Error {
        self.log.fault(op, FaultKind::Enospc, &path.to_string_lossy(), "disk full".into());
        io::Error::from_raw_os_error(ENOSPC)
    }
}

impl<I: Io> Io for FaultyIo<I> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.decide(OpClass::Read, path) {
            None => self.inner.read(path),
            Some((FaultKind::TransientEio, _)) => {
                Err(self.eio(OpClass::Read, FaultKind::TransientEio, path, "transient".into()))
            }
            Some((FaultKind::ShortRead, payload)) => {
                let mut bytes = self.inner.read(path)?;
                let keep = if bytes.is_empty() { 0 } else { (payload as usize) % bytes.len() };
                bytes.truncate(keep);
                self.log.fault(
                    OpClass::Read,
                    FaultKind::ShortRead,
                    &path.to_string_lossy(),
                    format!("kept {keep} bytes"),
                );
                Ok(bytes)
            }
            Some((FaultKind::BitFlip, payload)) => {
                let mut bytes = self.inner.read(path)?;
                if !bytes.is_empty() {
                    let bit = (payload as usize) % (bytes.len() * 8);
                    bytes[bit / 8] ^= 1 << (bit % 8);
                    self.log.fault(
                        OpClass::Read,
                        FaultKind::BitFlip,
                        &path.to_string_lossy(),
                        format!("flipped bit {bit}"),
                    );
                }
                Ok(bytes)
            }
            Some((FaultKind::Latency, payload)) => {
                let ns = payload % 50_000_000;
                self.log.fault(
                    OpClass::Read,
                    FaultKind::Latency,
                    &path.to_string_lossy(),
                    format!("{ns}ns"),
                );
                self.inner.read(path)
            }
            // Remaining kinds never pass `applies_to` for reads.
            Some((kind, _)) => {
                Err(self.eio(OpClass::Read, kind, path, "unexpected kind on read".into()))
            }
        }
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.decide(OpClass::Write, path) {
            None => self.inner.write(path, bytes),
            Some((FaultKind::TransientEio, _)) => {
                Err(self.eio(OpClass::Write, FaultKind::TransientEio, path, "transient".into()))
            }
            Some((FaultKind::Enospc, _)) => Err(self.enospc(OpClass::Write, path)),
            Some((FaultKind::TornWrite, payload)) => {
                let cut = if bytes.is_empty() { 0 } else { (payload as usize) % bytes.len() };
                // Persist the torn prefix, then report failure: the on-disk
                // state is exactly what a power cut mid-write leaves behind.
                let _ = self.inner.write(path, &bytes[..cut]);
                Err(self.eio(
                    OpClass::Write,
                    FaultKind::TornWrite,
                    path,
                    format!("cut at {cut}/{}", bytes.len()),
                ))
            }
            Some((FaultKind::FsyncFail, _)) => {
                // Data written, durability barrier fails.
                self.inner.write(path, bytes)?;
                Err(self.eio(OpClass::Write, FaultKind::FsyncFail, path, "fsync failed".into()))
            }
            Some((FaultKind::Latency, payload)) => {
                let ns = payload % 50_000_000;
                self.log.fault(
                    OpClass::Write,
                    FaultKind::Latency,
                    &path.to_string_lossy(),
                    format!("{ns}ns"),
                );
                self.inner.write(path, bytes)
            }
            Some((kind, _)) => {
                Err(self.eio(OpClass::Write, kind, path, "unexpected kind on write".into()))
            }
        }
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        match self.decide(OpClass::Fsync, dir) {
            None | Some((FaultKind::Latency, _)) => self.inner.fsync_dir(dir),
            Some((kind, _)) => Err(self.eio(OpClass::Fsync, kind, dir, "dir fsync failed".into())),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.decide(OpClass::Rename, from) {
            None | Some((FaultKind::Latency, _)) => self.inner.rename(from, to),
            Some((kind, _)) => Err(self.eio(OpClass::Rename, kind, from, "rename failed".into())),
        }
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.decide(OpClass::Remove, path) {
            None | Some((FaultKind::Latency, _)) => self.inner.remove_file(path),
            Some((kind, _)) => Err(self.eio(OpClass::Remove, kind, path, "remove failed".into())),
        }
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        match self.decide(OpClass::CreateDir, dir) {
            None | Some((FaultKind::Latency, _)) => self.inner.create_dir_all(dir),
            Some((FaultKind::Enospc, _)) => Err(self.enospc(OpClass::CreateDir, dir)),
            Some((kind, _)) => {
                Err(self.eio(OpClass::CreateDir, kind, dir, "create_dir failed".into()))
            }
        }
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        match self.decide(OpClass::ListDir, dir) {
            None | Some((FaultKind::Latency, _)) => self.inner.list_dir(dir),
            Some((kind, _)) => Err(self.eio(OpClass::ListDir, kind, dir, "list failed".into())),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }

    fn open_writer(&self, path: &Path) -> io::Result<Box<dyn Write>> {
        // Stream faults are decided per `write` call on the returned sink,
        // not per open: JSONL emitters open once and write many lines.
        let inner = self.inner.open_writer(path)?;
        Ok(Box::new(FaultyWriter {
            inner,
            path: path.to_path_buf(),
            plan: self.plan.clone(),
            counter: Cell::new(0),
            fires: Cell::new(0),
            log: Rc::clone(&self.log),
        }))
    }

    fn chaos_log(&self) -> Option<&ChaosLog> {
        Some(&self.log)
    }
}

/// Stream sink returned by [`FaultyIo::open_writer`]: applies `StreamWrite`
/// rules to each `write` call.
struct FaultyWriter {
    inner: Box<dyn Write>,
    path: PathBuf,
    plan: FaultPlan,
    counter: Cell<u64>,
    fires: Cell<u32>,
    log: Rc<ChaosLog>,
}

impl Write for FaultyWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let count = self.counter.get();
        self.counter.set(count + 1);
        let path_str = self.path.to_string_lossy();
        for (idx, rule) in self.plan.rules.iter().enumerate() {
            if rule.op != OpClass::StreamWrite || !rule.kind.applies_to(OpClass::StreamWrite) {
                continue;
            }
            if let Some(sub) = &rule.path_substr {
                if !path_str.contains(sub.as_str()) {
                    continue;
                }
            }
            if let Some(max) = rule.max_fires {
                if self.fires.get() >= max {
                    continue;
                }
            }
            let roll = mix64(self.plan.seed, 0x5157_0000 ^ (idx as u64 + 1), count);
            let unit = (roll >> 11) as f64 / (1u64 << 53) as f64;
            if unit < rule.rate {
                self.fires.set(self.fires.get() + 1);
                match rule.kind {
                    FaultKind::Enospc => {
                        self.log.fault(
                            OpClass::StreamWrite,
                            FaultKind::Enospc,
                            &path_str,
                            "disk full".into(),
                        );
                        return Err(io::Error::from_raw_os_error(ENOSPC));
                    }
                    FaultKind::TornWrite => {
                        let cut = if buf.is_empty() { 0 } else { (roll as usize) % buf.len() };
                        let _ = self.inner.write(&buf[..cut]);
                        self.log.fault(
                            OpClass::StreamWrite,
                            FaultKind::TornWrite,
                            &path_str,
                            format!("cut at {cut}/{}", buf.len()),
                        );
                        return Err(io::Error::from_raw_os_error(EIO));
                    }
                    _ => {
                        self.log.fault(
                            OpClass::StreamWrite,
                            rule.kind,
                            &path_str,
                            "stream write failed".into(),
                        );
                        return Err(io::Error::from_raw_os_error(EIO));
                    }
                }
            }
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::RealIo;
    use std::fs;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("sthsl-chaos-fault-{tag}-{}", std::process::id()));
        fs::create_dir_all(&d).expect("create tmp dir");
        d
    }

    #[test]
    fn empty_plan_is_transparent() {
        let dir = tmp_dir("transparent");
        let io = FaultyIo::new(RealIo, FaultPlan::new(1));
        let p = dir.join("x.bin");
        io.write(&p, b"abc").expect("write");
        assert_eq!(io.read(&p).expect("read"), b"abc");
        assert!(io.chaos_log().expect("log").is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_write_persists_prefix_and_errors() {
        let dir = tmp_dir("torn");
        let plan = FaultPlan::new(2).rule(FaultRule::always(FaultKind::TornWrite, OpClass::Write));
        let io = FaultyIo::new(RealIo, plan);
        let p = dir.join("t.bin");
        let err = io.write(&p, b"0123456789").expect_err("must fail");
        assert_eq!(err.raw_os_error(), Some(EIO));
        let on_disk = fs::read(&p).expect("torn file exists");
        assert!(on_disk.len() < 10, "must be a strict prefix, got {}", on_disk.len());
        assert_eq!(&b"0123456789"[..on_disk.len()], &on_disk[..]);
        assert_eq!(io.chaos_log().expect("log").fault_count(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let dir = tmp_dir("flip");
        let p = dir.join("f.bin");
        RealIo.write(&p, &[0u8; 64]).expect("seed file");
        let plan = FaultPlan::new(3).rule(FaultRule::always(FaultKind::BitFlip, OpClass::Read));
        let io = FaultyIo::new(RealIo, plan);
        let got = io.read(&p).expect("read with flip");
        let ones: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit flipped");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn max_fires_limits_injection_then_heals() {
        let dir = tmp_dir("maxfires");
        let p = dir.join("m.bin");
        let plan = FaultPlan::new(4)
            .rule(FaultRule::always(FaultKind::TransientEio, OpClass::Write).with_max_fires(2));
        let io = FaultyIo::new(RealIo, plan);
        assert!(io.write(&p, b"a").is_err());
        assert!(io.write(&p, b"a").is_err());
        io.write(&p, b"a").expect("third attempt heals");
        assert_eq!(io.chaos_log().expect("log").fault_count(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn path_filter_scopes_injection() {
        let dir = tmp_dir("pathfilter");
        let plan = FaultPlan::new(5)
            .rule(FaultRule::always(FaultKind::TransientEio, OpClass::Write).on_path("ckpt-"));
        let io = FaultyIo::new(RealIo, plan);
        io.write(&dir.join("data.csv"), b"x").expect("untargeted path writes fine");
        assert!(io.write(&dir.join("ckpt-0000000001.sthsl"), b"x").is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decisions_replay_identically_for_same_seed() {
        let dir = tmp_dir("replay");
        let p = dir.join("r.bin");
        RealIo.write(&p, b"deterministic payload for replay").expect("seed file");
        let run = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(seed)
                .rule(FaultRule::always(FaultKind::TransientEio, OpClass::Read).with_rate(0.5));
            let io = FaultyIo::new(RealIo, plan);
            (0..32).map(|_| io.read(&p).is_err()).collect()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b, "same seed must replay identically");
        assert_ne!(a, c, "different seed must differ");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x), "rate 0.5 mixes outcomes");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_writer_faults_per_write_call() {
        let dir = tmp_dir("stream");
        let p = dir.join("trace.jsonl");
        let plan = FaultPlan::new(6).rule(FaultRule {
            kind: FaultKind::TornWrite,
            op: OpClass::StreamWrite,
            path_substr: Some("trace".into()),
            rate: 1.0,
            max_fires: Some(1),
        });
        let io = FaultyIo::new(RealIo, plan);
        let mut w = io.open_writer(&p).expect("open");
        assert!(w.write(b"line one\n").is_err(), "first write torn");
        w.write_all(b"line two\n").expect("second write heals");
        assert_eq!(io.chaos_log().expect("log").fault_count(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
