//! Checkpoints — the one on-disk format for ST-HSL parameters (version 2 of
//! the `STHSLPRM` container).
//!
//! A checkpoint carries everything needed to resume training bit-identically:
//! model parameters, Adam moment estimates, and the trainer's counters (which
//! double as the RNG state, since the training loop derives all randomness
//! from `(seed, epoch, step)`). Bare parameter artifacts — a trained
//! `--model` file, the early-stopping `best.params` — are checkpoints with
//! empty Adam moments, so every parameter file carries the checksum.
//!
//! Layout (little-endian), with a trailing integrity checksum:
//! ```text
//! magic "STHSLPRM" | u32 version = 2
//! params:  u64 count | per param: u64 name len | name | tensor
//! adam:    u64 t | u64 n_slots | per slot: u8 present | [m tensor | v tensor]
//! trainer: u64 epoch | u64 batch_in_epoch | u64 global_step | u64 seed
//!          | f32 lr_scale | u32 divergence_retries | u32 epochs_since_improve
//!          | f64 best_val | f64 last_train_loss | f64 epoch_loss_accum
//! u64 FNV-1a of every preceding byte
//! tensor = u64 rank | u64 dims… | f32 data…
//! ```
//!
//! Writes are atomic (see `crate::serialize`); loads verify the checksum
//! before parsing and validate every length field against the actual file
//! size, so torn, truncated or corrupted checkpoints are rejected with a
//! typed [`io::Error`] — never a panic or an out-of-memory abort.

use crate::optim::AdamState;
use crate::params::ParamStore;
use crate::serialize::{
    atomic_write_io, fnv1a, read_params, read_tensor, with_path, write_params, write_tensor,
    ByteReader,
};
use std::io;
use std::path::{Path, PathBuf};
use sthsl_chaos::{retry, Io, RealIo, RecoveryAction, RetryPolicy, Sleeper, VirtualSleeper};

const MAGIC: &[u8; 8] = b"STHSLPRM";
const VERSION: u32 = 2;

/// Cap on Adam moment slots (one per parameter tensor; far above any model
/// this crate builds).
const MAX_SLOTS: usize = 1 << 20;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// The training loop's position and health counters.
///
/// Because the loop derives every random choice from `(seed, epoch,
/// global_step)`, these counters *are* the RNG state: restoring them resumes
/// the exact random stream of the uninterrupted run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainerState {
    /// Epoch currently in progress (0-based).
    pub epoch: u64,
    /// Batches already completed within `epoch`.
    pub batch_in_epoch: u64,
    /// Optimizer steps completed since the start of training.
    pub global_step: u64,
    /// The config seed the run was started with; resuming under a different
    /// seed is rejected.
    pub seed: u64,
    /// Divergence back-off scale: the learning rate is `cfg.lr` times this
    /// (1.0 at the start, halved by each divergence recovery).
    pub lr_scale: f32,
    /// Divergence recoveries consumed so far.
    pub divergence_retries: u32,
    /// Epochs since the validation loss last improved (early stopping).
    pub epochs_since_improve: u32,
    /// Best validation loss seen (NaN when no validation has run yet).
    pub best_val: f64,
    /// Training loss of the last completed epoch (NaN before the first).
    pub last_train_loss: f64,
    /// Loss accumulated over the completed batches of the epoch in progress,
    /// so a mid-epoch resume reports the same epoch mean as an uninterrupted
    /// run.
    pub epoch_loss_accum: f64,
}

impl Default for TrainerState {
    fn default() -> Self {
        TrainerState {
            epoch: 0,
            batch_in_epoch: 0,
            global_step: 0,
            seed: 0,
            lr_scale: 1.0,
            divergence_retries: 0,
            epochs_since_improve: 0,
            best_val: f64::NAN,
            last_train_loss: f64::NAN,
            epoch_loss_accum: 0.0,
        }
    }
}

/// A complete, resumable snapshot of a training run.
pub struct Checkpoint {
    /// Model parameters.
    pub params: ParamStore,
    /// Optimizer moment estimates and step count.
    pub adam: AdamState,
    /// Training-loop position and counters.
    pub trainer: TrainerState,
}

impl Checkpoint {
    /// A parameters-only checkpoint: empty optimizer moments, zeroed trainer
    /// progress and the run's seed. This is the persisted form of a trained
    /// model (`--model`, `best.params`): install its parameters into a
    /// freshly built model of the same config.
    pub fn of_params(params: ParamStore, seed: u64) -> Checkpoint {
        Checkpoint {
            params,
            adam: AdamState { t: 0, m: Vec::new(), v: Vec::new() },
            trainer: TrainerState { seed, ..TrainerState::default() },
        }
    }

    /// Serialise to `path` atomically (temp file + fsync + rename): a crash
    /// mid-save can never leave a torn checkpoint at `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        self.save_io(&RealIo, path.as_ref())
    }

    /// [`Checkpoint::save`] through an injectable I/O seam.
    pub fn save_io(&self, io: &dyn Io, path: &Path) -> io::Result<()> {
        let mut out = Vec::with_capacity(64 + self.params.num_scalars() * 12);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        write_params(&mut out, &self.params);

        let a = &self.adam;
        debug_assert_eq!(a.m.len(), a.v.len());
        out.extend_from_slice(&a.t.to_le_bytes());
        out.extend_from_slice(&(a.m.len() as u64).to_le_bytes());
        for (m, v) in a.m.iter().zip(&a.v) {
            match (m, v) {
                (Some(m), Some(v)) => {
                    out.push(1);
                    write_tensor(&mut out, m);
                    write_tensor(&mut out, v);
                }
                _ => out.push(0),
            }
        }

        let t = &self.trainer;
        out.extend_from_slice(&t.epoch.to_le_bytes());
        out.extend_from_slice(&t.batch_in_epoch.to_le_bytes());
        out.extend_from_slice(&t.global_step.to_le_bytes());
        out.extend_from_slice(&t.seed.to_le_bytes());
        out.extend_from_slice(&t.lr_scale.to_le_bytes());
        out.extend_from_slice(&t.divergence_retries.to_le_bytes());
        out.extend_from_slice(&t.epochs_since_improve.to_le_bytes());
        out.extend_from_slice(&t.best_val.to_le_bytes());
        out.extend_from_slice(&t.last_train_loss.to_le_bytes());
        out.extend_from_slice(&t.epoch_loss_accum.to_le_bytes());

        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        atomic_write_io(io, path, &out)
    }

    /// [`Checkpoint::save_io`] retried under `policy`: transient failures
    /// (e.g. `EIO`) back off and retry; structural ones (`ENOSPC`, bad path)
    /// fail immediately. Each retry is recorded in the seam's chaos log.
    pub fn save_with_retry(
        &self,
        io: &dyn Io,
        path: &Path,
        policy: RetryPolicy,
        sleeper: &dyn Sleeper,
    ) -> io::Result<()> {
        retry(policy, sleeper, io.chaos_log(), &path.to_string_lossy(), || self.save_io(io, path))
    }

    /// Load and fully validate a checkpoint written by [`Checkpoint::save`].
    ///
    /// The trailing checksum is verified against the file body *first*, so a
    /// bit-flipped file is rejected before any of its length fields are
    /// trusted. Every error names the offending path and the section that
    /// failed (magic, version, checksum, truncation, a specific field).
    pub fn load(path: impl AsRef<Path>) -> io::Result<Checkpoint> {
        Checkpoint::load_io(&RealIo, path.as_ref())
    }

    /// [`Checkpoint::load`] through an injectable I/O seam.
    pub fn load_io(io: &dyn Io, path: &Path) -> io::Result<Checkpoint> {
        let bytes = io.read(path).map_err(|e| with_path(path, e))?;
        Self::parse(&bytes).map_err(|e| with_path(path, e))
    }

    fn parse(bytes: &[u8]) -> io::Result<Checkpoint> {
        if bytes.len() < MAGIC.len() + 4 + 8 {
            return Err(bad("truncated checkpoint: shorter than the fixed header"));
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        // `split_at` leaves exactly 8 bytes in `tail`; a mismatch would be a
        // split bug, reported as corruption instead of panicking mid-resume.
        let stored = u64::from_le_bytes(
            tail.try_into().map_err(|_| bad("internal: checksum tail is not 8 bytes"))?,
        );
        let actual = fnv1a(body);
        if stored != actual {
            return Err(bad(format!(
                "checkpoint checksum mismatch (stored {stored:#018x}, computed {actual:#018x}): file is corrupt"
            )));
        }

        let mut r = ByteReader::new(body);
        if r.take(8, "magic")? != MAGIC {
            return Err(bad("magic: not an ST-HSL checkpoint file"));
        }
        let version = r.u32("version")?;
        if version != VERSION {
            return Err(bad(format!("version: unsupported checkpoint version {version}")));
        }
        let params = read_params(&mut r)?;

        let t = r.u64("adam step count")?;
        let n_slots = r.checked_len(MAX_SLOTS, 1, "adam slot count")?;
        let mut m = Vec::with_capacity(n_slots);
        let mut v = Vec::with_capacity(n_slots);
        for i in 0..n_slots {
            match r.u8(&format!("adam slot {i} flag"))? {
                0 => {
                    m.push(None);
                    v.push(None);
                }
                1 => {
                    m.push(Some(read_tensor(&mut r)?));
                    v.push(Some(read_tensor(&mut r)?));
                }
                other => {
                    return Err(bad(format!("adam slot {i}: invalid presence flag {other}")));
                }
            }
        }
        let adam = AdamState { t, m, v };

        let trainer = TrainerState {
            epoch: r.u64("trainer epoch")?,
            batch_in_epoch: r.u64("trainer batch_in_epoch")?,
            global_step: r.u64("trainer global_step")?,
            seed: r.u64("trainer seed")?,
            lr_scale: r.f32("trainer lr_scale")?,
            divergence_retries: r.u32("trainer divergence_retries")?,
            epochs_since_improve: r.u32("trainer epochs_since_improve")?,
            best_val: r.f64("trainer best_val")?,
            last_train_loss: r.f64("trainer last_train_loss")?,
            epoch_loss_accum: r.f64("trainer epoch_loss_accum")?,
        };
        r.finish()?;
        Ok(Checkpoint { params, adam, trainer })
    }
}

/// The conventional file name for the checkpoint written at `global_step`.
/// Zero-padded so lexicographic order equals step order.
pub fn checkpoint_file_name(global_step: u64) -> String {
    format!("ckpt-{global_step:010}.sthsl")
}

fn is_checkpoint_name(name: &str) -> bool {
    name.starts_with("ckpt-") && name.ends_with(".sthsl")
}

/// All `ckpt-*.sthsl` files in `dir`, sorted ascending (= step order thanks
/// to zero padding). Missing directory is an empty list, not an error.
fn list_checkpoints(io: &dyn Io, dir: &Path) -> io::Result<Vec<PathBuf>> {
    let entries = match io.list_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut ckpts: Vec<PathBuf> = entries
        .into_iter()
        .filter(|p| p.file_name().and_then(|n| n.to_str()).is_some_and(is_checkpoint_name))
        .collect();
    ckpts.sort();
    Ok(ckpts)
}

/// Find the most recent checkpoint (highest step) in `dir`. Returns `None`
/// when the directory is missing or holds no `ckpt-*.sthsl` files.
pub fn latest_checkpoint(dir: impl AsRef<Path>) -> io::Result<Option<PathBuf>> {
    latest_checkpoint_io(&RealIo, dir.as_ref())
}

/// [`latest_checkpoint`] through an injectable I/O seam.
pub fn latest_checkpoint_io(io: &dyn Io, dir: &Path) -> io::Result<Option<PathBuf>> {
    Ok(list_checkpoints(io, dir)?.pop())
}

/// Rename a corrupt artifact to `{path}.corrupt`, preserving the evidence
/// for post-mortem instead of deleting it. Returns the quarantine path.
pub fn quarantine(io: &dyn Io, path: &Path) -> io::Result<PathBuf> {
    let mut name = path.as_os_str().to_os_string();
    name.push(".corrupt");
    let dest = PathBuf::from(name);
    io.rename(path, &dest).map_err(|e| with_path(path, e))?;
    if let Some(log) = io.chaos_log() {
        log.recovery(
            RecoveryAction::Quarantine,
            &path.to_string_lossy(),
            format!("renamed to {}", dest.display()),
        );
    }
    Ok(dest)
}

/// Remove stale `.{name}.tmp-{pid}` files left in `dir` by a crashed
/// `atomic_write_io`. Returns the swept paths. Missing directory sweeps
/// nothing.
pub fn sweep_stale_tmp(io: &dyn Io, dir: &Path) -> io::Result<Vec<PathBuf>> {
    let entries = match io.list_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut swept = Vec::new();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if name.starts_with('.') && name.contains(".tmp-") {
            io.remove_file(&path)?;
            if let Some(log) = io.chaos_log() {
                log.recovery(RecoveryAction::TmpSweep, &path.to_string_lossy(), String::new());
            }
            swept.push(path);
        }
    }
    Ok(swept)
}

/// Load [`Checkpoint::load_io`] with transient read errors retried under
/// `policy`. A checksum/parse failure (`InvalidData`) is *also* retried
/// once more via re-read — read-path corruption (a flaky controller, an
/// injected bit flip) heals on a second read, while genuine on-disk
/// corruption reproduces and is then reported.
pub fn load_with_reread(
    io: &dyn Io,
    path: &Path,
    policy: RetryPolicy,
    sleeper: &dyn Sleeper,
) -> io::Result<Checkpoint> {
    let first = retry(policy, sleeper, io.chaos_log(), &path.to_string_lossy(), || {
        Checkpoint::load_io(io, path)
    });
    match first {
        Err(e) if e.kind() == io::ErrorKind::InvalidData && policy.max_attempts > 1 => {
            match Checkpoint::load_io(io, path) {
                Ok(ck) => {
                    if let Some(log) = io.chaos_log() {
                        log.recovery(
                            RecoveryAction::Reread,
                            &path.to_string_lossy(),
                            "checksum healed on re-read".into(),
                        );
                    }
                    Ok(ck)
                }
                Err(e2) => Err(e2),
            }
        }
        other => other,
    }
}

/// Scan `dir` newest-first for a checkpoint that loads and verifies.
///
/// Candidates that fail their checksum (persistently, after a healing
/// re-read) are quarantined as `*.corrupt` — never deleted — and the scan
/// falls back to the next older generation. Candidates that cannot be read
/// at all are skipped in place. Returns the newest verified-good checkpoint
/// and its path, or `None` when no generation survives.
pub fn load_latest_verified(
    io: &dyn Io,
    dir: &Path,
    policy: RetryPolicy,
    sleeper: &dyn Sleeper,
) -> io::Result<Option<(PathBuf, Checkpoint)>> {
    let ckpts = list_checkpoints(io, dir)?;
    let newest = ckpts.last().cloned();
    for path in ckpts.into_iter().rev() {
        match load_with_reread(io, &path, policy, sleeper) {
            Ok(ck) => {
                if newest.as_ref().is_some_and(|n| *n != path) {
                    if let Some(log) = io.chaos_log() {
                        log.recovery(
                            RecoveryAction::Fallback,
                            &path.to_string_lossy(),
                            "older verified generation".into(),
                        );
                    }
                }
                return Ok(Some((path, ck)));
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                // Corrupt: preserve the evidence, fall back to older.
                quarantine(io, &path).ok();
            }
            Err(_) => {
                // Unreadable (permissions, transient beyond budget): leave
                // it alone and keep scanning; it may become readable later.
            }
        }
    }
    Ok(None)
}

/// What [`prune_checkpoints_io`] did.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PruneReport {
    /// Checkpoints deleted by retention.
    pub deleted: Vec<PathBuf>,
    /// Corrupt checkpoints quarantined as `*.corrupt` during verification.
    pub quarantined: Vec<PathBuf>,
    /// Stale atomic-write temp files removed.
    pub swept_tmp: Vec<PathBuf>,
    /// The newest checkpoint that loaded and verified, if any.
    pub kept_verified: Option<PathBuf>,
}

/// Delete all but the newest `keep` checkpoints in `dir` — but never the
/// newest *verified-good* generation, even when it is older than the
/// retention window (later files may be corrupt, and deleting the only
/// loadable checkpoint would strand the run). Corrupt files found while
/// verifying are quarantined as `*.corrupt`; stale `.tmp` files from
/// crashed atomic writes are swept. Never touches non-checkpoint files
/// (e.g. `best.params`).
pub fn prune_checkpoints_io(io: &dyn Io, dir: &Path, keep: usize) -> io::Result<PruneReport> {
    let mut report = PruneReport { swept_tmp: sweep_stale_tmp(io, dir)?, ..Default::default() };
    let sleeper = VirtualSleeper::new();
    let mut ckpts = list_checkpoints(io, dir)?;

    // Walk newest-down until one generation verifies; on the healthy path
    // this is a single read of the newest file.
    for path in ckpts.clone().into_iter().rev() {
        match load_with_reread(io, &path, RetryPolicy::default_read(), &sleeper) {
            Ok(_) => {
                report.kept_verified = Some(path);
                break;
            }
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                if let Ok(dest) = quarantine(io, &path) {
                    report.quarantined.push(dest);
                    ckpts.retain(|p| *p != path);
                }
            }
            Err(_) => {
                // Unreadable is not proof of corruption: keep the file and
                // treat it as unverified.
            }
        }
    }

    let n = ckpts.len().saturating_sub(keep);
    for old in ckpts.into_iter().take(n) {
        if report.kept_verified.as_ref().is_some_and(|v| *v == old) {
            continue;
        }
        io.remove_file(&old)?;
        report.deleted.push(old);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use std::fs;
    use sthsl_tensor::Tensor;

    fn tmp_dir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sthsl_ckpt_{}_{name}", std::process::id()));
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn sample_checkpoint() -> Checkpoint {
        let mut rng = StdRng::seed_from_u64(5);
        let mut params = ParamStore::new();
        params.register("w", Tensor::rand_normal(&[3, 2], 0.0, 1.0, &mut rng));
        params.register("b", Tensor::rand_normal(&[2], 0.0, 1.0, &mut rng));
        let adam = AdamState {
            t: 17,
            m: vec![Some(Tensor::rand_normal(&[3, 2], 0.0, 0.1, &mut rng)), None],
            v: vec![Some(Tensor::rand_normal(&[3, 2], 0.0, 0.1, &mut rng)), None],
        };
        let trainer = TrainerState {
            epoch: 3,
            batch_in_epoch: 2,
            global_step: 17,
            seed: 42,
            lr_scale: 0.5,
            divergence_retries: 1,
            epochs_since_improve: 2,
            best_val: 0.75,
            last_train_loss: 0.9,
            epoch_loss_accum: 1.25,
        };
        Checkpoint { params, adam, trainer }
    }

    #[test]
    fn checkpoint_roundtrip_is_bit_exact() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join(checkpoint_file_name(17));
        let ck = sample_checkpoint();
        ck.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();

        assert_eq!(loaded.trainer, ck.trainer);
        assert_eq!(loaded.adam.t, 17);
        for id in ck.params.ids() {
            assert_eq!(loaded.params.name(id), ck.params.name(id));
            assert_eq!(loaded.params.get(id).data(), ck.params.get(id).data());
        }
        assert_eq!(
            loaded.adam.m[0].as_ref().unwrap().data(),
            ck.adam.m[0].as_ref().unwrap().data()
        );
        assert!(loaded.adam.m[1].is_none());

        // Saving the loaded checkpoint reproduces the identical byte image.
        let path2 = dir.join("again.sthsl");
        loaded.save(&path2).unwrap();
        assert_eq!(fs::read(&path).unwrap(), fs::read(&path2).unwrap());
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn corrupted_checkpoints_are_rejected_never_panic() {
        let dir = tmp_dir("fuzz");
        let path = dir.join("victim.sthsl");
        sample_checkpoint().save(&path).unwrap();
        let good = fs::read(&path).unwrap();
        let attack = dir.join("attack.sthsl");

        // Every truncation fails (checksum or header check).
        for cut in 0..good.len() {
            fs::write(&attack, &good[..cut]).unwrap();
            assert!(Checkpoint::load(&attack).is_err(), "truncation at {cut} accepted");
        }
        // Every single-byte flip fails the checksum.
        for i in 0..good.len() {
            let mut evil = good.clone();
            evil[i] ^= 0xA5;
            fs::write(&attack, &evil).unwrap();
            assert!(Checkpoint::load(&attack).is_err(), "bit flip at {i} accepted");
        }
        // Trailing junk fails the checksum too.
        let mut padded = good.clone();
        padded.extend_from_slice(&[0u8; 16]);
        fs::write(&attack, &padded).unwrap();
        assert!(Checkpoint::load(&attack).is_err());
        fs::remove_dir_all(dir).ok();
    }

    /// `body` followed by its correct FNV-1a footer: a hostile file that
    /// passes the checksum, as an attacker who can compute it would write.
    fn sealed(mut body: Vec<u8>) -> Vec<u8> {
        let sum = fnv1a(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        body
    }

    fn header() -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&VERSION.to_le_bytes());
        out
    }

    #[test]
    fn load_rejects_garbage() {
        let dir = tmp_dir("garbage");
        let path = dir.join("garbage.sthsl");
        fs::write(&path, b"definitely not a parameter file").unwrap();
        assert!(Checkpoint::load(&path).is_err());
        // A correct checksum over the garbage does not make it a checkpoint.
        fs::write(&path, sealed(b"definitely not a parameter file".to_vec())).unwrap();
        let Err(err) = Checkpoint::load(&path) else { panic!("garbage accepted") };
        assert!(err.to_string().contains("magic"), "{err}");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn load_rejects_giant_claimed_sizes_without_allocating() {
        // Each file claims an absurd size behind a valid checksum; the
        // size-vs-file check must reject it before any allocation.
        let dir = tmp_dir("giant");
        let path = dir.join("giant.sthsl");

        let mut count = header();
        count.extend_from_slice(&(1u64 << 60).to_le_bytes()); // param count

        let mut name = header();
        name.extend_from_slice(&1u64.to_le_bytes()); // one param
        name.extend_from_slice(&(1u64 << 40).to_le_bytes()); // name length

        let mut dims = header();
        dims.extend_from_slice(&1u64.to_le_bytes());
        dims.extend_from_slice(&1u64.to_le_bytes());
        dims.push(b'w');
        dims.extend_from_slice(&2u64.to_le_bytes()); // rank 2
        dims.extend_from_slice(&(u64::MAX / 2).to_le_bytes());
        dims.extend_from_slice(&(u64::MAX / 2).to_le_bytes());

        for (what, body) in [("count", count), ("name", name), ("dims", dims)] {
            fs::write(&path, sealed(body)).unwrap();
            let Err(err) = Checkpoint::load(&path) else { panic!("giant {what} accepted") };
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}: {err}");
            assert!(!err.to_string().contains("checksum"), "{what} must pass the checksum");
        }
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn latest_and_prune_respect_step_order() {
        let dir = tmp_dir("retention");
        assert!(latest_checkpoint(dir.join("missing")).unwrap().is_none());
        let ck = sample_checkpoint();
        for step in [3u64, 10, 7, 25, 19] {
            ck.save(dir.join(checkpoint_file_name(step))).unwrap();
        }
        fs::write(dir.join("best.params"), b"not a checkpoint").unwrap();

        let latest = latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(latest.file_name().unwrap().to_str().unwrap(), checkpoint_file_name(25));

        prune_checkpoints_io(&RealIo, &dir, 2).unwrap();
        let mut left: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().and_then(|e| e.file_name().into_string().ok()))
            .collect();
        left.sort();
        assert_eq!(
            left,
            vec!["best.params".to_string(), checkpoint_file_name(19), checkpoint_file_name(25)]
        );
        fs::remove_dir_all(dir).ok();
    }

    fn dir_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok().and_then(|e| e.file_name().into_string().ok()))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn load_errors_name_path_and_section() {
        let dir = tmp_dir("errctx");
        let path = dir.join("victim.sthsl");
        sample_checkpoint().save(&path).unwrap();
        let mut evil = fs::read(&path).unwrap();
        let mid = evil.len() / 2;
        evil[mid] ^= 0xA5;
        fs::write(&path, &evil).unwrap();
        let Err(err) = Checkpoint::load(&path) else { panic!("corrupt load must fail") };
        let msg = err.to_string();
        assert!(msg.contains("victim.sthsl"), "path missing from: {msg}");
        assert!(msg.contains("checksum"), "failing section missing from: {msg}");

        fs::write(&path, b"NOTMAGIC").unwrap();
        let Err(err) = Checkpoint::load(&path) else { panic!("short load must fail") };
        let msg = err.to_string();
        assert!(msg.contains("victim.sthsl") && msg.contains("truncated"), "{msg}");

        let Err(err) = Checkpoint::load(dir.join("nope.params")) else {
            panic!("missing file must fail")
        };
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(err.to_string().contains("nope.params"));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn quarantine_preserves_evidence() {
        let dir = tmp_dir("quarantine");
        let path = dir.join(checkpoint_file_name(7));
        fs::write(&path, b"corrupt bytes").unwrap();
        let dest = quarantine(&RealIo, &path).unwrap();
        assert!(!path.exists());
        assert_eq!(fs::read(&dest).unwrap(), b"corrupt bytes");
        assert!(dest.to_string_lossy().ends_with(".corrupt"));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scan_back_quarantines_corrupt_and_falls_back() {
        let dir = tmp_dir("scanback");
        let ck = sample_checkpoint();
        for step in [5u64, 9, 12] {
            ck.save(dir.join(checkpoint_file_name(step))).unwrap();
        }
        // Corrupt the two newest generations.
        for step in [9u64, 12] {
            let p = dir.join(checkpoint_file_name(step));
            let mut bytes = fs::read(&p).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0xFF;
            fs::write(&p, &bytes).unwrap();
        }
        let sleeper = VirtualSleeper::new();
        let (path, loaded) =
            load_latest_verified(&RealIo, &dir, RetryPolicy::default_read(), &sleeper)
                .unwrap()
                .expect("oldest generation survives");
        assert_eq!(path, dir.join(checkpoint_file_name(5)));
        assert_eq!(loaded.trainer, ck.trainer);
        let names = dir_names(&dir);
        assert!(names.contains(&format!("{}.corrupt", checkpoint_file_name(9))), "{names:?}");
        assert!(names.contains(&format!("{}.corrupt", checkpoint_file_name(12))), "{names:?}");
        assert!(!names.contains(&checkpoint_file_name(12)), "corrupt file must be renamed");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn scan_back_with_no_survivor_returns_none() {
        let dir = tmp_dir("nosurvivor");
        let p = dir.join(checkpoint_file_name(3));
        sample_checkpoint().save(&p).unwrap();
        let mut bytes = fs::read(&p).unwrap();
        bytes[10] ^= 0x42;
        fs::write(&p, &bytes).unwrap();
        let sleeper = VirtualSleeper::new();
        let got =
            load_latest_verified(&RealIo, &dir, RetryPolicy::default_read(), &sleeper).unwrap();
        assert!(got.is_none());
        assert!(dir_names(&dir).contains(&format!("{}.corrupt", checkpoint_file_name(3))));
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn prune_never_deletes_newest_verified_good() {
        let dir = tmp_dir("prune_verified");
        let ck = sample_checkpoint();
        for step in [1u64, 2, 3, 4] {
            ck.save(dir.join(checkpoint_file_name(step))).unwrap();
        }
        // Corrupt the two newest: the newest verified-good is step 2.
        for step in [3u64, 4] {
            let p = dir.join(checkpoint_file_name(step));
            let mut bytes = fs::read(&p).unwrap();
            bytes[20] ^= 0x81;
            fs::write(&p, &bytes).unwrap();
        }
        let report = prune_checkpoints_io(&RealIo, &dir, 1).unwrap();
        assert_eq!(report.kept_verified, Some(dir.join(checkpoint_file_name(2))));
        assert_eq!(report.quarantined.len(), 2);
        let names = dir_names(&dir);
        // Step 2 must survive even though retention alone would drop it;
        // step 1 is pruned; 3 and 4 are quarantined, not deleted.
        assert!(names.contains(&checkpoint_file_name(2)), "{names:?}");
        assert!(!names.contains(&checkpoint_file_name(1)), "{names:?}");
        assert!(names.contains(&format!("{}.corrupt", checkpoint_file_name(3))), "{names:?}");
        assert!(names.contains(&format!("{}.corrupt", checkpoint_file_name(4))), "{names:?}");
        Checkpoint::load(dir.join(checkpoint_file_name(2))).expect("survivor loads");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn prune_sweeps_stale_tmp_files() {
        let dir = tmp_dir("tmpsweep");
        sample_checkpoint().save(dir.join(checkpoint_file_name(8))).unwrap();
        let stale = dir.join(format!(".{}.tmp-99999", checkpoint_file_name(6)));
        fs::write(&stale, b"half a checkpoint").unwrap();
        fs::write(dir.join("best.params"), b"not a checkpoint").unwrap();
        let report = prune_checkpoints_io(&RealIo, &dir, 2).unwrap();
        assert_eq!(report.swept_tmp, vec![stale.clone()]);
        assert!(!stale.exists());
        let names = dir_names(&dir);
        assert!(names.contains(&"best.params".to_string()), "{names:?}");
        assert!(names.contains(&checkpoint_file_name(8)), "{names:?}");
        fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn save_with_retry_heals_transient_write_faults() {
        use sthsl_chaos::{FaultKind, FaultPlan, FaultRule, FaultyIo, OpClass};
        let dir = tmp_dir("saveretry");
        let path = dir.join(checkpoint_file_name(1));
        let plan = FaultPlan::new(21)
            .rule(FaultRule::always(FaultKind::TransientEio, OpClass::Write).with_max_fires(2));
        let io = FaultyIo::new(RealIo, plan);
        let sleeper = VirtualSleeper::new();
        let ck = sample_checkpoint();
        ck.save_with_retry(&io, &path, RetryPolicy::default_checkpoint(), &sleeper).unwrap();
        Checkpoint::load(&path).expect("retried save is loadable");
        let log = io.chaos_log().unwrap();
        assert_eq!(log.fault_count(), 2);
        assert_eq!(log.recovery_count(), 2, "each fault answered by a retry");
        assert!(sleeper.total_ns() > 0, "backoff charged to the virtual clock");
        fs::remove_dir_all(dir).ok();
    }
}
