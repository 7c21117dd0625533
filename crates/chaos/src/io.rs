//! The injectable filesystem seam.
//!
//! Every filesystem touch made by the checkpoint, data-loading and trace
//! paths goes through [`Io`]. Healthy runs use [`RealIo`], a zero-cost
//! forwarder to `std::fs`; tests wrap it in
//! [`FaultyIo`](crate::fault::FaultyIo) to inject seeded faults.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

use crate::log::ChaosLog;

/// Classes of filesystem operation, used by
/// [`FaultRule`](crate::fault::FaultRule) to target faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Whole-file read ([`Io::read`]).
    Read,
    /// Whole-file write ([`Io::write`]).
    Write,
    /// Durability barrier ([`Io::fsync` semantics inside `write`] and
    /// [`Io::fsync_dir`]).
    Fsync,
    /// Atomic rename ([`Io::rename`]).
    Rename,
    /// File removal ([`Io::remove_file`]).
    Remove,
    /// Directory creation ([`Io::create_dir_all`]).
    CreateDir,
    /// Directory listing ([`Io::list_dir`]).
    ListDir,
    /// Incremental stream writes ([`Io::open_writer`]), e.g. JSONL traces.
    StreamWrite,
}

impl OpClass {
    /// Stable lowercase name, used in chaos/trace events.
    pub fn as_str(self) -> &'static str {
        match self {
            OpClass::Read => "read",
            OpClass::Write => "write",
            OpClass::Fsync => "fsync",
            OpClass::Rename => "rename",
            OpClass::Remove => "remove",
            OpClass::CreateDir => "create_dir",
            OpClass::ListDir => "list_dir",
            OpClass::StreamWrite => "stream_write",
        }
    }
}

/// The filesystem seam. Implementations must be durable in the same sense as
/// the `std::fs` calls they mirror: [`Io::write`] includes an fsync of the
/// file itself, so a successful return means the bytes are on stable storage
/// (modulo the parent-directory entry, covered by [`Io::fsync_dir`]).
pub trait Io {
    /// Read the entire file at `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Create/truncate `path`, write all of `bytes`, then fsync the file.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Fsync the directory entry for `dir` (best-effort on platforms where
    /// directories cannot be opened for sync).
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Atomically rename `from` to `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Remove the file at `path`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Create `dir` and any missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;

    /// List the entries of `dir` as full paths, sorted by file name so that
    /// downstream iteration order is deterministic across platforms.
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Whether a filesystem object exists at `path`.
    fn exists(&self, path: &Path) -> bool;

    /// Create or truncate `path` for buffered stream writes. Used by
    /// long-lived sinks such as the JSONL trace emitter.
    fn open_writer(&self, path: &Path) -> io::Result<Box<dyn Write>>;

    /// The chaos log attached to this seam, if any. [`RealIo`] has none;
    /// [`FaultyIo`](crate::fault::FaultyIo) exposes its shared log so that
    /// recovery code can record the actions it takes alongside the faults
    /// that triggered them.
    fn chaos_log(&self) -> Option<&ChaosLog> {
        None
    }
}

/// Forwards every operation to `std::fs`. The production seam.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl Io for RealIo {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory sync is best-effort: some platforms refuse to open
        // directories for writing/sync, which is not a durability bug we can
        // act on here.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        fs::create_dir_all(dir)
    }

    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            out.push(entry?.path());
        }
        out.sort();
        Ok(out)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn open_writer(&self, path: &Path) -> io::Result<Box<dyn Write>> {
        Ok(Box::new(BufWriter::new(File::create(path)?)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("sthsl-chaos-io-{tag}-{}", std::process::id()));
        fs::create_dir_all(&d).expect("create tmp dir");
        d
    }

    #[test]
    fn real_io_roundtrip_and_listing() {
        let dir = tmp_dir("roundtrip");
        let io = RealIo;
        let a = dir.join("a.bin");
        let b = dir.join("b.bin");
        io.write(&a, b"hello").expect("write");
        assert_eq!(io.read(&a).expect("read"), b"hello");
        io.rename(&a, &b).expect("rename");
        assert!(!io.exists(&a));
        assert!(io.exists(&b));
        let listed = io.list_dir(&dir).expect("list");
        assert!(listed.contains(&b));
        io.remove_file(&b).expect("remove");
        assert!(!io.exists(&b));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn real_io_stream_writer_truncates() {
        let dir = tmp_dir("stream");
        let io = RealIo;
        let p = dir.join("log.jsonl");
        {
            let mut w = io.open_writer(&p).expect("open");
            w.write_all(b"one\n").expect("w1");
        }
        {
            let mut w = io.open_writer(&p).expect("reopen");
            w.write_all(b"two\n").expect("w2");
            w.flush().expect("flush");
        }
        assert_eq!(io.read(&p).expect("read"), b"two\n");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn real_io_has_no_chaos_log() {
        assert!(RealIo.chaos_log().is_none());
    }

    #[test]
    fn op_class_names_are_stable() {
        let all = [
            OpClass::Read,
            OpClass::Write,
            OpClass::Fsync,
            OpClass::Rename,
            OpClass::Remove,
            OpClass::CreateDir,
            OpClass::ListDir,
            OpClass::StreamWrite,
        ];
        let names: Vec<&str> = all.iter().map(|o| o.as_str()).collect();
        assert_eq!(
            names,
            [
                "read",
                "write",
                "fsync",
                "rename",
                "remove",
                "create_dir",
                "list_dir",
                "stream_write"
            ]
        );
    }
}
