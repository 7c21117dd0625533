//! Parameter persistence helpers shared by the checkpoint container
//! ([`crate::checkpoint`]): a bounds-checked byte cursor, the tensor and
//! parameter-section encodings, and atomic writes. The container itself —
//! magic, version, checksum — is defined only in [`crate::checkpoint`].
//!
//! All loading is defensive: every length field is validated against hard
//! caps *and* against the bytes actually remaining in the file before any
//! allocation, so corrupted or hostile files fail with a typed
//! [`io::Error`] instead of panicking or attempting a huge allocation.
//! Writes are atomic (temp file + fsync + rename) so a crash mid-save can
//! never leave a truncated file at the destination path.

use crate::params::ParamStore;
use std::io;
use std::path::Path;
use sthsl_chaos::Io;
use sthsl_tensor::Tensor;

/// Hard cap on serialized parameter-name length.
pub(crate) const MAX_NAME_LEN: usize = 1 << 12;
/// Hard cap on serialized tensor rank.
pub(crate) const MAX_RANK: usize = 16;
/// Hard cap on serialized tensor element count.
pub(crate) const MAX_ELEMS: usize = 1 << 30;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Prefix `err` with the offending path, preserving its [`io::ErrorKind`] so
/// callers can still dispatch on corruption vs. absence vs. transience.
///
/// *Retryable* errors (a transient EIO, an interrupted syscall) pass
/// through untouched: `io::Error::new` would silently drop the raw OS code
/// that [`sthsl_chaos::retry::is_retryable`] dispatches on, turning a
/// transient fault into a fatal one. Everything else — absence, corruption,
/// permissions — keeps the path prefix.
pub(crate) fn with_path(path: &Path, err: io::Error) -> io::Error {
    if sthsl_chaos::retry::is_retryable(&err) {
        return err;
    }
    let kind = err.kind();
    io::Error::new(kind, format!("{}: {err}", path.display()))
}

/// Bounds-checked little-endian cursor over an in-memory file image.
///
/// Every read checks the remaining byte count first, so parsing code can
/// never run past the end of a truncated file.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume exactly `n` bytes or fail with a truncation error.
    pub(crate) fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(bad(format!(
                "truncated file: {what} needs {n} bytes but only {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consume exactly `N` bytes as a fixed-size array. `take` already
    /// guarantees the length, so the conversion failing would mean a cursor
    /// bug; it is still reported as an error rather than a panic so a load
    /// can never abort a training process.
    pub(crate) fn array<const N: usize>(&mut self, what: &str) -> io::Result<[u8; N]> {
        self.take(N, what)?
            .try_into()
            .map_err(|_| bad(format!("internal: {what} cursor returned a mis-sized slice")))
    }

    pub(crate) fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn u64(&mut self, what: &str) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn f32(&mut self, what: &str) -> io::Result<f32> {
        Ok(f32::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn f64(&mut self, what: &str) -> io::Result<f64> {
        Ok(f64::from_le_bytes(self.array(what)?))
    }

    /// A `u64` length field validated against a cap and the remaining bytes
    /// (at `min_bytes_per_item` each) *before* anything is allocated.
    pub(crate) fn checked_len(
        &mut self,
        cap: usize,
        min_bytes_per_item: usize,
        what: &str,
    ) -> io::Result<usize> {
        let n = self.u64(what)?;
        if n > cap as u64 {
            return Err(bad(format!("implausible {what}: {n} exceeds cap {cap}")));
        }
        let n = n as usize;
        if n.saturating_mul(min_bytes_per_item) > self.remaining() {
            return Err(bad(format!(
                "truncated file: {what} {n} implies more bytes than the {} remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Fail if any unconsumed bytes remain.
    pub(crate) fn finish(&self) -> io::Result<()> {
        if self.remaining() != 0 {
            return Err(bad(format!("{} trailing bytes after end of data", self.remaining())));
        }
        Ok(())
    }
}

/// Append one tensor (rank, dims, f32 data) to `out`.
pub(crate) fn write_tensor(out: &mut Vec<u8>, t: &Tensor) {
    out.extend_from_slice(&(t.ndim() as u64).to_le_bytes());
    for &d in t.shape() {
        out.extend_from_slice(&(d as u64).to_le_bytes());
    }
    for &v in t.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Parse one tensor written by [`write_tensor`], validating rank, dims and
/// element count against caps and remaining file size before allocating.
pub(crate) fn read_tensor(r: &mut ByteReader) -> io::Result<Tensor> {
    let rank = r.checked_len(MAX_RANK, 8, "tensor rank")?;
    let mut shape = Vec::with_capacity(rank);
    let mut elems: usize = 1;
    for i in 0..rank {
        let d = r.u64(&format!("tensor dim {i}"))? as usize;
        elems = elems
            .checked_mul(d)
            .filter(|&e| e <= MAX_ELEMS)
            .ok_or_else(|| bad("implausible tensor size: element count overflows cap"))?;
        shape.push(d);
    }
    if elems.saturating_mul(4) > r.remaining() {
        return Err(bad(format!(
            "truncated file: tensor of {elems} elements exceeds the {} bytes remaining",
            r.remaining()
        )));
    }
    let raw = r.take(elems * 4, "tensor data")?;
    // `chunks_exact(4)` yields only complete chunks, so indexing is total.
    let data: Vec<f32> =
        raw.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect();
    Tensor::from_vec(data, &shape).map_err(|e| bad(e.to_string()))
}

/// Append every parameter (count, then name/shape/data records) to `out`.
pub(crate) fn write_params(out: &mut Vec<u8>, store: &ParamStore) {
    out.extend_from_slice(&(store.len() as u64).to_le_bytes());
    for id in store.ids() {
        let name = store.name(id).as_bytes();
        out.extend_from_slice(&(name.len() as u64).to_le_bytes());
        out.extend_from_slice(name);
        write_tensor(out, store.get(id));
    }
}

/// Parse a parameter section written by [`write_params`].
pub(crate) fn read_params(r: &mut ByteReader) -> io::Result<ParamStore> {
    // Each param record is at least 16 bytes (name len + rank fields).
    let count = r.checked_len(usize::MAX / 16, 16, "parameter count")?;
    let mut store = ParamStore::new();
    for _ in 0..count {
        let name_len = r.checked_len(MAX_NAME_LEN, 1, "parameter name length")?;
        let name = std::str::from_utf8(r.take(name_len, "parameter name")?)
            .map_err(|e| bad(format!("parameter name is not UTF-8: {e}")))?
            .to_string();
        let tensor = read_tensor(r)?;
        store.register(name, tensor);
    }
    Ok(store)
}

/// 64-bit FNV-1a hash, used as the checkpoint integrity checksum. The
/// canonical implementation lives in `sthsl-chaos` so that integrity
/// verification and fault injection agree on the function.
pub(crate) use sthsl_chaos::fnv1a;

/// Write `bytes` to `path` atomically through the injectable I/O seam: a
/// unique temp file in the same directory is written + fsynced, then renamed
/// over the destination, so the destination is always either the old
/// complete file or the new complete file — never a torn write. On failure
/// the temp file is removed (best-effort); a crash between write and cleanup
/// leaves a stale `.{name}.tmp-{pid}` file that
/// [`crate::checkpoint::sweep_stale_tmp`] reclaims.
pub(crate) fn atomic_write_io(io: &dyn Io, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| bad("atomic_write: path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let tmp = match dir {
        Some(d) => d.join(format!(".{file_name}.tmp-{}", std::process::id())),
        None => Path::new(&format!(".{file_name}.tmp-{}", std::process::id())).to_path_buf(),
    };
    let result = (|| {
        io.write(&tmp, bytes)?;
        io.rename(&tmp, path)?;
        // Persist the rename itself; not all filesystems support opening a
        // directory for sync, so failure here is not fatal.
        if let Some(d) = dir {
            let _ = io.fsync_dir(d);
        }
        Ok(())
    })();
    if result.is_err() {
        io.remove_file(&tmp).ok();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sthsl_test_{}_{name}", std::process::id()));
        p
    }

    #[test]
    fn atomic_write_replaces_or_preserves() {
        let path = tmp("atomic.bin");
        let io = sthsl_chaos::RealIo;
        atomic_write_io(&io, &path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write_io(&io, &path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn with_path_preserves_retryable_errors() {
        // Regression: decorating an EIO with the path used to erase its raw
        // OS code, which made retry policies treat a transient fault as
        // fatal (the serve checkpoint-load path then skipped a perfectly
        // good checkpoint).
        let transient = io::Error::from_raw_os_error(5); // EIO
        let wrapped = with_path(Path::new("/tmp/x"), transient);
        assert_eq!(wrapped.raw_os_error(), Some(5));
        assert!(sthsl_chaos::retry::is_retryable(&wrapped));

        // Non-retryable errors still gain the path prefix and keep their
        // kind: absence...
        let missing = io::Error::from_raw_os_error(2); // ENOENT
        let wrapped = with_path(Path::new("/tmp/x"), missing);
        assert_eq!(wrapped.kind(), io::ErrorKind::NotFound);
        assert!(wrapped.to_string().contains("/tmp/x"));

        // ...and corruption.
        let parse = io::Error::new(io::ErrorKind::InvalidData, "bad magic");
        let wrapped = with_path(Path::new("/tmp/x"), parse);
        assert_eq!(wrapped.kind(), io::ErrorKind::InvalidData);
        assert!(wrapped.to_string().contains("/tmp/x"));
        assert!(wrapped.raw_os_error().is_none());
    }
}
