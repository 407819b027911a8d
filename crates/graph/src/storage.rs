//! Backing storage for the graph's columnar `u32` arrays: either an
//! owned heap buffer or a borrowed window of a memory-mapped snapshot
//! file.
//!
//! The CSR arrays of [`crate::Graph`] never care where their words
//! live; [`Storage`] hides the difference behind a cached
//! pointer/length pair so the hot accessors compile to a plain slice
//! construction with no per-call branching on the backing variant.
//!
//! The mmap wrapper uses raw `mmap(2)`/`munmap(2)` FFI (no crates.io
//! dependency) and is compiled on Unix only; other platforms fall back
//! to owned buffers at load time.

// L006: no narrowing casts in the snapshot codec; convert with
// `try_from`/`try_into` and report a typed error instead.
#![deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

use std::fmt;
use std::sync::Arc;

/// A read-only memory mapping of an entire file.
///
/// The mapping is private (`MAP_PRIVATE`) and read-only (`PROT_READ`);
/// it is unmapped on drop. Graphs loaded zero-copy hold an
/// `Arc<MmapFile>` so the mapping outlives every slice carved from it.
///
/// The snapshot file must not be truncated while mapped (the OS would
/// deliver `SIGBUS` on access past the new end); replacing a snapshot
/// atomically via rename is safe — the mapping pins the old inode.
pub(crate) struct MmapFile {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is immutable (PROT_READ) for its whole lifetime,
// so moving ownership to another thread is sound.
unsafe impl Send for MmapFile {}
// SAFETY: same invariant — a PROT_READ mapping never changes, so
// concurrent shared reads from any thread are sound.
unsafe impl Sync for MmapFile {}

impl fmt::Debug for MmapFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MmapFile").field("len", &self.len).finish()
    }
}

#[cfg(unix)]
mod ffi {
    //! Minimal hand-declared bindings for the two syscalls we need.
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl MmapFile {
    /// Maps `file` read-only in its entirety. Returns `None` for an
    /// empty file (zero-length mappings are invalid) and on non-Unix
    /// platforms, letting callers fall back to an owned read.
    #[cfg(unix)]
    pub(crate) fn map(file: &std::fs::File) -> std::io::Result<Option<Arc<MmapFile>>> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        let Ok(len) = usize::try_from(len) else {
            return Ok(None);
        };
        if len == 0 {
            return Ok(None);
        }
        // SAFETY: fd is a valid open file descriptor; we request a
        // fresh read-only private mapping of `len` bytes at a
        // kernel-chosen address.
        let ptr = unsafe {
            ffi::mmap(
                std::ptr::null_mut(),
                len,
                ffi::PROT_READ,
                ffi::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Some(Arc::new(MmapFile {
            ptr: ptr as *const u8,
            len,
        })))
    }

    #[cfg(not(unix))]
    pub(crate) fn map(_file: &std::fs::File) -> std::io::Result<Option<Arc<MmapFile>>> {
        Ok(None)
    }

    /// The mapped file contents.
    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: ptr/len describe the live mapping created in `map`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for MmapFile {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: ptr/len came from a successful mmap and are unmapped
        // exactly once.
        unsafe {
            ffi::munmap(self.ptr as *mut std::os::raw::c_void, self.len);
        }
    }
}

/// One columnar `u32` array of a [`crate::Graph`]: an owned buffer, or
/// a 4-byte-aligned window of a shared [`MmapFile`].
///
/// The pointer/length pair is cached at construction so [`as_slice`]
/// (every graph accessor's first step) is branch-free regardless of
/// the backing.
///
/// [`as_slice`]: Storage::as_slice
pub(crate) struct Storage {
    ptr: *const u32,
    len: usize,
    backing: Backing,
}

enum Backing {
    Owned(Vec<u32>),
    Mapped(Arc<MmapFile>),
}

// SAFETY: the referenced words are immutable for the lifetime of the
// backing (owned Vec never mutated after construction; mapping is
// PROT_READ), and the backing moves together with the pointer, so
// sending Storage to another thread is sound.
unsafe impl Send for Storage {}
// SAFETY: same invariant — the words never change after construction,
// so Storage shared across threads is as safe as a `&[u32]`.
unsafe impl Sync for Storage {}

impl Storage {
    /// Wraps an owned buffer.
    pub(crate) fn from_vec(v: Vec<u32>) -> Storage {
        Storage {
            ptr: v.as_ptr(),
            len: v.len(),
            backing: Backing::Owned(v),
        }
    }

    /// Borrows `len_u32` words starting `byte_offset` bytes into the
    /// mapping. Returns `None` (callers fall back to an owned copy)
    /// if the window is out of bounds or not 4-byte aligned — a
    /// well-formed CSR snapshot is always aligned, but the layout
    /// must never be trusted blindly.
    pub(crate) fn from_mapping(
        map: &Arc<MmapFile>,
        byte_offset: usize,
        len_u32: usize,
    ) -> Option<Storage> {
        let bytes = map.bytes();
        let end = byte_offset.checked_add(len_u32.checked_mul(4)?)?;
        if end > bytes.len() {
            return None;
        }
        let ptr = bytes[byte_offset..].as_ptr();
        if ptr.align_offset(std::mem::align_of::<u32>()) != 0 {
            return None;
        }
        Some(Storage {
            ptr: ptr as *const u32,
            len: len_u32,
            backing: Backing::Mapped(Arc::clone(map)),
        })
    }

    /// The words as a slice.
    #[inline(always)]
    pub(crate) fn as_slice(&self) -> &[u32] {
        // SAFETY: ptr/len were validated at construction and the
        // backing (owned Vec or Arc'd mapping) is alive as long as
        // `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// True if the words live in a mapped snapshot file rather than
    /// owned memory.
    pub(crate) fn is_mapped(&self) -> bool {
        matches!(self.backing, Backing::Mapped(_))
    }
}

impl Clone for Storage {
    fn clone(&self) -> Storage {
        match &self.backing {
            Backing::Owned(v) => Storage::from_vec(v.clone()),
            Backing::Mapped(m) => Storage {
                ptr: self.ptr,
                len: self.len,
                backing: Backing::Mapped(Arc::clone(m)),
            },
        }
    }
}

impl fmt::Debug for Storage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.backing {
            Backing::Owned(_) => "owned",
            Backing::Mapped(_) => "mapped",
        };
        write!(f, "Storage({kind}, {} words)", self.len)
    }
}

impl PartialEq for Storage {
    fn eq(&self, other: &Storage) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_roundtrip_and_clone() {
        let s = Storage::from_vec(vec![1, 2, 3]);
        assert_eq!(s.as_slice(), &[1, 2, 3]);
        let c = s.clone();
        assert_eq!(c.as_slice(), &[1, 2, 3]);
        assert!(!s.is_mapped());
    }

    #[cfg(unix)]
    // Miri cannot call the mmap FFI.
    #[cfg(not(miri))]
    #[test]
    fn mapping_windows_and_bounds() {
        let mut path = std::env::temp_dir();
        path.push(format!("cs-storage-test-{}", std::process::id()));
        let words: Vec<u8> = [1u32, 2, 3, 4]
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        std::fs::write(&path, &words).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let map = MmapFile::map(&file).unwrap().expect("non-empty mapping");
        std::fs::remove_file(&path).ok();

        let s = Storage::from_mapping(&map, 4, 2).unwrap();
        assert_eq!(s.as_slice(), &[2, 3]);
        assert!(s.is_mapped());
        assert_eq!(s.clone().as_slice(), &[2, 3]);
        // Out of bounds and misaligned windows are refused.
        assert!(Storage::from_mapping(&map, 0, 5).is_none());
        assert!(Storage::from_mapping(&map, 1, 1).is_none());
    }
}
