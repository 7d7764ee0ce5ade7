//! A minimal read-only memory map over raw libc syscalls.
//!
//! The workspace is hermetic (no crates-io dependencies), so this binds
//! `mmap`/`munmap` directly from the already-linked libc instead of pulling
//! in a wrapper crate. Only what [`crate::file::NorcFile`] needs is
//! implemented: map a whole file `PROT_READ | MAP_PRIVATE`, expose it as
//! `&[u8]`, unmap on drop.
//!
//! # Safety argument (why `&[u8]` over a mapping is sound here)
//!
//! A mapped file that shrinks underneath the mapping turns page access into
//! `SIGBUS`, and one that is rewritten in place changes bytes behind safe
//! references. Norc part files are protected from both by the warehouse's
//! append-only invariant — tables grow by adding whole new files; an
//! existing part file is never rewritten or truncated (the same invariant
//! [`crate::metacache`] relies on to cache parsed footers, re-validated by
//! `(len, mtime)` there). The full-file checksum is still verified against
//! the mapped bytes at open, so a file damaged *before* open is rejected
//! exactly like on the `fs::read` path; external interference *after* open
//! is outside the storage contract on either path (with `read` it yields
//! stale bytes, with mmap it may fault). `MAXSON_MMAP=0` opts a session out:
//! its footer cache copies files instead, and every scan the session runs —
//! through a Maxson or LRU rewriter opened from it too — reads through that
//! cache. A catalog opened on its own with `Catalog::open` (loaders, tools,
//! tests) still maps.

use std::fs::File;
use std::io;

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    // Stable across Linux and the BSDs/macOS for these two values.
    pub const PROT_READ: c_int = 0x1;
    pub const MAP_PRIVATE: c_int = 0x02;

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

/// A read-only, private, whole-file memory mapping.
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never handed out
// mutably; sharing read-only pages across threads is sound.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map all of `file` read-only. Fails with the OS error when the kernel
    /// refuses (callers fall back to `fs::read`).
    #[cfg(unix)]
    pub fn map(file: &File) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            // mmap(len = 0) is EINVAL; an empty mapping never dereferences.
            return Ok(Mmap {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
            });
        }
        // SAFETY: fd is a valid open file descriptor borrowed from `file`,
        // length matches the file, and the result is checked against
        // MAP_FAILED before use.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: ptr as *const u8,
            len,
        })
    }

    /// The mapped bytes.
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr` is a live PROT_READ mapping of `len` bytes (or a
        // dangling pointer with len 0, for which from_raw_parts is fine).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the mapping is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.len > 0 {
            // SAFETY: `ptr`/`len` describe exactly the mapping created in
            // `map`; after munmap nothing touches it (we are in drop).
            unsafe {
                sys::munmap(self.ptr as *mut _, self.len);
            }
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::Write;

    fn temp_file(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("maxson-mmap-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.bin", std::process::id()));
        let mut f = File::create(&p).unwrap();
        f.write_all(contents).unwrap();
        p
    }

    #[test]
    fn maps_whole_file() {
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let path = temp_file("whole", &payload);
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert_eq!(&*map, &payload[..]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_file_maps_empty() {
        let path = temp_file("empty", b"");
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert!(map.is_empty());
        assert_eq!(&*map, b"");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn partial_page_tail_is_readable() {
        // A length deliberately not a multiple of any page size: the tail
        // past EOF within the last page must read as written bytes up to
        // len and never be exposed beyond it.
        let payload = vec![0xA7u8; 4096 + 123];
        let path = temp_file("partial", &payload);
        let map = Mmap::map(&File::open(&path).unwrap()).unwrap();
        assert_eq!(map.len(), payload.len());
        assert_eq!(&*map, &payload[..]);
        std::fs::remove_file(&path).ok();
    }
}
