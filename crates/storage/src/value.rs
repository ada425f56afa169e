//! [`ValueBuf`] — the one value type every tier of the data plane shares.
//!
//! A cached object travels a long way: PFS → server NVMe → wire frame →
//! client → caller, plus the replica and recache pushes. Every API that
//! hands value bytes to a caller speaks this one type. `ValueBuf` is an
//! immutable `Arc<[u8]>` with an offset/len window, so:
//!
//! * **clone is a refcount bump** — handing a value to the reply path,
//!   the NVMe insert, the replicator and the hint store are four clones
//!   of one allocation, not four copies;
//! * **views are free** — the wire codec exposes a value decoded from
//!   the middle of a frame body as a window into the frame's own
//!   allocation, and `HvacClient::read` returns that window as it is, so
//!   a served read copies no value bytes between the socket and the
//!   caller.
//!
//! ## Ownership rules
//!
//! The backing allocation is immutable from construction; a `ValueBuf`
//! never exposes `&mut [u8]`. Narrowing ([`ValueBuf::slice`]) produces a
//! new window over the *same* backing — the allocation lives until the
//! last window drops. Holding a tiny view of a huge frame body pins the
//! whole frame; callers that outlive the request (e.g. long-lived cache
//! residency) get a compact private copy via [`ValueBuf::detach`] when
//! the window covers less than the whole backing.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply cloneable value buffer: a shared allocation
/// plus an offset/len window into it.
#[derive(Clone)]
pub struct ValueBuf {
    data: Arc<[u8]>,
    off: usize,
    len: usize,
}

impl ValueBuf {
    /// An empty value.
    pub fn new() -> Self {
        ValueBuf {
            data: Arc::from(&[][..]),
            off: 0,
            len: 0,
        }
    }

    /// Copy `data` into a fresh allocation.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        let data: Arc<[u8]> = Arc::from(data);
        let len = data.len();
        ValueBuf { data, off: 0, len }
    }

    /// A window over an existing shared allocation — the zero-copy
    /// constructor the wire codec uses to expose a value inside a frame
    /// body.
    ///
    /// # Panics
    ///
    /// Panics when `off + len` overruns `data` — a window must never
    /// read outside its backing.
    pub fn from_shared(data: Arc<[u8]>, off: usize, len: usize) -> Self {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= data.len()),
            "ValueBuf window {off}+{len} overruns backing of {}",
            data.len()
        );
        ValueBuf { data, off, len }
    }

    /// Length of the window in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the window holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The window's bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }

    /// Copy the window out to an owned `Vec<u8>`.
    ///
    /// This is the escape hatch for callers that genuinely need owned,
    /// growable bytes; the serving path never calls it.
    pub fn to_vec(&self) -> Vec<u8> {
        // lint:allow(hot-path-alloc): the copy IS the contract here
        self.as_slice().to_vec()
    }

    /// A sub-window (relative to this window) over the same backing; no
    /// bytes are copied.
    ///
    /// # Panics
    ///
    /// Panics when the range overruns this window.
    pub fn slice(&self, off: usize, len: usize) -> Self {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "slice {off}+{len} overruns window of {}",
            self.len
        );
        ValueBuf {
            data: Arc::clone(&self.data),
            off: self.off + off,
            len,
        }
    }

    /// True when the window spans its whole backing allocation (so
    /// [`detach`](Self::detach) is free).
    pub fn is_full_window(&self) -> bool {
        self.off == 0 && self.len == self.data.len()
    }

    /// Drop any excess backing: a full window is returned as-is; a
    /// partial window is copied into a right-sized private allocation so
    /// it stops pinning the rest of the original buffer.
    pub fn detach(self) -> Self {
        if self.is_full_window() {
            self
        } else {
            // lint:allow(hot-path-alloc): the right-sizing copy is the
            // point — it unpins the rest of the original backing.
            ValueBuf::copy_from_slice(self.as_slice())
        }
    }

    /// True when `self` and `other` are windows over the same backing
    /// allocation (diagnostics and tests).
    pub fn shares_backing_with(&self, other: &ValueBuf) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

impl Default for ValueBuf {
    fn default() -> Self {
        ValueBuf::new()
    }
}

impl Deref for ValueBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for ValueBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for ValueBuf {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for ValueBuf {
    fn from(v: Vec<u8>) -> Self {
        let data: Arc<[u8]> = Arc::from(v);
        let len = data.len();
        ValueBuf { data, off: 0, len }
    }
}

impl From<&[u8]> for ValueBuf {
    fn from(v: &[u8]) -> Self {
        // lint:allow(hot-path-alloc): a borrowed slice has no backing
        // Arc to share; entering ValueBuf from &[u8] must copy once.
        ValueBuf::copy_from_slice(v)
    }
}

impl fmt::Debug for ValueBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v\"")?;
        for &b in self.as_slice().iter().take(64) {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        if self.len() > 64 {
            write!(f, "…({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

impl PartialEq for ValueBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for ValueBuf {}

impl PartialEq<[u8]> for ValueBuf {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for ValueBuf {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for ValueBuf {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialOrd for ValueBuf {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ValueBuf {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Hash for ValueBuf {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_equality() {
        let a = ValueBuf::from(vec![1, 2, 3]);
        let b = ValueBuf::copy_from_slice(&[1, 2, 3]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert_eq!(&a[..], &[1, 2, 3]);
        assert!(ValueBuf::new().is_empty());
        assert_eq!(a, vec![1u8, 2, 3]);
    }

    #[test]
    fn clone_and_slice_share_the_backing() {
        let v = ValueBuf::from(vec![0u8, 1, 2, 3, 4, 5, 6, 7]);
        let c = v.clone();
        assert!(v.shares_backing_with(&c));
        let mid = v.slice(2, 4);
        assert!(v.shares_backing_with(&mid));
        assert_eq!(&mid[..], &[2, 3, 4, 5]);
        assert!(!mid.is_full_window());
        let inner = mid.slice(1, 2);
        assert_eq!(&inner[..], &[3, 4]);
    }

    #[test]
    fn partial_window_detaches_by_copying() {
        let v = ValueBuf::from(vec![0u8, 1, 2, 3]).slice(1, 2);
        let d = v.clone().detach();
        assert_eq!(d, v);
        assert!(d.is_full_window());
        assert!(!d.shares_backing_with(&v));
        // A full window detaches for free.
        let f = ValueBuf::from(vec![5u8; 4]);
        let fd = f.clone().detach();
        assert!(fd.shares_backing_with(&f));
    }

    #[test]
    #[should_panic(expected = "overruns")]
    fn overrunning_window_panics() {
        let v = ValueBuf::from(vec![0u8; 4]);
        let _ = v.slice(2, 3);
    }

    #[test]
    fn from_shared_window() {
        let arc: Arc<[u8]> = Arc::from(vec![10u8, 11, 12, 13]);
        let v = ValueBuf::from_shared(Arc::clone(&arc), 1, 2);
        assert_eq!(&v[..], &[11, 12]);
        assert_eq!(v.to_vec(), vec![11, 12]);
    }
}
