//! The disk spill tier: checksummed scratch files in local tmp.
//!
//! When the [`crate::memory::MemoryManager`] cannot keep a cached
//! partition resident, the owning component encodes it to bytes and
//! parks it here. Files carry a
//! self-describing header (magic, payload length, FNV-1a checksum) so a
//! read-back is verified byte-identical to what was written — torn or
//! corrupted files surface as a typed [`SpillError`] instead of decoded
//! garbage. The store owns its directory and removes it on drop.
//!
//! Spilling requires a byte representation. The engine does not assume
//! serde: the [`Spillable`] trait is a minimal fixed-layout codec
//! (little-endian scalars, length-prefixed sequences) implemented for
//! the primitive types, tuples and `Vec`s that flow through the engine;
//! user types opt in by implementing it. Cache entries without a codec
//! fall back to eviction-with-lineage-recompute. Shuffle map outputs
//! never spill: they are force-charged and stay resident.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Marks the start of a spill file; guards against reading a foreign
/// file as a spill blob.
const MAGIC: u32 = 0x53504c31; // "SPL1"

/// FNV-1a 64-bit, the checksum of the payload bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Identifies one spilled blob in a [`SpillStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpillHandle {
    id: u64,
}

impl SpillHandle {
    /// The blob's id (stable for the life of the store).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// Why a spill operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpillError {
    /// The underlying file operation failed.
    Io(String),
    /// The handle does not name a live blob (already removed, or from
    /// another store).
    Missing {
        /// The offending handle id.
        id: u64,
    },
    /// Read-back did not verify: the header was malformed or the
    /// payload checksum disagreed with what was written.
    Corrupt {
        /// The corrupted blob's id.
        id: u64,
    },
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Io(m) => write!(f, "spill i/o error: {m}"),
            SpillError::Missing { id } => write!(f, "spill blob {id} is not in the store"),
            SpillError::Corrupt { id } => {
                write!(f, "spill blob {id} failed checksum verification on read-back")
            }
        }
    }
}

impl std::error::Error for SpillError {}

/// A directory of checksummed spill files, one per blob.
pub struct SpillStore {
    dir: PathBuf,
    next_id: AtomicU64,
    /// Live blobs: id -> (payload length, checksum). Read-back verifies
    /// against both the header and this table.
    live: Mutex<HashMap<u64, (u64, u64)>>,
}

static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

impl SpillStore {
    /// Create a store with a fresh private directory under the system
    /// temp dir.
    pub fn new() -> Result<Self, SpillError> {
        let dir = std::env::temp_dir().join(format!(
            "sparklet-spill-{}-{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&dir).map_err(|e| SpillError::Io(e.to_string()))?;
        Ok(SpillStore { dir, next_id: AtomicU64::new(0), live: Mutex::new(HashMap::new()) })
    }

    /// Number of live blobs.
    pub fn len(&self) -> usize {
        self.live.lock().len()
    }

    /// Whether the store holds no blobs.
    pub fn is_empty(&self) -> bool {
        self.live.lock().is_empty()
    }

    /// The on-disk path of a blob — exposed so tests and tools can
    /// inspect (or deliberately corrupt) spill files.
    pub fn path_of(&self, handle: SpillHandle) -> PathBuf {
        self.dir.join(format!("spill-{:08}.bin", handle.id))
    }

    /// Live handles, in id order — exposed so tests and tools can walk
    /// the store's contents.
    pub fn handles(&self) -> Vec<SpillHandle> {
        let mut ids: Vec<u64> = self.live.lock().keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter().map(|id| SpillHandle { id }).collect()
    }

    /// Write `payload` as a new checksummed blob.
    pub fn spill(&self, payload: &[u8]) -> Result<SpillHandle, SpillError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let handle = SpillHandle { id };
        let sum = fnv1a64(payload);
        let mut f =
            fs::File::create(self.path_of(handle)).map_err(|e| SpillError::Io(e.to_string()))?;
        f.write_all(&MAGIC.to_le_bytes()).map_err(|e| SpillError::Io(e.to_string()))?;
        f.write_all(&(payload.len() as u64).to_le_bytes())
            .map_err(|e| SpillError::Io(e.to_string()))?;
        f.write_all(&sum.to_le_bytes()).map_err(|e| SpillError::Io(e.to_string()))?;
        f.write_all(payload).map_err(|e| SpillError::Io(e.to_string()))?;
        self.live.lock().insert(id, (payload.len() as u64, sum));
        Ok(handle)
    }

    /// Read a blob back, verifying length and checksum. The blob stays
    /// in the store until [`SpillStore::remove`].
    pub fn read(&self, handle: SpillHandle) -> Result<Vec<u8>, SpillError> {
        let (len, sum) =
            *self.live.lock().get(&handle.id).ok_or(SpillError::Missing { id: handle.id })?;
        let mut f =
            fs::File::open(self.path_of(handle)).map_err(|e| SpillError::Io(e.to_string()))?;
        let mut header = [0u8; 20];
        f.read_exact(&mut header).map_err(|_| SpillError::Corrupt { id: handle.id })?;
        let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let hlen = u64::from_le_bytes(header[4..12].try_into().unwrap());
        let hsum = u64::from_le_bytes(header[12..20].try_into().unwrap());
        if magic != MAGIC || hlen != len || hsum != sum {
            return Err(SpillError::Corrupt { id: handle.id });
        }
        let mut payload = Vec::with_capacity(len as usize);
        f.read_to_end(&mut payload).map_err(|e| SpillError::Io(e.to_string()))?;
        if payload.len() as u64 != len || fnv1a64(&payload) != sum {
            return Err(SpillError::Corrupt { id: handle.id });
        }
        Ok(payload)
    }

    /// Delete a blob and its file. Missing handles are ignored (the
    /// caller may race with `kill_executor` cleanup).
    pub fn remove(&self, handle: SpillHandle) {
        if self.live.lock().remove(&handle.id).is_some() {
            let _ = fs::remove_file(self.path_of(handle));
        }
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

// ---- byte codec --------------------------------------------------------

/// A minimal fixed-layout byte codec: little-endian scalars,
/// length-prefixed sequences. `decode` is total — malformed input yields
/// `None`, never a panic — so spill corruption that slips past the
/// checksum still surfaces as a typed failure.
pub trait Spillable: Sized {
    /// Append this value's encoding to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);
    /// Decode one value from the front of `input`, advancing it.
    fn decode_from(input: &mut &[u8]) -> Option<Self>;
}

/// Encode a value to a standalone byte blob.
pub fn encode<T: Spillable>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode_into(&mut out);
    out
}

/// Decode a standalone blob produced by [`encode`]. Trailing bytes are
/// an error (the blob must round-trip exactly).
pub fn decode<T: Spillable>(mut input: &[u8]) -> Option<T> {
    let v = T::decode_from(&mut input)?;
    if input.is_empty() {
        Some(v)
    } else {
        None
    }
}

fn take<'a>(input: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if input.len() < n {
        return None;
    }
    let (head, tail) = input.split_at(n);
    *input = tail;
    Some(head)
}

macro_rules! spillable_le {
    ($($t:ty),*) => {$(
        impl Spillable for $t {
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode_from(input: &mut &[u8]) -> Option<Self> {
                let b = take(input, std::mem::size_of::<$t>())?;
                Some(<$t>::from_le_bytes(b.try_into().ok()?))
            }
        }
    )*};
}

spillable_le!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl Spillable for usize {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self as u64).encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        u64::decode_from(input).map(|v| v as usize)
    }
}

impl Spillable for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        match take(input, 1)?[0] {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Spillable for char {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self as u32).encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        char::from_u32(u32::decode_from(input)?)
    }
}

impl Spillable for () {
    fn encode_into(&self, _out: &mut Vec<u8>) {}
    fn decode_from(_input: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl Spillable for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_into(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        let len = u64::decode_from(input)? as usize;
        let b = take(input, len)?;
        String::from_utf8(b.to_vec()).ok()
    }
}

impl<T: Spillable> Spillable for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_into(out);
        for v in self {
            v.encode_into(out);
        }
    }
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        let len = u64::decode_from(input)? as usize;
        // cap the preallocation: a corrupted length must not OOM us
        let mut out = Vec::with_capacity(len.min(input.len()));
        for _ in 0..len {
            out.push(T::decode_from(input)?);
        }
        Some(out)
    }
}

impl<A: Spillable, B: Spillable> Spillable for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode_from(input)?, B::decode_from(input)?))
    }
}

impl<A: Spillable, B: Spillable, C: Spillable> Spillable for (A, B, C) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
        self.2.encode_into(out);
    }
    fn decode_from(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode_from(input)?, B::decode_from(input)?, C::decode_from(input)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spill_read_back_is_byte_identical() {
        let store = SpillStore::new().unwrap();
        let payload: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let h = store.spill(&payload).unwrap();
        assert_eq!(store.read(h).unwrap(), payload);
        // repeatable: the blob stays until removed
        assert_eq!(store.read(h).unwrap(), payload);
        store.remove(h);
        assert!(matches!(store.read(h), Err(SpillError::Missing { .. })));
        assert!(store.is_empty());
    }

    #[test]
    fn corrupted_payload_is_a_typed_error() {
        let store = SpillStore::new().unwrap();
        let h = store.spill(&[7u8; 256]).unwrap();
        let path = store.path_of(h);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff; // flip one payload byte
        fs::write(&path, bytes).unwrap();
        assert_eq!(store.read(h), Err(SpillError::Corrupt { id: h.id() }));
    }

    #[test]
    fn truncated_file_is_a_typed_error() {
        let store = SpillStore::new().unwrap();
        let h = store.spill(&[1u8; 512]).unwrap();
        let path = store.path_of(h);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..40]).unwrap();
        assert!(matches!(store.read(h), Err(SpillError::Corrupt { .. })));
    }

    #[test]
    fn zero_length_blob_round_trips() {
        // an empty partition is a legal spill: header-only file, zero
        // checksum, read-back yields an empty vec — not an error
        let store = SpillStore::new().unwrap();
        let h = store.spill(&[]).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.read(h).unwrap(), Vec::<u8>::new());
        // the file really is just the fixed header on disk
        let on_disk = fs::metadata(store.path_of(h)).unwrap().len();
        assert_eq!(on_disk, 4 + 8 + 8, "header-only file: magic + len + checksum");
        store.remove(h);
        assert!(store.is_empty());
    }

    #[test]
    fn read_after_remove_race_is_missing_not_corrupt() {
        // `remove` is how kill_executor cleans up; a stale reader racing
        // it must see a typed Missing error, never Corrupt or a panic,
        // and removing twice is fine (the second caller lost the race)
        let store = SpillStore::new().unwrap();
        let h = store.spill(&[9u8; 64]).unwrap();
        store.remove(h);
        assert_eq!(store.read(h), Err(SpillError::Missing { id: h.id() }));
        store.remove(h); // idempotent
        assert!(store.is_empty());
    }

    #[test]
    fn concurrent_spill_and_read_from_two_threads() {
        // one worker spills while another reads back already-spilled
        // handles: every read must be byte-identical, ids must never
        // collide, and the live table must end consistent
        let store = SpillStore::new().unwrap();
        let payload =
            |i: u32| -> Vec<u8> { (0..200u32).flat_map(|j| (i ^ j).to_le_bytes()).collect() };
        const N: u32 = 64;
        let (tx, rx) = std::sync::mpsc::channel::<(u32, SpillHandle)>();
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..N {
                    let h = store.spill(&payload(i)).unwrap();
                    tx.send((i, h)).unwrap();
                }
                drop(tx);
            });
            s.spawn(|| {
                let mut seen = std::collections::HashSet::new();
                for (i, h) in rx {
                    assert!(seen.insert(h.id()), "spill ids must be unique");
                    // interleave two reads per handle to widen the race window
                    assert_eq!(store.read(h).unwrap(), payload(i));
                    assert_eq!(store.read(h).unwrap(), payload(i));
                }
                assert_eq!(seen.len(), N as usize);
            });
        });
        assert_eq!(store.len(), N as usize);
        for h in store.handles() {
            store.remove(h);
        }
        assert!(store.is_empty());
    }

    #[test]
    fn codec_round_trips_and_rejects_malformed_input() {
        let v: Vec<(u32, Vec<u64>)> = vec![(1, vec![2, 3]), (4, vec![]), (5, vec![u64::MAX])];
        let bytes = encode(&v);
        assert_eq!(decode::<Vec<(u32, Vec<u64>)>>(&bytes).unwrap(), v);
        // truncation, trailing garbage, and wrong-type decode all fail
        assert!(decode::<Vec<(u32, Vec<u64>)>>(&bytes[..bytes.len() - 1]).is_none());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode::<Vec<(u32, Vec<u64>)>>(&extra).is_none());
        let s = encode(&String::from("héllo"));
        assert_eq!(decode::<String>(&s).unwrap(), "héllo");
    }
}
