//! The checksummed frame of the binary file family — STBS whole traces and
//! capture segments ([`crate::stream`]), the campaign cache's entries
//! among them — and the integer codec inside it.
//!
//! ```text
//! magic[4] · version u32 LE · payload · FNV-1a u64 LE
//! ```
//!
//! The header and the trailing checksum (over everything before it) are
//! fixed-width in every version, so one header read decides how the payload
//! is laid out:
//!
//! * **v1** — every payload integer little-endian at its full width.
//! * **v2** — every payload integer a canonical LEB128 varint (`i64`
//!   zigzag-mapped first). Stack signatures stay 8 fixed bytes
//!   (`Enc::fixed64`): they are hashes, a varint would only lengthen them.
//!
//! **Write the newest version, read every version.** `Enc` has no v1
//! mode; `Dec` learns the version from the header once and its integer
//! readers switch width on it, so the `dec_*` functions built on top are
//! shared between versions. An unknown version is a structured error. The
//! promise covers the files something can still use: v1 traces, segments
//! and cache entries read forever.
//!
//! The decoder treats a checksum-valid file as untrusted — FNV-1a is
//! recomputable by anyone. A varint that overflows its type, is longer
//! than its value needs, or runs off the payload is
//! [`SnapshotError::Corrupt`], and every length that drives a loop is
//! bounded by the bytes left (`Dec::len`).

use crate::snapshot::{corrupt, SnapshotError};
use crate::trace::CommTable;
use mpisim::comm::WORLD;
use mpisim::types::Fnv1a;
use std::path::Path;

/// The version every frame is written at.
pub const VERSION: u32 = 2;

/// The fixed-width layout, decoded forever and written by nothing.
pub(crate) const V1: u32 = 1;

/// Sanity cap on the world size a decoded file may claim. The checksum
/// already rejects accidental corruption; this bounds the allocation a
/// deliberately crafted file can trigger.
const MAX_NRANKS: usize = 1 << 24;

const HEADER: usize = 4 + 4;
const TRAILER: usize = 8;

fn checksum(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// The format version a framed file declares, if `bytes` is long enough to
/// hold a header. Reads the header only: a file that answers here can still
/// fail its checksum.
pub fn peek_version(bytes: &[u8]) -> Option<u32> {
    let v = bytes.get(4..HEADER)?;
    Some(u32::from_le_bytes(v.try_into().expect("four bytes")))
}

// ------------------------------------------------------------------ encode

/// A frame being written: header first, [`Enc::seal`] last.
pub(crate) struct Enc(Vec<u8>);

macro_rules! put_varint {
    ($buf:expr, $v:expr) => {{
        let mut v = $v;
        while v >= 0x80 {
            $buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        $buf.push(v as u8);
    }};
}

impl Enc {
    /// Start a frame of the current [`VERSION`].
    pub(crate) fn open(magic: [u8; 4]) -> Enc {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&magic);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        Enc(buf)
    }

    /// Append the checksum of everything written and hand out the file.
    pub(crate) fn seal(mut self) -> Vec<u8> {
        let sum = checksum(&self.0);
        self.0.extend_from_slice(&sum.to_le_bytes());
        self.0
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.u64(v as u64);
    }
    pub(crate) fn u64(&mut self, v: u64) {
        put_varint!(self.0, v);
    }
    pub(crate) fn u128(&mut self, v: u128) {
        put_varint!(self.0, v);
    }
    pub(crate) fn i64(&mut self, v: i64) {
        self.u64(((v << 1) ^ (v >> 63)) as u64);
    }
    pub(crate) fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    /// Eight little-endian bytes in every version (stack signatures).
    pub(crate) fn fixed64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
}

// ------------------------------------------------------------------ decode

/// A verified frame being read: positioned after the header, bounded before
/// the checksum.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    version: u32,
}

macro_rules! take_varint {
    ($self:expr, $ty:ty) => {{
        let mut v: $ty = 0;
        let mut shift = 0u32;
        loop {
            let b = $self.u8()?;
            let low = (b & 0x7f) as $ty;
            if shift >= <$ty>::BITS || (low << shift) >> shift != low {
                return Err(corrupt("varint overflows its type"));
            }
            v |= low << shift;
            if b & 0x80 == 0 {
                if b == 0 && shift > 0 {
                    return Err(corrupt("over-long varint"));
                }
                break v;
            }
            shift += 7;
        }
    }};
}

impl<'a> Dec<'a> {
    /// Verify checksum, magic and version of a framed file and position a
    /// decoder on its payload.
    pub(crate) fn open(bytes: &'a [u8], magic: [u8; 4]) -> Result<Dec<'a>, SnapshotError> {
        if bytes.len() < HEADER + TRAILER {
            return Err(corrupt("file shorter than frame"));
        }
        let (body, sum) = bytes.split_at(bytes.len() - TRAILER);
        if checksum(body) != u64::from_le_bytes(sum.try_into().expect("eight bytes")) {
            return Err(corrupt("checksum mismatch"));
        }
        if body[..4] != magic {
            return Err(corrupt("bad magic"));
        }
        let version = peek_version(body).expect("length checked above");
        if version != V1 && version != VERSION {
            return Err(corrupt(format!("unsupported version {version}")));
        }
        Ok(Dec {
            buf: body,
            pos: HEADER,
            version,
        })
    }

    /// The version the frame declared: [`V1`] or [`VERSION`].
    pub(crate) fn version(&self) -> u32 {
        self.version
    }

    /// The payload must end here.
    pub(crate) fn finish(self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(corrupt("trailing bytes after payload"));
        }
        Ok(())
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(corrupt("truncated payload"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| corrupt("truncated payload"))?;
        self.pos += 1;
        Ok(b)
    }
    pub(crate) fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(corrupt(format!("bad bool byte {b}"))),
        }
    }
    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        if self.version == V1 {
            let b = self.take(4)?;
            return Ok(u32::from_le_bytes(b.try_into().expect("four bytes")));
        }
        Ok(take_varint!(self, u32))
    }
    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        if self.version == V1 {
            return self.fixed64();
        }
        Ok(take_varint!(self, u64))
    }
    pub(crate) fn u128(&mut self) -> Result<u128, SnapshotError> {
        if self.version == V1 {
            let b = self.take(16)?;
            return Ok(u128::from_le_bytes(b.try_into().expect("sixteen bytes")));
        }
        Ok(take_varint!(self, u128))
    }
    pub(crate) fn i64(&mut self) -> Result<i64, SnapshotError> {
        let u = self.u64()?;
        if self.version == V1 {
            return Ok(u as i64);
        }
        Ok((u >> 1) as i64 ^ -((u & 1) as i64))
    }
    pub(crate) fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt("length overflows usize"))
    }
    /// Eight little-endian bytes in every version (stack signatures).
    pub(crate) fn fixed64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("eight bytes")))
    }
    /// A length that is about to drive a loop of ≥1-byte items; bounding it
    /// by the remaining bytes turns "absurd length from corruption" into an
    /// immediate error instead of a giant allocation.
    pub(crate) fn len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n > self.buf.len() - self.pos {
            return Err(corrupt("length exceeds payload"));
        }
        Ok(n)
    }
}

// ------------------------------------------------------- shared payload parts

/// A world size: non-zero and within [`MAX_NRANKS`].
pub(crate) fn dec_nranks(d: &mut Dec) -> Result<usize, SnapshotError> {
    let nranks = d.usize()?;
    if nranks == 0 || nranks > MAX_NRANKS {
        return Err(corrupt(format!("implausible world size {nranks}")));
    }
    Ok(nranks)
}

/// Encode a communicator table over `nranks` ranks, ids ascending. A table
/// without `MPI_COMM_WORLD` — a tracer's, which holds only the
/// communicators its rank created — is written with the world over
/// `nranks` as its first entry, so a segment sealed from it carries the
/// same bytes as one whose table held the world.
pub(crate) fn enc_comms(e: &mut Enc, nranks: usize, comms: &CommTable) {
    let implied = !comms.contains(WORLD);
    e.usize(comms.ids().count() + usize::from(implied));
    if implied {
        e.u32(WORLD);
        e.usize(nranks);
        for m in 0..nranks {
            e.usize(m);
        }
    }
    for id in comms.ids() {
        e.u32(id);
        let members = comms.members(id);
        e.usize(members.len());
        for &m in members {
            e.usize(m);
        }
    }
}

pub(crate) fn dec_comms(d: &mut Dec, nranks: usize) -> Result<CommTable, SnapshotError> {
    let mut comms = CommTable::world(nranks);
    let ncomms = d.len()?;
    for _ in 0..ncomms {
        let id = d.u32()?;
        let n = d.len()?;
        let mut members = Vec::with_capacity(n);
        for _ in 0..n {
            let m = d.usize()?;
            if m >= nranks {
                return Err(corrupt(format!(
                    "communicator {id} member {m} out of range for {nranks}"
                )));
            }
            members.push(m);
        }
        comms.insert(id, members);
    }
    Ok(comms)
}

// ------------------------------------------------------------------- files

/// Write `bytes` to `path` through a `<name>.<pid>.tmp` sibling and a
/// rename, so a crash mid-write leaves the previous file (or none) — never
/// a torn one. The pid keeps processes that share a directory (two
/// campaigns on one cache) from clobbering each other's in-flight writes.
/// Every durable whole-file write in the workspace goes through here.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}.tmp", std::process::id()));
    let tmp = path.with_file_name(name);
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

/// Recompute a framed file's trailing checksum after a test patched its
/// body: what anyone crafting a hostile file would do.
#[cfg(test)]
pub(crate) fn refresh_checksum(bytes: &mut [u8]) {
    let at = bytes.len() - TRAILER;
    let sum = checksum(&bytes[..at]);
    bytes[at..].copy_from_slice(&sum.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TEST";

    /// A v2 frame around hand-written payload bytes.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut e = Enc::open(MAGIC);
        e.0.extend_from_slice(payload);
        e.seal()
    }

    fn is_corrupt<T>(r: Result<T, SnapshotError>, why: &str) -> bool {
        matches!(r, Err(SnapshotError::Corrupt(msg)) if msg.contains(why))
    }

    #[test]
    fn integers_round_trip_at_every_width_boundary() {
        let unsigned = [
            0u128,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u128,
            u64::MAX as u128,
            u128::MAX,
        ];
        let signed = [i64::MIN, -1, 0, 1, i64::MAX];
        let mut e = Enc::open(MAGIC);
        for &v in &unsigned {
            e.u128(v);
            if let Ok(v) = u64::try_from(v) {
                e.u64(v);
                e.usize(v as usize);
            }
            if let Ok(v) = u32::try_from(v) {
                e.u32(v);
            }
        }
        for &v in &signed {
            e.i64(v);
        }
        e.fixed64(0xdead_beef);
        let bytes = e.seal();
        let mut d = Dec::open(&bytes, MAGIC).unwrap();
        assert_eq!(d.version(), VERSION);
        for &v in &unsigned {
            assert_eq!(d.u128().unwrap(), v);
            if let Ok(v) = u64::try_from(v) {
                assert_eq!(d.u64().unwrap(), v);
                assert_eq!(d.usize().unwrap(), v as usize);
            }
            if let Ok(v) = u32::try_from(v) {
                assert_eq!(d.u32().unwrap(), v);
            }
        }
        for &v in &signed {
            assert_eq!(d.i64().unwrap(), v);
        }
        assert_eq!(d.fixed64().unwrap(), 0xdead_beef);
        d.finish().unwrap();
    }

    #[test]
    fn small_values_take_one_byte_and_small_magnitudes_stay_small() {
        let len = |f: &dyn Fn(&mut Enc)| {
            let mut e = Enc::open(MAGIC);
            f(&mut e);
            e.0.len() - HEADER
        };
        assert_eq!(len(&|e| e.u64(127)), 1);
        assert_eq!(len(&|e| e.u64(128)), 2);
        assert_eq!(len(&|e| e.u64(16_383)), 2);
        assert_eq!(len(&|e| e.u64(16_384)), 3);
        assert_eq!(len(&|e| e.u64(u64::MAX)), 10);
        assert_eq!(len(&|e| e.u128(u128::MAX)), 19);
        assert_eq!(len(&|e| e.i64(-1)), 1);
        assert_eq!(len(&|e| e.i64(63)), 1);
        assert_eq!(len(&|e| e.i64(-64)), 1);
        assert_eq!(len(&|e| e.i64(64)), 2);
    }

    #[test]
    fn malformed_varints_are_corrupt_not_wrapped() {
        let u64_of = |p: &[u8]| Dec::open(&framed(p), MAGIC).unwrap().u64();
        let u32_of = |p: &[u8]| Dec::open(&framed(p), MAGIC).unwrap().u32();
        let u128_of = |p: &[u8]| Dec::open(&framed(p), MAGIC).unwrap().u128();
        // the same value in more bytes than it needs
        assert!(is_corrupt(u64_of(&[0x80, 0x00]), "over-long"));
        assert!(is_corrupt(u64_of(&[0xff, 0x80, 0x00]), "over-long"));
        assert_eq!(u64_of(&[0x00]).unwrap(), 0);
        // bits beyond the type: the 10th byte of a u64 holds one bit, the
        // 5th of a u32 four, the 19th of a u128 two
        let nine = [0xff; 9];
        assert_eq!(u64_of(&[&nine[..], &[0x01]].concat()).unwrap(), u64::MAX);
        assert!(is_corrupt(
            u64_of(&[&nine[..], &[0x02]].concat()),
            "overflows"
        ));
        assert!(is_corrupt(
            u64_of(&[&nine[..], &[0x81, 0x00]].concat()),
            "overflows"
        ));
        let four = [0xff; 4];
        assert_eq!(u32_of(&[&four[..], &[0x0f]].concat()).unwrap(), u32::MAX);
        assert!(is_corrupt(
            u32_of(&[&four[..], &[0x10]].concat()),
            "overflows"
        ));
        let eighteen = [0xff; 18];
        assert_eq!(
            u128_of(&[&eighteen[..], &[0x03]].concat()).unwrap(),
            u128::MAX
        );
        assert!(is_corrupt(
            u128_of(&[&eighteen[..], &[0x04]].concat()),
            "overflows"
        ));
        // a continuation bit on the payload's last byte
        assert!(is_corrupt(u64_of(&[0x80]), "truncated"));
        assert!(is_corrupt(u64_of(&[]), "truncated"));
        assert!(is_corrupt(u64_of(&nine), "truncated"));
    }

    #[test]
    fn open_checks_length_checksum_magic_and_version() {
        let bytes = framed(&[7]);
        assert_eq!(peek_version(&bytes), Some(VERSION));
        assert!(Dec::open(&bytes, MAGIC).is_ok());
        assert!(is_corrupt(Dec::open(&bytes[..15], MAGIC), "shorter"));
        assert!(is_corrupt(Dec::open(&bytes, *b"NOPE"), "bad magic"));
        let mut flipped = bytes.clone();
        flipped[HEADER] ^= 1;
        assert!(is_corrupt(Dec::open(&flipped, MAGIC), "checksum"));
        for v in [0u32, 3, 99] {
            let mut other = bytes.clone();
            other[4..HEADER].copy_from_slice(&v.to_le_bytes());
            refresh_checksum(&mut other);
            assert!(is_corrupt(
                Dec::open(&other, MAGIC),
                &format!("unsupported version {v}")
            ));
        }
        // trailing payload bytes are the caller's to refuse
        let d = Dec::open(&bytes, MAGIC).unwrap();
        assert!(is_corrupt(d.finish(), "trailing"));
    }

    #[test]
    fn a_v1_frame_reads_fixed_width_integers() {
        let mut body = MAGIC.to_vec();
        body.extend_from_slice(&V1.to_le_bytes());
        body.extend_from_slice(&300u32.to_le_bytes());
        body.extend_from_slice(&u64::MAX.to_le_bytes());
        body.extend_from_slice(&(-2i64).to_le_bytes());
        body.extend_from_slice(&u128::MAX.to_le_bytes());
        body.extend_from_slice(&[0; TRAILER]);
        refresh_checksum(&mut body);
        let mut d = Dec::open(&body, MAGIC).unwrap();
        assert_eq!(d.version(), V1);
        assert_eq!(d.u32().unwrap(), 300);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -2);
        assert_eq!(d.u128().unwrap(), u128::MAX);
        d.finish().unwrap();
    }

    #[test]
    fn comm_tables_round_trip_and_bound_their_members() {
        let mut comms = CommTable::world(6);
        comms.insert(3, vec![5, 0, 2]);
        let mut e = Enc::open(MAGIC);
        enc_comms(&mut e, 6, &comms);
        let bytes = e.seal();
        let mut d = Dec::open(&bytes, MAGIC).unwrap();
        assert_eq!(dec_comms(&mut d, 6).unwrap(), comms);
        d.finish().unwrap();
        let mut d = Dec::open(&bytes, MAGIC).unwrap();
        assert!(is_corrupt(dec_comms(&mut d, 5), "out of range"));

        // A table without the world (a tracer's) encodes it from `nranks`.
        let mut own = CommTable::default();
        own.insert(3, vec![5, 0, 2]);
        let mut e = Enc::open(MAGIC);
        enc_comms(&mut e, 6, &own);
        assert_eq!(e.seal(), bytes);
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("frame-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, ["file"], "tmp residue");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
