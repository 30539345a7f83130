//! Shared record-framing primitives.
//!
//! Both durable artifacts in this workspace — the crash-consistent
//! run journal in `gtpin-durable` and the binary observability
//! journal ([`crate::binary`]) — frame variable-length payloads the
//! same way: a little-endian length, an FNV-1a 64 checksum of the
//! payload, then the payload bytes. Keeping the checksum and the
//! `[len][fnv64][payload]` codec here (the obs crate is the
//! dependency root of the two) means the torn-tail semantics cannot
//! drift between them: a frame is either intact — header present,
//! length in bounds, checksum matching — or torn, and a torn frame
//! truncates everything after it.

/// Bytes of framing before each payload: `len: u32 LE` then
/// `fnv64: u64 LE`.
pub const RECORD_HEADER: usize = 12;

/// FNV-1a over a byte slice — the per-record checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv_fold(0xcbf2_9ce4_8422_2325, bytes)
}

/// One FNV-1a step over `bytes` from the running hash `h` — the fold
/// every digest in the workspace chains from the offset basis.
pub fn fnv_fold(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Append one framed record (`[len][fnv64][payload]`) to `out`.
pub fn frame_record(payload: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One step of walking a sequence of framed records.
#[derive(Debug, PartialEq, Eq)]
pub enum RecordSplit<'a> {
    /// `bytes` was empty: the previous record was the last.
    Done,
    /// An intact frame: its payload, and how many bytes it consumed
    /// (header plus payload).
    Record {
        /// The checksummed payload.
        payload: &'a [u8],
        /// Total frame length, `RECORD_HEADER + payload.len()`.
        consumed: usize,
    },
    /// Torn: not enough bytes for the header, a length overrunning
    /// the buffer, or a checksum mismatch. Everything from here on is
    /// untrustworthy and should be truncated.
    Torn,
}

/// Split the next framed record off the front of `bytes`.
pub fn split_record(bytes: &[u8]) -> RecordSplit<'_> {
    if bytes.is_empty() {
        return RecordSplit::Done;
    }
    if bytes.len() < RECORD_HEADER {
        return RecordSplit::Torn;
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes")) as usize;
    let want = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
    if bytes.len() - RECORD_HEADER < len {
        return RecordSplit::Torn;
    }
    let payload = &bytes[RECORD_HEADER..RECORD_HEADER + len];
    if fnv64(payload) != want {
        return RecordSplit::Torn;
    }
    RecordSplit::Record {
        payload,
        consumed: RECORD_HEADER + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn frame_round_trips() {
        let mut buf = Vec::new();
        frame_record(b"hello", &mut buf);
        frame_record(b"", &mut buf);
        let RecordSplit::Record { payload, consumed } = split_record(&buf) else {
            panic!("first frame intact");
        };
        assert_eq!(payload, b"hello");
        let RecordSplit::Record {
            payload,
            consumed: c2,
        } = split_record(&buf[consumed..])
        else {
            panic!("second frame intact");
        };
        assert_eq!(payload, b"");
        assert_eq!(split_record(&buf[consumed + c2..]), RecordSplit::Done);
    }

    #[test]
    fn every_truncation_of_a_frame_is_torn() {
        let mut buf = Vec::new();
        frame_record(b"payload bytes", &mut buf);
        for cut in 1..buf.len() {
            assert_eq!(split_record(&buf[..cut]), RecordSplit::Torn, "cut {cut}");
        }
    }

    #[test]
    fn corrupt_payload_is_torn() {
        let mut buf = Vec::new();
        frame_record(b"payload", &mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert_eq!(split_record(&buf), RecordSplit::Torn);
    }
}
