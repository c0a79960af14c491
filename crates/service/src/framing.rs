//! Wire framing: NDJSON lines and a compact length-prefixed binary frame.
//!
//! The service speaks two framings on the same port, discriminated per
//! frame by the first byte:
//!
//! * **NDJSON** — any byte other than [`MAGIC`] starts a JSON line
//!   terminated by `\n`. This is the original, `nc`-able framing and
//!   remains the default.
//! * **Binary** — a [`MAGIC`] byte (`0xB1`, never valid as the first
//!   byte of UTF-8 JSON text) followed by a little-endian `u32` payload
//!   length and a tagged binary encoding of the same
//!   [`Value`](serde::Value) tree the JSON framing carries. No escaping,
//!   no float formatting, no UTF-8 scanning on the hot path.
//!
//! Neither direction builds that tree. A message renders itself once as
//! [`Emit`] events, and [`append_frame`] points them at the framing's
//! sink: JSON text, or this module's binary sink, whose bytes equal
//! [`encode_value`] of the message's tree. Incoming, the JSON grammar and
//! [`decode`] fill the same flat [`Tape`], with the same depth cap
//! ([`MAX_DEPTH`]), and one reader per op reads either. The binary
//! decoder normalises unsigned integers that fit `i64` to signed ones,
//! exactly as the JSON parser does, so a message decodes identically
//! whichever framing carried it (proven by the `framing_equivalence`
//! proptest and the `codec_equivalence` suite).
//!
//! ## Binary payload encoding
//!
//! One tag byte, then a fixed layout per kind (all integers little
//! endian):
//!
//! | tag | kind | layout after the tag |
//! |-----|------|----------------------|
//! | `0x00` | null | — |
//! | `0x01` | false | — |
//! | `0x02` | true | — |
//! | `0x03` | int | `i64` |
//! | `0x04` | uint | `u64` (only emitted when the value exceeds `i64::MAX`) |
//! | `0x05` | float | `f64` bits |
//! | `0x06` | string | `u32` byte length, UTF-8 bytes |
//! | `0x07` | array | `u32` element count, then each element |
//! | `0x08` | object | `u32` entry count, then per entry: `u32` key length, key bytes, value |

use serde::Value;
pub use serde_json::MAX_DEPTH;
use serde_json::{Emit, JsonSink, Sink, Tape, TapeNode};
use std::fmt;

/// First byte of every binary frame. `0xB1` is not a valid UTF-8 leading
/// byte, so it can never collide with the first byte of an NDJSON line.
pub const MAGIC: u8 = 0xB1;

/// Upper bound on a binary frame payload and on an NDJSON line. A
/// declared length above this is unrecoverable desync (there is no way to
/// find the next frame boundary), and a line still unterminated after
/// this many bytes would otherwise be buffered without limit, so either
/// closes the connection.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Which framing a connection endpoint speaks (per frame on the server,
/// fixed per client).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Newline-delimited JSON — human-readable, `nc`-able, the default.
    Ndjson,
    /// Length-prefixed tagged binary — compact, no parse/format cost.
    Binary,
}

impl Framing {
    /// Parses a CLI flag value (`"ndjson"` / `"binary"`).
    pub fn parse(flag: &str) -> Option<Framing> {
        match flag {
            "ndjson" => Some(Framing::Ndjson),
            "binary" => Some(Framing::Binary),
            _ => None,
        }
    }

    /// The flag spelling of this framing.
    pub fn as_str(&self) -> &'static str {
        match self {
            Framing::Ndjson => "ndjson",
            Framing::Binary => "binary",
        }
    }
}

impl fmt::Display for Framing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Errors from the binary codec and the frame splitter.
///
/// Only [`FrameError::Oversized`] and [`FrameError::Torn`] are fatal to a
/// connection (stream desync / truncation); payload-level errors leave the
/// stream aligned on the next frame boundary, so the server answers them
/// with a `Response::Error` and keeps the connection open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Declared payload length, or the length of a line still lacking
    /// its newline, exceeds [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// The stream ended mid-frame (torn final frame).
    Torn(usize),
    /// Unknown tag byte in a binary payload.
    BadTag(u8),
    /// Payload declared more content than it contains.
    Truncated,
    /// Payload contained bytes past the root value.
    TrailingBytes(usize),
    /// A string or object key was not valid UTF-8.
    BadUtf8,
    /// Value nesting exceeded the decoder's depth cap.
    TooDeep,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN} byte cap")
            }
            FrameError::Torn(buffered) => {
                write!(f, "stream ended mid-frame with {buffered} bytes buffered")
            }
            FrameError::BadTag(tag) => write!(f, "unknown binary value tag 0x{tag:02x}"),
            FrameError::Truncated => f.write_str("binary payload ended mid-value"),
            FrameError::TrailingBytes(extra) => {
                write!(f, "{extra} trailing bytes after the binary value")
            }
            FrameError::BadUtf8 => f.write_str("binary string is not valid UTF-8"),
            FrameError::TooDeep => f.write_str("binary value nesting too deep"),
        }
    }
}

impl std::error::Error for FrameError {}

// ---------------------------------------------------------------------------
// Binary value codec.
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_INT: u8 = 0x03;
const TAG_UINT: u8 = 0x04;
const TAG_FLOAT: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;

/// Appends the binary encoding of `value` to `out`.
pub fn encode_value(value: &Value, out: &mut Vec<u8>) -> Result<(), FrameError> {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::UInt(u) => {
            // Mirror the JSON parser's normal form: integers that fit i64
            // are Int there, so emit the tag the decoder would hand back.
            if let Ok(i) = i64::try_from(*u) {
                out.push(TAG_INT);
                out.extend_from_slice(&i.to_le_bytes());
            } else {
                out.push(TAG_UINT);
                out.extend_from_slice(&u.to_le_bytes());
            }
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            encode_len(s.len(), out)?;
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            encode_len(items.len(), out)?;
            for item in items {
                encode_value(item, out)?;
            }
        }
        Value::Object(map) => {
            out.push(TAG_OBJECT);
            encode_len(map.len(), out)?;
            for (key, entry) in map.iter() {
                encode_len(key.len(), out)?;
                out.extend_from_slice(key.as_bytes());
                encode_value(entry, out)?;
            }
        }
    }
    Ok(())
}

fn encode_len(len: usize, out: &mut Vec<u8>) -> Result<(), FrameError> {
    let len = u32::try_from(len).map_err(|_| FrameError::Oversized(usize::MAX))?;
    out.extend_from_slice(&len.to_le_bytes());
    Ok(())
}

/// Decodes a complete binary payload into `tape`, rejecting trailing
/// bytes, and returns its root. Strings stay in `bytes`; a payload
/// nested deeper than [`MAX_DEPTH`] is refused, as the JSON grammar
/// refuses one.
pub fn decode<'a>(bytes: &'a [u8], tape: &'a mut Tape) -> Result<TapeNode<'a>, FrameError> {
    tape.clear();
    if u32::try_from(bytes.len()).is_err() {
        return Err(FrameError::Oversized(bytes.len()));
    }
    let mut pos = 0usize;
    decode_at(bytes, &mut pos, 0, tape)?;
    if pos != bytes.len() {
        return Err(FrameError::TrailingBytes(bytes.len() - pos));
    }
    Ok(tape.root(bytes))
}

/// Decodes a complete binary payload into a `Value`, rejecting trailing
/// bytes. Unsigned integers that fit `i64` come back as `Value::Int`,
/// matching the JSON parser's normal form.
pub fn decode_value(bytes: &[u8]) -> Result<Value, FrameError> {
    serde_json::with_tape(|tape| decode(bytes, tape).map(serde_json::Node::to_value))
}

fn take<'a>(bytes: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], FrameError> {
    let end = pos.checked_add(n).ok_or(FrameError::Truncated)?;
    let slice = bytes.get(*pos..end).ok_or(FrameError::Truncated)?;
    *pos = end;
    Ok(slice)
}

fn take_array<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N], FrameError> {
    take(bytes, pos, N)?
        .try_into()
        .map_err(|_| FrameError::Truncated)
}

/// A length-prefixed UTF-8 string: its offset and length in `bytes`.
fn take_str(bytes: &[u8], pos: &mut usize) -> Result<(usize, usize), FrameError> {
    let len = u32::from_le_bytes(take_array(bytes, pos)?) as usize;
    let at = *pos;
    std::str::from_utf8(take(bytes, pos, len)?).map_err(|_| FrameError::BadUtf8)?;
    Ok((at, len))
}

fn decode_at(
    bytes: &[u8],
    pos: &mut usize,
    depth: usize,
    tape: &mut Tape,
) -> Result<(), FrameError> {
    if depth > MAX_DEPTH {
        return Err(FrameError::TooDeep);
    }
    match take_array::<1>(bytes, pos)?[0] {
        TAG_NULL => tape.push_null(),
        TAG_FALSE => tape.push_bool(false),
        TAG_TRUE => tape.push_bool(true),
        TAG_INT => tape.push_i64(i64::from_le_bytes(take_array(bytes, pos)?)),
        TAG_UINT => tape.push_u64(u64::from_le_bytes(take_array(bytes, pos)?)),
        TAG_FLOAT => tape.push_f64(f64::from_le_bytes(take_array(bytes, pos)?)),
        TAG_STR => {
            let (at, len) = take_str(bytes, pos)?;
            tape.push_str(at, len);
        }
        // No up-front reservation from a declared count: a hostile
        // header cannot force a huge allocation, decode just runs out.
        TAG_ARRAY => {
            let count = u32::from_le_bytes(take_array(bytes, pos)?) as usize;
            let open = tape.open();
            for _ in 0..count {
                decode_at(bytes, pos, depth + 1, tape)?;
            }
            tape.close_array(open, count);
        }
        TAG_OBJECT => {
            let count = u32::from_le_bytes(take_array(bytes, pos)?) as usize;
            let open = tape.open();
            let mut last = open;
            for _ in 0..count {
                let (at, len) = take_str(bytes, pos)?;
                last = tape.push_key(at, len, last);
                decode_at(bytes, pos, depth + 1, tape)?;
            }
            tape.close_object(open, count, last);
        }
        other => return Err(FrameError::BadTag(other)),
    }
    Ok(())
}

/// Renders sink events as the binary tagged tree: byte for byte what
/// [`encode_value`] writes for the tree of the same events. A container's
/// count is written when it closes.
struct BinarySink<'a> {
    out: &'a mut Vec<u8>,
    /// Per open container: where its count goes, and the values so far
    /// (an object counts its entries by their values).
    open: [(usize, u32); SINK_DEPTH],
    depth: usize,
    error: Option<FrameError>,
}

/// Containers a message may nest in a binary sink. Messages nest a few
/// levels; an embedded tree is encoded whole and uses none of this.
const SINK_DEPTH: usize = 16;

impl BinarySink<'_> {
    /// Counts one value in the innermost open container.
    fn item(&mut self) -> &mut Vec<u8> {
        if let Some(top) = self.depth.checked_sub(1).and_then(|d| self.open.get_mut(d)) {
            top.1 += 1;
        }
        self.out
    }

    fn len(&mut self, len: usize) {
        match u32::try_from(len) {
            Ok(len) => self.out.extend_from_slice(&len.to_le_bytes()),
            Err(_) => self.error = Some(FrameError::Oversized(usize::MAX)),
        }
    }

    fn begin(&mut self, tag: u8) {
        self.item().push(tag);
        match self.open.get_mut(self.depth) {
            Some(slot) => *slot = (self.out.len(), 0),
            None => self.error = Some(FrameError::TooDeep),
        }
        self.depth += 1;
        self.out.extend_from_slice(&[0; 4]);
    }

    fn end(&mut self) {
        self.depth -= 1;
        if let Some(&(at, count)) = self.open.get(self.depth) {
            self.out[at..at + 4].copy_from_slice(&count.to_le_bytes());
        }
    }

    fn bytes(&mut self, tag: u8, raw: &[u8]) {
        self.item().push(tag);
        self.out.extend_from_slice(raw);
    }
}

impl Sink for BinarySink<'_> {
    fn begin_object(&mut self) {
        self.begin(TAG_OBJECT);
    }
    fn end_object(&mut self) {
        self.end();
    }
    fn begin_array(&mut self) {
        self.begin(TAG_ARRAY);
    }
    fn end_array(&mut self) {
        self.end();
    }
    fn key(&mut self, key: &str) {
        self.len(key.len());
        self.out.extend_from_slice(key.as_bytes());
    }
    fn null(&mut self) {
        self.item().push(TAG_NULL);
    }
    fn bool(&mut self, b: bool) {
        self.item().push(if b { TAG_TRUE } else { TAG_FALSE });
    }
    fn i64(&mut self, i: i64) {
        self.bytes(TAG_INT, &i.to_le_bytes());
    }
    fn u64(&mut self, u: u64) {
        // The tag the decoder's normal form would hand back.
        match i64::try_from(u) {
            Ok(i) => self.i64(i),
            Err(_) => self.bytes(TAG_UINT, &u.to_le_bytes()),
        }
    }
    fn f64(&mut self, f: f64) {
        self.bytes(TAG_FLOAT, &f.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.item().push(TAG_STR);
        self.len(s.len());
        self.out.extend_from_slice(s.as_bytes());
    }
    fn value(&mut self, v: &Value) {
        if let Err(e) = encode_value(v, self.item()) {
            self.error = Some(e);
        }
    }
}

/// Appends `message` to `out` as one frame in `framing`: a JSON line, or
/// a binary frame. Either is rendered straight from the message's
/// fields. A binary frame over [`MAX_FRAME_LEN`] is refused, and `out`
/// is restored to its original length.
pub fn append_frame<M: Emit + ?Sized>(
    out: &mut Vec<u8>,
    framing: Framing,
    message: &M,
) -> Result<(), FrameError> {
    if framing == Framing::Ndjson {
        message.emit(&mut JsonSink::new(out));
        out.push(b'\n');
        return Ok(());
    }
    let base = out.len();
    out.push(MAGIC);
    out.extend_from_slice(&[0u8; 4]);
    let mut sink = BinarySink {
        out,
        open: [(0, 0); SINK_DEPTH],
        depth: 0,
        error: None,
    };
    message.emit(&mut sink);
    let error = sink.error;
    let len = out.len() - base - 5;
    let result = match error {
        Some(e) => Err(e),
        None if len > MAX_FRAME_LEN => Err(FrameError::Oversized(len)),
        None => {
            out[base + 1..base + 5].copy_from_slice(&(len as u32).to_le_bytes());
            Ok(())
        }
    };
    if result.is_err() {
        out.truncate(base);
    }
    result
}

/// Parses one frame's payload into `tape` and reads the message off it
/// with `read` (`Request::read` on the server, `Response::read` on the
/// client); the error says what was wrong with the payload.
pub fn parse_frame<T>(
    framing: Framing,
    payload: &[u8],
    tape: &mut Tape,
    read: impl FnOnce(TapeNode<'_>) -> Result<T, serde::Error>,
) -> Result<T, String> {
    let root = match framing {
        Framing::Ndjson => {
            let line = std::str::from_utf8(payload).map_err(|_| "line is not UTF-8".to_string())?;
            tape.parse(line).map_err(|e| e.to_string())?
        }
        Framing::Binary => decode(payload, tape).map_err(|e| e.to_string())?,
    };
    read(root).map_err(|e| e.to_string())
}

/// Encodes `value` as a complete binary frame (magic + length + payload).
pub fn encode_frame(value: &Value) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::with_capacity(64);
    encode_frame_into(value, &mut out)?;
    Ok(out)
}

/// Appends a complete binary frame to `out` without an intermediate
/// allocation; on error `out` is restored to its original length.
pub fn encode_frame_into(value: &Value, out: &mut Vec<u8>) -> Result<(), FrameError> {
    append_frame(out, Framing::Binary, value)
}

// ---------------------------------------------------------------------------
// Incremental frame splitting.
// ---------------------------------------------------------------------------

/// One complete frame extracted from the stream. The payload is raw: an
/// unterminated JSON line (no `\n`) or an undecoded binary payload —
/// payload-level parse errors are the caller's to answer (with an error
/// response), keeping the stream itself aligned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Which framing the frame arrived in (responses go back the same way).
    pub framing: Framing,
    /// Line bytes (NDJSON, newline stripped) or binary payload bytes.
    pub payload: Vec<u8>,
}

/// Incremental splitter for a mixed NDJSON/binary byte stream.
///
/// Feed reads with [`FrameBuffer::extend`], pull complete frames with
/// [`FrameBuffer::next_frame`] until it returns `Ok(None)` (more bytes
/// needed), and call [`FrameBuffer::finish`] at EOF to reject a torn
/// final frame. Handles frames split across arbitrarily many reads and
/// any number of pipelined frames per read.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    pos: usize,
    /// How many bytes past `pos` earlier calls searched without finding
    /// the pending line's newline; the next search resumes there, so a
    /// line trickling in over many reads is scanned once, not once per
    /// read.
    scanned: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix before growing, so a long-lived
        // pipelined connection doesn't accrete its whole history.
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= 4096 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet returned as frames.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The framing of the frame at the head of the buffer, complete or
    /// not (`None` when nothing is buffered) — after a fatal
    /// [`FrameBuffer::next_frame`] error, the framing that failed.
    pub fn pending_framing(&self) -> Option<Framing> {
        self.buf.get(self.pos).map(|&first| match first {
            MAGIC => Framing::Binary,
            _ => Framing::Ndjson,
        })
    }

    /// Extracts the next complete frame, `Ok(None)` when more bytes are
    /// needed. `Err` means the stream is unrecoverably desynced (declared
    /// binary length, or a line, over [`MAX_FRAME_LEN`]) and must be
    /// closed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        Ok(self.next_payload()?.map(|(framing, payload)| Frame {
            framing,
            payload: payload.to_vec(),
        }))
    }

    /// As [`FrameBuffer::next_frame`], but lends the payload out of the
    /// buffer rather than copying it.
    pub fn next_payload(&mut self) -> Result<Option<(Framing, &[u8])>, FrameError> {
        let data = &self.buf[self.pos..];
        let Some(&first) = data.first() else {
            return Ok(None);
        };
        let (framing, start, end, next) = if first == MAGIC {
            let Some(header) = data.get(1..5) else {
                return Ok(None);
            };
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
            if len > MAX_FRAME_LEN {
                return Err(FrameError::Oversized(len));
            }
            if data.len() < 5 + len {
                return Ok(None);
            }
            (Framing::Binary, 5, 5 + len, 5 + len)
        } else {
            let found = data[self.scanned..].iter().position(|&b| b == b'\n');
            let end = found.map_or(data.len(), |at| self.scanned + at);
            if end > MAX_FRAME_LEN {
                return Err(FrameError::Oversized(end));
            }
            if found.is_none() {
                self.scanned = end;
                return Ok(None);
            }
            self.scanned = 0;
            let line_end = if data[..end].last() == Some(&b'\r') {
                end - 1
            } else {
                end
            };
            (Framing::Ndjson, 0, line_end, end + 1)
        };
        let at = self.pos;
        self.pos += next;
        Ok(Some((framing, &self.buf[at + start..at + end])))
    }

    /// EOF check: a cleanly closed stream has no partial frame buffered.
    pub fn finish(&self) -> Result<(), FrameError> {
        match self.pending() {
            0 => Ok(()),
            torn => Err(FrameError::Torn(torn)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(text: &str) -> Value {
        serde_json::from_str(text).expect("test JSON")
    }

    fn frame(value: &Value) -> Vec<u8> {
        encode_frame(value).expect("encode")
    }

    #[test]
    fn binary_codec_round_trips_a_nested_value() {
        let value = v(concat!(
            r#"{"op":"alloc","size":32,"walltime":60.5,"nodes":[0,1,2],"#,
            r#""pattern":null,"wait":true,"names":["a\"b\\c","tab\there",""]}"#,
        ));
        let mut payload = Vec::new();
        encode_value(&value, &mut payload).unwrap();
        assert_eq!(decode_value(&payload).unwrap(), value);
    }

    #[test]
    fn uint_normalisation_matches_the_json_parser() {
        // In-range u64s come back as Int (the JSON parser's normal form);
        // out-of-range ones stay UInt — in both directions.
        let mut payload = Vec::new();
        encode_value(&Value::UInt(7), &mut payload).unwrap();
        assert_eq!(decode_value(&payload).unwrap(), Value::Int(7));

        payload.clear();
        encode_value(&Value::UInt(u64::MAX), &mut payload).unwrap();
        assert_eq!(decode_value(&payload).unwrap(), Value::UInt(u64::MAX));

        // Raw UInt tag carrying an i64-ranged value also normalises.
        let mut raw = vec![super::TAG_UINT];
        raw.extend_from_slice(&9u64.to_le_bytes());
        assert_eq!(decode_value(&raw).unwrap(), Value::Int(9));
    }

    #[test]
    fn payload_errors_are_reported() {
        assert_eq!(decode_value(&[0xff]), Err(FrameError::BadTag(0xff)));
        assert_eq!(
            decode_value(&[super::TAG_INT, 1, 2]),
            Err(FrameError::Truncated)
        );
        assert_eq!(
            decode_value(&[super::TAG_NULL, super::TAG_NULL]),
            Err(FrameError::TrailingBytes(1))
        );
        let mut bad_str = vec![super::TAG_STR];
        bad_str.extend_from_slice(&2u32.to_le_bytes());
        bad_str.extend_from_slice(&[0xc3, 0x28]);
        assert_eq!(decode_value(&bad_str), Err(FrameError::BadUtf8));

        // Hostile array count larger than the payload runs out, it does
        // not allocate.
        let mut hostile = vec![super::TAG_ARRAY];
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_value(&hostile), Err(FrameError::Truncated));

        let mut deep = Vec::new();
        for _ in 0..200 {
            deep.push(super::TAG_ARRAY);
            deep.extend_from_slice(&1u32.to_le_bytes());
        }
        deep.push(super::TAG_NULL);
        assert_eq!(decode_value(&deep), Err(FrameError::TooDeep));
    }

    #[test]
    fn splitter_handles_frames_split_across_reads() {
        let value = v(r#"{"op":"ping"}"#);
        let bytes = frame(&value);
        let mut buffer = FrameBuffer::new();
        // One byte at a time: no frame until the very last byte.
        for chunk in &bytes[..bytes.len() - 1] {
            buffer.extend(std::slice::from_ref(chunk));
            assert_eq!(buffer.next_frame().unwrap(), None);
        }
        buffer.extend(&bytes[bytes.len() - 1..]);
        let got = buffer.next_frame().unwrap().expect("frame");
        assert_eq!(got.framing, Framing::Binary);
        assert_eq!(decode_value(&got.payload).unwrap(), value);
        buffer.finish().unwrap();
    }

    #[test]
    fn splitter_drains_multiple_pipelined_frames_per_read() {
        let ping = v(r#"{"op":"ping"}"#);
        let list = v(r#"{"op":"list"}"#);
        let mut stream = Vec::new();
        stream.extend_from_slice(&frame(&ping));
        stream.extend_from_slice(b"{\"op\":\"list\"}\r\n");
        stream.extend_from_slice(&frame(&list));
        stream.extend_from_slice(b"{\"op\":\"ping\"}\n");

        let mut buffer = FrameBuffer::new();
        buffer.extend(&stream);
        let frames: Vec<Frame> = std::iter::from_fn(|| buffer.next_frame().unwrap()).collect();
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0].framing, Framing::Binary);
        assert_eq!(decode_value(&frames[0].payload).unwrap(), ping);
        assert_eq!(frames[1].framing, Framing::Ndjson);
        assert_eq!(frames[1].payload, b"{\"op\":\"list\"}");
        assert_eq!(frames[2].framing, Framing::Binary);
        assert_eq!(decode_value(&frames[2].payload).unwrap(), list);
        assert_eq!(frames[3].framing, Framing::Ndjson);
        assert_eq!(frames[3].payload, b"{\"op\":\"ping\"}");
        buffer.finish().unwrap();
    }

    #[test]
    fn torn_final_frames_are_rejected_at_eof() {
        // Torn binary frame: header promises more than ever arrives.
        let bytes = frame(&v(r#"{"op":"ping"}"#));
        let mut buffer = FrameBuffer::new();
        buffer.extend(&bytes[..bytes.len() - 3]);
        assert_eq!(buffer.next_frame().unwrap(), None);
        assert_eq!(buffer.finish(), Err(FrameError::Torn(bytes.len() - 3)));

        // Torn NDJSON line: no trailing newline before EOF.
        let mut buffer = FrameBuffer::new();
        buffer.extend(b"{\"op\":\"ping\"}");
        assert_eq!(buffer.next_frame().unwrap(), None);
        assert_eq!(buffer.finish(), Err(FrameError::Torn(13)));
    }

    #[test]
    fn oversized_declared_length_is_fatal() {
        let mut bytes = vec![MAGIC];
        bytes.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let mut buffer = FrameBuffer::new();
        buffer.extend(&bytes);
        assert_eq!(
            buffer.next_frame(),
            Err(FrameError::Oversized(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn oversized_line_is_fatal() {
        // A binary frame declares its length; a line only ever shows how
        // long it already is, so the cap applies to what is pending.
        let mut buffer = FrameBuffer::new();
        buffer.extend(&vec![b'x'; MAX_FRAME_LEN + 1]);
        assert_eq!(buffer.pending_framing(), Some(Framing::Ndjson));
        assert_eq!(
            buffer.next_frame(),
            Err(FrameError::Oversized(MAX_FRAME_LEN + 1))
        );
    }

    #[test]
    fn a_line_split_across_many_reads_comes_out_whole() {
        let line: Vec<u8> = (0..10_000u32).map(|i| b'a' + (i % 26) as u8).collect();
        let mut buffer = FrameBuffer::new();
        buffer.extend(b"{\"op\":\"ping\"}\n");
        for chunk in line.chunks(7) {
            buffer.extend(chunk);
            if let Some(frame) = buffer.next_frame().unwrap() {
                assert_eq!(frame.payload, b"{\"op\":\"ping\"}");
                assert_eq!(buffer.next_frame().unwrap(), None);
            }
        }
        buffer.extend(b"\r\n{\"op\":\"list\"}\n");
        let frames: Vec<Frame> = std::iter::from_fn(|| buffer.next_frame().unwrap()).collect();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].payload, line);
        assert_eq!(frames[1].payload, b"{\"op\":\"list\"}");
        buffer.finish().unwrap();
    }

    #[test]
    fn consumed_prefix_is_reclaimed() {
        let bytes = frame(&v(r#"{"op":"ping"}"#));
        let mut buffer = FrameBuffer::new();
        for _ in 0..2000 {
            buffer.extend(&bytes);
            buffer.next_frame().unwrap().expect("frame");
        }
        assert_eq!(buffer.pending(), 0);
        assert!(buffer.buf.len() < 2 * bytes.len());
    }
}
