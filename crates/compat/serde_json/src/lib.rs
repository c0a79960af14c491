//! Offline stand-in for `serde_json` (see `crates/compat/` for the
//! rationale): JSON text rendering and parsing for the [`serde`] shim's
//! [`Value`] tree, plus the two tree-free halves a wire codec needs.
//!
//! Supports the full JSON grammar (objects, arrays, strings with escapes,
//! numbers, booleans, null). Numbers parse to `Value::Int` when they are
//! integral and fit `i64`, to `Value::UInt` when they fit only `u64`, and to
//! `Value::Float` otherwise, so integer identifiers survive round trips
//! exactly. Nesting deeper than [`MAX_DEPTH`] is an error, not a stack
//! overflow.
//!
//! **Write side.** A message renders itself once, as [`Emit`] events into
//! a [`Sink`]; [`JsonSink`] turns them into compact text byte-identical to
//! [`to_string`] of the same tree, [`ValueSink`] into the tree itself, and
//! other encodings bring their own sink.
//!
//! **Read side.** The grammar fills a flat, reusable [`Tape`]: one slot
//! per value in document order, strings as offsets into the input (only
//! escaped strings are copied, into a buffer the tape owns), containers
//! with their length and the slot past their end. [`Node`] is read access
//! to one value that a tape slot and a `&Value` both give, so a reader
//! written once against it serves text, other framings that fill a tape,
//! and trees alike. [`from_str`] builds its tree from the tape.

pub use serde::{Map, Value};

use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::io::Write as _;

/// Errors from rendering or parsing JSON.
pub type Error = serde::Error;

/// The deepest nesting any reader of untrusted input accepts: the root
/// value sits at depth 0, and a value below more than this many
/// containers is refused. Shared with the service's binary decoder.
pub const MAX_DEPTH: usize = 128;

/// Serialises `value` to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    render(&mut out, &value.to_value(), None, 0);
    Ok(utf8(out))
}

/// Serialises `value` to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = Vec::new();
    render(&mut out, &value.to_value(), Some(2), 0);
    Ok(utf8(out))
}

/// Converts any serialisable value into a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    Ok(value.to_value())
}

/// Reconstructs a `T` from a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: &Value) -> Result<T, Error> {
    T::from_value(value)
}

/// Parses JSON text into any deserialisable type (including [`Value`]).
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    with_parsed(text, |root| T::from_owned(root.to_value()))
}

/// Compact JSON text of `message`, rendered straight from its events.
pub fn emit_to_string<M: Emit + ?Sized>(message: &M) -> String {
    let mut out = Vec::with_capacity(128);
    message.emit(&mut JsonSink::new(&mut out));
    utf8(out)
}

/// The [`Value`] tree of `message`.
pub fn emit_to_value<M: Emit + ?Sized>(message: &M) -> Value {
    let mut sink = ValueSink::default();
    message.emit(&mut sink);
    sink.finish()
}

/// Every renderer here writes whole UTF-8 sequences: strings are copied
/// from `&str` and escapes are ASCII.
fn utf8(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("rendered JSON is UTF-8")
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

/// Appends `value` as compact JSON text.
fn write_value(out: &mut Vec<u8>, value: &Value) {
    render(out, value, None, 0);
}

fn render(out: &mut Vec<u8>, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.extend_from_slice(b"null"),
        Value::Bool(b) => write_bool(out, *b),
        Value::Int(i) => write_i64(out, *i),
        Value::UInt(u) => write_u64(out, *u),
        Value::Float(f) => write_f64(out, *f),
        Value::Str(s) => write_str(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.extend_from_slice(b"[]");
                return;
            }
            out.push(b'[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_newline_indent(out, indent, depth + 1);
                render(out, item, indent, depth + 1);
            }
            write_newline_indent(out, indent, depth);
            out.push(b']');
        }
        Value::Object(map) => {
            if map.is_empty() {
                out.extend_from_slice(b"{}");
                return;
            }
            out.push(b'{');
            for (i, (key, value)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(b',');
                }
                write_newline_indent(out, indent, depth + 1);
                write_str(out, key);
                out.push(b':');
                if indent.is_some() {
                    out.push(b' ');
                }
                render(out, value, indent, depth + 1);
            }
            write_newline_indent(out, indent, depth);
            out.push(b'}');
        }
    }
}

fn write_newline_indent(out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push(b'\n');
        out.resize(out.len() + width * depth, b' ');
    }
}

#[inline]
fn write_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Appends `u` in decimal.
#[inline]
fn write_u64(out: &mut Vec<u8>, mut u: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (u % 10) as u8;
        u /= 10;
        if u == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `i` in decimal.
#[inline]
fn write_i64(out: &mut Vec<u8>, i: i64) {
    if i < 0 {
        out.push(b'-');
    }
    write_u64(out, i.unsigned_abs());
}

/// Appends `f` as the shortest text that round-trips (integral values
/// print without a fraction, which is valid JSON). JSON has no NaN or
/// infinity, so non-finite values render as `null`, as serde_json does.
#[inline]
fn write_f64(out: &mut Vec<u8>, f: f64) {
    if f.is_finite() {
        let _ = write!(out, "{f}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Appends `s` as a JSON string literal: `"` and `\` escaped, `\n`,
/// `\r`, `\t` by name, other control characters as `\u00xx`, everything
/// else verbatim.
#[inline]
fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    let bytes = s.as_bytes();
    let mut plain = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => &[
                b'\\',
                b'u',
                b'0',
                b'0',
                HEX[(b >> 4) as usize],
                HEX[(b & 15) as usize],
            ],
            _ => continue,
        };
        out.extend_from_slice(&bytes[plain..i]);
        out.extend_from_slice(escape);
        plain = i + 1;
    }
    out.extend_from_slice(&bytes[plain..]);
    out.push(b'"');
}

// ---------------------------------------------------------------------------
// Write side: sinks
// ---------------------------------------------------------------------------

/// The receiving end of a message's rendering: the events of one JSON
/// value, in document order. A key is always followed by exactly one
/// value (a scalar, an embedded tree, or a whole container).
pub trait Sink {
    /// Opens an object; its entries follow as key/value pairs.
    fn begin_object(&mut self);
    /// Closes the innermost open object.
    fn end_object(&mut self);
    /// Opens an array; its elements follow.
    fn begin_array(&mut self);
    /// Closes the innermost open array.
    fn end_array(&mut self);
    /// The key of the next object entry.
    fn key(&mut self, key: &str);
    /// `null`.
    fn null(&mut self);
    /// `true` / `false`.
    fn bool(&mut self, b: bool);
    /// A signed integer.
    fn i64(&mut self, i: i64);
    /// An unsigned integer.
    fn u64(&mut self, u: u64);
    /// A float.
    fn f64(&mut self, f: f64);
    /// A string.
    fn str(&mut self, s: &str);
    /// A whole tree, for messages that carry one.
    fn value(&mut self, v: &Value);

    /// One object entry.
    fn entry<T: Emit + ?Sized>(&mut self, key: &str, value: &T)
    where
        Self: Sized,
    {
        self.key(key);
        value.emit(self);
    }

    /// One object entry when `value` is present; nothing when it is not.
    fn opt_entry<T: Emit>(&mut self, key: &str, value: &Option<T>)
    where
        Self: Sized,
    {
        if let Some(value) = value {
            self.entry(key, value);
        }
    }
}

/// A type that renders itself as sink events.
pub trait Emit {
    /// Renders `self` into `sink`.
    fn emit<S: Sink>(&self, sink: &mut S);
}

impl<T: Emit + ?Sized> Emit for &T {
    fn emit<S: Sink>(&self, sink: &mut S) {
        (**self).emit(sink)
    }
}

impl Emit for bool {
    fn emit<S: Sink>(&self, sink: &mut S) {
        sink.bool(*self)
    }
}

impl Emit for u64 {
    fn emit<S: Sink>(&self, sink: &mut S) {
        sink.u64(*self)
    }
}

impl Emit for usize {
    fn emit<S: Sink>(&self, sink: &mut S) {
        sink.u64(*self as u64)
    }
}

impl Emit for f64 {
    fn emit<S: Sink>(&self, sink: &mut S) {
        sink.f64(*self)
    }
}

impl Emit for str {
    fn emit<S: Sink>(&self, sink: &mut S) {
        sink.str(self)
    }
}

impl Emit for String {
    fn emit<S: Sink>(&self, sink: &mut S) {
        sink.str(self)
    }
}

impl Emit for Value {
    fn emit<S: Sink>(&self, sink: &mut S) {
        sink.value(self)
    }
}

/// `null` when absent. For a field that is left out when absent, see
/// [`Sink::opt_entry`].
impl<T: Emit> Emit for Option<T> {
    fn emit<S: Sink>(&self, sink: &mut S) {
        match self {
            Some(value) => value.emit(sink),
            None => sink.null(),
        }
    }
}

impl<T: Emit> Emit for [T] {
    fn emit<S: Sink>(&self, sink: &mut S) {
        sink.begin_array();
        for item in self {
            item.emit(sink);
        }
        sink.end_array();
    }
}

impl<T: Emit> Emit for Vec<T> {
    fn emit<S: Sink>(&self, sink: &mut S) {
        self.as_slice().emit(sink)
    }
}

/// Renders sink events as compact JSON text, byte for byte what
/// [`to_string`] renders for the tree [`ValueSink`] builds from the same
/// events.
pub struct JsonSink<'a> {
    out: &'a mut Vec<u8>,
    /// Whether the next key or element needs a separating comma.
    comma: bool,
}

impl<'a> JsonSink<'a> {
    /// A sink appending to `out`.
    #[inline]
    pub fn new(out: &'a mut Vec<u8>) -> JsonSink<'a> {
        JsonSink { out, comma: false }
    }

    /// Separates the next item from its predecessor; every item but a
    /// key is followed by one.
    #[inline]
    fn item(&mut self) -> &mut Vec<u8> {
        if self.comma {
            self.out.push(b',');
        }
        self.comma = true;
        self.out
    }
}

impl Sink for JsonSink<'_> {
    #[inline]
    fn begin_object(&mut self) {
        self.item().push(b'{');
        self.comma = false;
    }
    #[inline]
    fn end_object(&mut self) {
        self.out.push(b'}');
        self.comma = true;
    }
    #[inline]
    fn begin_array(&mut self) {
        self.item().push(b'[');
        self.comma = false;
    }
    #[inline]
    fn end_array(&mut self) {
        self.out.push(b']');
        self.comma = true;
    }
    #[inline]
    fn key(&mut self, key: &str) {
        write_str(self.item(), key);
        self.out.push(b':');
        self.comma = false;
    }
    #[inline]
    fn null(&mut self) {
        self.item().extend_from_slice(b"null");
    }
    #[inline]
    fn bool(&mut self, b: bool) {
        write_bool(self.item(), b);
    }
    #[inline]
    fn i64(&mut self, i: i64) {
        write_i64(self.item(), i);
    }
    #[inline]
    fn u64(&mut self, u: u64) {
        write_u64(self.item(), u);
    }
    #[inline]
    fn f64(&mut self, f: f64) {
        write_f64(self.item(), f);
    }
    #[inline]
    fn str(&mut self, s: &str) {
        write_str(self.item(), s);
    }
    #[inline]
    fn value(&mut self, v: &Value) {
        write_value(self.item(), v);
    }
}

/// Builds the [`Value`] tree of the events it receives: `u64`s become
/// `Value::UInt`, `i64`s `Value::Int`.
#[derive(Default)]
pub struct ValueSink {
    open: Vec<Open>,
    done: Option<Value>,
}

enum Open {
    Array(Vec<Value>),
    Object(Map, String),
}

impl ValueSink {
    /// The finished tree (`null` when nothing was emitted).
    pub fn finish(self) -> Value {
        self.done.unwrap_or(Value::Null)
    }

    fn put(&mut self, v: Value) {
        match self.open.last_mut() {
            None => self.done = Some(v),
            Some(Open::Array(items)) => items.push(v),
            Some(Open::Object(map, key)) => map.insert(std::mem::take(key), v),
        }
    }
}

impl Sink for ValueSink {
    fn begin_object(&mut self) {
        self.open.push(Open::Object(Map::new(), String::new()));
    }
    fn end_object(&mut self) {
        if let Some(Open::Object(map, _)) = self.open.pop() {
            self.put(Value::Object(map));
        }
    }
    fn begin_array(&mut self) {
        self.open.push(Open::Array(Vec::new()));
    }
    fn end_array(&mut self) {
        if let Some(Open::Array(items)) = self.open.pop() {
            self.put(Value::Array(items));
        }
    }
    fn key(&mut self, k: &str) {
        if let Some(Open::Object(_, key)) = self.open.last_mut() {
            *key = k.to_string();
        }
    }
    fn null(&mut self) {
        self.put(Value::Null);
    }
    fn bool(&mut self, b: bool) {
        self.put(Value::Bool(b));
    }
    fn i64(&mut self, i: i64) {
        self.put(Value::Int(i));
    }
    fn u64(&mut self, u: u64) {
        self.put(Value::UInt(u));
    }
    fn f64(&mut self, f: f64) {
        self.put(Value::Float(f));
    }
    fn str(&mut self, s: &str) {
        self.put(Value::Str(s.to_string()));
    }
    fn value(&mut self, v: &Value) {
        self.put(v.clone());
    }
}

// ---------------------------------------------------------------------------
// Read side: the tape
// ---------------------------------------------------------------------------

/// One value on a [`Tape`].
#[derive(Debug, Clone, Copy)]
enum Slot {
    Null,
    Bool(bool),
    Int(i64),
    UInt(u64),
    Float(f64),
    /// `len` bytes at `at` of the input, or of the tape's own buffer
    /// when `owned` (a string that had escapes).
    Str {
        at: u32,
        len: u32,
        owned: bool,
    },
    /// An object key: a string, and the slot of the key before it (the
    /// object's own slot for its first key).
    Key {
        at: u32,
        len: u32,
        owned: bool,
        prev: u32,
    },
    /// `len` elements; `end` is the slot past the last descendant.
    Array {
        len: u32,
        end: u32,
    },
    /// `len` key/value pairs, the last key at `last` (the object's own
    /// slot when empty); `end` as above. A lookup walks the keys from
    /// the last, so the first match is the last of duplicate keys.
    Object {
        len: u32,
        end: u32,
        last: u32,
    },
}

/// A parsed value in flat form, reused from parse to parse. It borrows
/// nothing: string slots are offsets into the input, so every read goes
/// through [`Tape::root`] with the same input the tape was filled from.
#[derive(Debug, Default)]
pub struct Tape {
    slots: Vec<Slot>,
    owned: Vec<u8>,
}

/// Slots a tape keeps allocated between parses; one huge document does
/// not pin its memory for the rest of the tape's life.
const RETAINED_SLOTS: usize = 1 << 14;

impl Tape {
    /// An empty tape.
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Parses `text` as one JSON document, replacing the tape's contents,
    /// and returns its root.
    pub fn parse<'a>(&'a mut self, text: &'a str) -> Result<TapeNode<'a>, Error> {
        self.clear();
        if u32::try_from(text.len()).is_err() {
            return Err(Error::msg("JSON text longer than 4 GiB"));
        }
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_whitespace();
        parser.parse_value(self, 0).map_err(|e| *e)?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(Error::msg(format!(
                "trailing characters at byte {}",
                parser.pos
            )));
        }
        Ok(self.root(text.as_bytes()))
    }

    /// Empties the tape for another document.
    pub fn clear(&mut self) {
        if self.slots.capacity() > RETAINED_SLOTS {
            *self = Tape::new();
        }
        self.slots.clear();
        self.owned.clear();
    }

    /// The first value on the tape, read against `input`, the bytes the
    /// tape was filled from. Panics on an empty tape: only a filled one
    /// has a root.
    pub fn root<'a>(&'a self, input: &'a [u8]) -> TapeNode<'a> {
        assert!(!self.slots.is_empty(), "an empty tape has no root");
        TapeNode {
            tape: self,
            input,
            at: 0,
        }
    }

    /// Appends `null`.
    pub fn push_null(&mut self) {
        self.slots.push(Slot::Null);
    }

    /// Appends a bool.
    pub fn push_bool(&mut self, b: bool) {
        self.slots.push(Slot::Bool(b));
    }

    /// Appends a signed integer.
    pub fn push_i64(&mut self, i: i64) {
        self.slots.push(Slot::Int(i));
    }

    /// Appends an unsigned integer, as a signed one when it fits: the
    /// normal form every grammar here reads integers into.
    pub fn push_u64(&mut self, u: u64) {
        self.slots.push(match i64::try_from(u) {
            Ok(i) => Slot::Int(i),
            Err(_) => Slot::UInt(u),
        });
    }

    /// Appends a float.
    pub fn push_f64(&mut self, f: f64) {
        self.slots.push(Slot::Float(f));
    }

    /// Appends the string held, as valid UTF-8, by `len` bytes at `at` of
    /// the input. Both fit `u32`: fillers refuse larger inputs.
    pub fn push_str(&mut self, at: usize, len: usize) {
        self.slots.push(Slot::Str {
            at: at as u32,
            len: len as u32,
            owned: false,
        });
    }

    /// Appends an object key, held as [`Tape::push_str`] holds a string,
    /// following the key at `prev` (for an object's first key, the slot
    /// [`Tape::open`] returned), and returns its slot.
    pub fn push_key(&mut self, at: usize, len: usize, prev: usize) -> usize {
        self.push_str(at, len);
        self.key_last(prev)
    }

    /// Makes the string just pushed an object key following `prev`, and
    /// returns its slot.
    fn key_last(&mut self, prev: usize) -> usize {
        let last = self.slots.len() - 1;
        if let Slot::Str { at, len, owned } = self.slots[last] {
            self.slots[last] = Slot::Key {
                at,
                len,
                owned,
                prev: prev as u32,
            };
        }
        last
    }

    /// Appends a placeholder for a container and returns its index, for
    /// [`Tape::close_array`] or [`Tape::close_object`] once its contents
    /// are on the tape.
    pub fn open(&mut self) -> usize {
        self.slots.push(Slot::Null);
        self.slots.len() - 1
    }

    /// Completes the array opened at `open` with `len` elements.
    pub fn close_array(&mut self, open: usize, len: usize) {
        let end = self.slots.len() as u32;
        self.slots[open] = Slot::Array {
            len: len as u32,
            end,
        };
    }

    /// Completes the object opened at `open` with `len` entries, whose
    /// last key is at `last` (`open` itself when there are none).
    pub fn close_object(&mut self, open: usize, len: usize, last: usize) {
        let end = self.slots.len() as u32;
        self.slots[open] = Slot::Object {
            len: len as u32,
            end,
            last: last as u32,
        };
    }
}

thread_local! {
    static TAPE: Cell<Tape> = const {
        Cell::new(Tape {
            slots: Vec::new(),
            owned: Vec::new(),
        })
    };
}

/// Runs `f` on the calling thread's reusable tape (a fresh one if `f`
/// is already running further up the stack).
#[inline]
pub fn with_tape<R>(f: impl FnOnce(&mut Tape) -> R) -> R {
    let mut tape = TAPE.take();
    let result = f(&mut tape);
    TAPE.set(tape);
    result
}

/// Parses `text` into the calling thread's tape and reads its root.
pub fn with_parsed<R>(
    text: &str,
    read: impl FnOnce(TapeNode<'_>) -> Result<R, Error>,
) -> Result<R, Error> {
    with_tape(|tape| read(tape.parse(text)?))
}

/// One value on a [`Tape`], with the input its strings live in.
#[derive(Debug, Clone, Copy)]
pub struct TapeNode<'a> {
    tape: &'a Tape,
    input: &'a [u8],
    at: usize,
}

impl<'a> TapeNode<'a> {
    #[inline]
    fn slot(self) -> Slot {
        self.tape.slots[self.at]
    }

    #[inline]
    fn to(self, at: usize) -> TapeNode<'a> {
        TapeNode { at, ..self }
    }

    /// The slot past this value and its descendants.
    #[inline]
    fn next(self) -> usize {
        match self.slot() {
            Slot::Array { end, .. } | Slot::Object { end, .. } => end as usize,
            _ => self.at + 1,
        }
    }

    /// The `len` elements of this array.
    #[inline]
    fn elements(self, len: u32) -> TapeItems<'a> {
        TapeItems {
            next: self.to(self.at + 1),
            left: len as usize,
        }
    }

    #[inline]
    fn str_bytes(self) -> Option<&'a [u8]> {
        let (Slot::Str { at, len, owned } | Slot::Key { at, len, owned, .. }) = self.slot() else {
            return None;
        };
        let source = if owned { &self.tape.owned } else { self.input };
        source.get(at as usize..at as usize + len as usize)
    }
}

/// The elements of an array on a [`Tape`].
#[derive(Debug, Clone)]
pub struct TapeItems<'a> {
    next: TapeNode<'a>,
    left: usize,
}

impl<'a> Iterator for TapeItems<'a> {
    type Item = TapeNode<'a>;

    #[inline]
    fn next(&mut self) -> Option<TapeNode<'a>> {
        self.left = self.left.checked_sub(1)?;
        let item = self.next;
        self.next = item.to(item.next());
        Some(item)
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// Read access to one JSON value, wherever it is held. Implemented by
/// `&Value` and by [`TapeNode`], so one reader serves both.
pub trait Node<'a>: Copy {
    /// The elements of an array.
    type Items: Iterator<Item = Self>;

    /// Member lookup on objects (the last of duplicate keys wins);
    /// `None` for any other kind of value.
    fn get(self, key: &str) -> Option<Self>;
    /// True for `null`.
    fn is_null(self) -> bool;
    /// The value as a bool, if it is one.
    fn as_bool(self) -> Option<bool>;
    /// The value as a `u64`, if it is a non-negative integer.
    fn as_u64(self) -> Option<u64>;
    /// The value as an `f64`, if it is any kind of number.
    fn as_f64(self) -> Option<f64>;
    /// The value as a string slice, if it is a string.
    fn as_str(self) -> Option<&'a str>;
    /// The elements, if the value is an array.
    fn items(self) -> Option<Self::Items>;
    /// The value as an owned tree.
    fn to_value(self) -> Value;
}

impl<'a> Node<'a> for &'a Value {
    type Items = std::slice::Iter<'a, Value>;

    fn get(self, key: &str) -> Option<Self> {
        Value::get(self, key)
    }
    fn is_null(self) -> bool {
        Value::is_null(self)
    }
    fn as_bool(self) -> Option<bool> {
        Value::as_bool(self)
    }
    fn as_u64(self) -> Option<u64> {
        Value::as_u64(self)
    }
    fn as_f64(self) -> Option<f64> {
        Value::as_f64(self)
    }
    fn as_str(self) -> Option<&'a str> {
        Value::as_str(self)
    }
    fn items(self) -> Option<Self::Items> {
        Value::as_array(self).map(|items| items.iter())
    }
    fn to_value(self) -> Value {
        self.clone()
    }
}

impl<'a> Node<'a> for TapeNode<'a> {
    type Items = TapeItems<'a>;

    #[inline]
    fn get(self, key: &str) -> Option<Self> {
        let Slot::Object { last, .. } = self.slot() else {
            return None;
        };
        let key = key.as_bytes();
        let mut at = last as usize;
        while at != self.at {
            let Slot::Key { len, prev, .. } = self.tape.slots[at] else {
                return None;
            };
            // Lengths first: most keys differ from the one sought in length.
            if len as usize == key.len()
                && self
                    .to(at)
                    .str_bytes()
                    .is_some_and(|k| k.iter().zip(key).all(|(a, b)| a == b))
            {
                return Some(self.to(at + 1));
            }
            at = prev as usize;
        }
        None
    }
    #[inline]
    fn is_null(self) -> bool {
        matches!(self.slot(), Slot::Null)
    }
    #[inline]
    fn as_bool(self) -> Option<bool> {
        match self.slot() {
            Slot::Bool(b) => Some(b),
            _ => None,
        }
    }
    #[inline]
    fn as_u64(self) -> Option<u64> {
        match self.slot() {
            Slot::Int(i) => u64::try_from(i).ok(),
            Slot::UInt(u) => Some(u),
            _ => None,
        }
    }
    #[inline]
    fn as_f64(self) -> Option<f64> {
        match self.slot() {
            Slot::Int(i) => Some(i as f64),
            Slot::UInt(u) => Some(u as f64),
            Slot::Float(f) => Some(f),
            _ => None,
        }
    }
    #[inline]
    fn as_str(self) -> Option<&'a str> {
        std::str::from_utf8(self.str_bytes()?).ok()
    }
    #[inline]
    fn items(self) -> Option<TapeItems<'a>> {
        match self.slot() {
            Slot::Array { len, .. } => Some(self.elements(len)),
            _ => None,
        }
    }
    fn to_value(self) -> Value {
        match self.slot() {
            Slot::Null => Value::Null,
            Slot::Bool(b) => Value::Bool(b),
            Slot::Int(i) => Value::Int(i),
            Slot::UInt(u) => Value::UInt(u),
            Slot::Float(f) => Value::Float(f),
            Slot::Str { .. } | Slot::Key { .. } => {
                Value::Str(self.as_str().unwrap_or_default().to_string())
            }
            Slot::Array { len, .. } => {
                Value::Array(self.elements(len).map(Node::to_value).collect())
            }
            Slot::Object { len, .. } => {
                let mut map = Map::with_capacity(len as usize);
                let mut at = self.at + 1;
                for _ in 0..len {
                    let (key, value) = (self.to(at), self.to(at + 1));
                    map.insert(
                        key.as_str().unwrap_or_default().to_string(),
                        value.to_value(),
                    );
                    at = value.next();
                }
                Value::Object(map)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// The grammar's result. The error is boxed so that the happy path,
/// taken on every token, returns in a register.
type Parsed = Result<(), Box<Error>>;

#[cold]
fn fail(message: impl Into<String>) -> Box<Error> {
    Box::new(Error::msg(message))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Parsed {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(fail(format!(
                "expected {:?} at byte {}",
                b as char,
                self.pos.saturating_sub(1)
            )))
        }
    }

    fn expect_keyword(&mut self, keyword: &str) -> Parsed {
        if self.bytes[self.pos..].starts_with(keyword.as_bytes()) {
            self.pos += keyword.len();
            Ok(())
        } else {
            Err(fail(format!("invalid literal at byte {}", self.pos)))
        }
    }

    #[inline(always)]
    fn parse_value(&mut self, tape: &mut Tape, depth: usize) -> Parsed {
        if depth > MAX_DEPTH {
            return Err(fail(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            )));
        }
        match self.peek() {
            Some(b'n') => {
                self.expect_keyword("null")?;
                tape.push_null();
            }
            Some(b't') => {
                self.expect_keyword("true")?;
                tape.push_bool(true);
            }
            Some(b'f') => {
                self.expect_keyword("false")?;
                tape.push_bool(false);
            }
            Some(b'"') => self.parse_string(tape)?,
            Some(b'[') => self.parse_array(tape, depth)?,
            Some(b'{') => self.parse_object(tape, depth)?,
            Some(b'-' | b'0'..=b'9') => self.parse_number(tape)?,
            other => {
                return Err(fail(format!(
                    "unexpected {:?} at byte {}",
                    other.map(|b| b as char),
                    self.pos
                )))
            }
        }
        Ok(())
    }

    #[inline(never)]
    fn parse_array(&mut self, tape: &mut Tape, depth: usize) -> Parsed {
        self.expect(b'[')?;
        let open = tape.open();
        let mut len = 0;
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                self.skip_whitespace();
                self.parse_value(tape, depth + 1)?;
                len += 1;
                self.skip_whitespace();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b']') => break,
                    _ => return Err(fail("expected ',' or ']' in array")),
                }
            }
        }
        tape.close_array(open, len);
        Ok(())
    }

    #[inline(never)]
    fn parse_object(&mut self, tape: &mut Tape, depth: usize) -> Parsed {
        self.expect(b'{')?;
        let open = tape.open();
        let mut last = open;
        let mut len = 0;
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                self.skip_whitespace();
                self.parse_string(tape)?;
                last = tape.key_last(last);
                self.skip_whitespace();
                self.expect(b':')?;
                self.skip_whitespace();
                self.parse_value(tape, depth + 1)?;
                len += 1;
                self.skip_whitespace();
                match self.bump() {
                    Some(b',') => continue,
                    Some(b'}') => break,
                    _ => return Err(fail("expected ',' or '}' in object")),
                }
            }
        }
        tape.close_object(open, len, last);
        Ok(())
    }

    /// Advances over a run of bytes a string holds verbatim.
    fn skip_plain(&mut self) {
        let rest = &self.bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
            .unwrap_or(rest.len());
    }

    /// A string with no escapes becomes a slot pointing into the input;
    /// one with escapes is unescaped into the tape's own buffer. Runs end
    /// only at ASCII bytes, so both stay valid UTF-8.
    #[inline(always)]
    fn parse_string(&mut self, tape: &mut Tape) -> Parsed {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            tape.push_str(start, self.pos - start);
            self.pos += 1;
            return Ok(());
        }
        let at = tape.owned.len();
        tape.owned.extend_from_slice(&self.bytes[start..self.pos]);
        loop {
            match self.bump() {
                Some(b'"') => {
                    tape.slots.push(Slot::Str {
                        at: at as u32,
                        len: (tape.owned.len() - at) as u32,
                        owned: true,
                    });
                    return Ok(());
                }
                Some(b'\\') => self.parse_escape(&mut tape.owned)?,
                _ => return Err(fail("unterminated string")),
            }
            let run = self.pos;
            self.skip_plain();
            tape.owned.extend_from_slice(&self.bytes[run..self.pos]);
        }
    }

    fn parse_escape(&mut self, out: &mut Vec<u8>) -> Parsed {
        let c = match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let code = self.parse_hex4()?;
                // Surrogate pairs for non-BMP characters.
                let c = if (0xd800..0xdc00).contains(&code) {
                    self.expect(b'\\')?;
                    self.expect(b'u')?;
                    let low = self.parse_hex4()?;
                    (0xdc00..0xe000)
                        .contains(&low)
                        .then(|| 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00))
                        .and_then(char::from_u32)
                } else {
                    char::from_u32(code)
                };
                c.ok_or_else(|| fail("invalid \\u escape"))?
            }
            _ => return Err(fail("invalid escape in string")),
        };
        out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
        Ok(())
    }

    fn parse_hex4(&mut self) -> Result<u32, Box<Error>> {
        let mut code = 0u32;
        for _ in 0..4 {
            let b = self.bump().ok_or_else(|| fail("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| fail("invalid hex digit in \\u escape"))?;
            code = code * 16 + digit;
        }
        Ok(code)
    }

    #[inline(always)]
    fn parse_number(&mut self, tape: &mut Tape) -> Parsed {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // The common case, a short integer, is read as it is scanned:
        // nineteen digits cannot overflow `u64`.
        let digits = self.pos;
        let mut magnitude = 0u64;
        while let Some(&b @ b'0'..=b'9') = self.bytes.get(self.pos) {
            magnitude = magnitude * 10 + u64::from(b - b'0');
            self.pos += 1;
            if self.pos - digits == 19 {
                break;
            }
        }
        let is_float = |b: u8| matches!(b, b'.' | b'e' | b'E' | b'+' | b'-');
        let more = self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || is_float(b));
        if !more && self.pos > digits {
            if !negative {
                tape.push_u64(magnitude);
                return Ok(());
            }
            if let Ok(m) = i64::try_from(magnitude) {
                tape.push_i64(-m);
                return Ok(());
            }
        }
        let mut float = false;
        while let Some(b) = self.peek().filter(|&b| b.is_ascii_digit() || is_float(b)) {
            float |= is_float(b);
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| fail("invalid number"))?;
        if !float {
            if let Ok(i) = text.parse::<i64>() {
                tape.push_i64(i);
                return Ok(());
            }
            if let Ok(u) = text.parse::<u64>() {
                tape.push_u64(u);
                return Ok(());
            }
        }
        let f = text
            .parse::<f64>()
            .map_err(|_| fail(format!("invalid number {text:?}")))?;
        tape.push_f64(f);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips_through_text() {
        let mut obj = Map::new();
        obj.insert("name".into(), Value::Str("mesh \"A\"\n".into()));
        obj.insert("count".into(), Value::Int(-3));
        obj.insert("big".into(), Value::UInt(u64::MAX));
        obj.insert("ratio".into(), Value::Float(0.25));
        obj.insert(
            "items".into(),
            Value::Array(vec![Value::Bool(true), Value::Null]),
        );
        let v = Value::Object(obj);
        let compact = to_string(&v).unwrap();
        let parsed: Value = from_str(&compact).unwrap();
        assert_eq!(parsed, v);
        let pretty = to_string_pretty(&v).unwrap();
        let parsed_pretty: Value = from_str(&pretty).unwrap();
        assert_eq!(parsed_pretty, v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn integers_stay_exact() {
        let parsed: Value = from_str("9007199254740993").unwrap();
        assert_eq!(parsed, Value::Int(9007199254740993));
        assert_eq!(to_string(&parsed).unwrap(), "9007199254740993");
        let parsed: Value = from_str("18446744073709551615").unwrap();
        assert_eq!(parsed, Value::UInt(u64::MAX));
        assert_eq!(
            to_string(&Value::Int(i64::MIN)).unwrap(),
            "-9223372036854775808"
        );
    }

    #[test]
    fn unicode_escapes_parse() {
        let parsed: String = from_str(r#""aé😀b""#).unwrap();
        assert_eq!(parsed, "aé😀b");
        let parsed: String = from_str(r#""A😀\n""#).unwrap();
        assert_eq!(parsed, "A😀\n");
        // A high surrogate needs a low one after it.
        assert!(from_str::<Value>(r#""\ud83dA""#).is_err());
        assert!(from_str::<Value>(r#""\ude00""#).is_err());
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("tru").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Value>("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        // The innermost of n arrays sits at depth n - 1.
        assert!(from_str::<Value>(&nested(MAX_DEPTH + 1)).is_ok());
        let err = from_str::<Value>(&nested(MAX_DEPTH + 2)).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!("nesting deeper than {MAX_DEPTH} at byte {}", MAX_DEPTH + 1)
        );
        // Far past the cap is the same error, not a stack overflow.
        assert!(from_str::<Value>(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn duplicate_keys_resolve_to_the_last() {
        let mut tape = Tape::new();
        let root = tape.parse(r#"{"a":1,"b":[2,{"a":3}],"a":4}"#).unwrap();
        assert_eq!(root.get("a").and_then(Node::as_u64), Some(4));
        let b: Vec<Value> = root
            .get("b")
            .and_then(Node::items)
            .unwrap()
            .map(Node::to_value)
            .collect();
        assert_eq!(b.len(), 2);
        let tree: Value = from_str(r#"{"a":1,"b":[2,{"a":3}],"a":4}"#).unwrap();
        assert_eq!(root.to_value(), tree);
        assert_eq!(tree.get("a"), Some(&Value::Int(4)));
    }

    #[test]
    fn json_sink_renders_what_to_string_renders() {
        let tree: Value =
            from_str(r#"{"s":"q\"\\\u0001\t","n":[-1,18446744073709551615,0.5,1e300],"e":{},"a":[],"z":null,"t":true}"#)
                .unwrap();
        let mut out = Vec::new();
        let mut sink = JsonSink::new(&mut out);
        sink.begin_object();
        sink.entry("tree", &tree);
        sink.entry("f", &f64::INFINITY);
        sink.key("list");
        vec![1u64, 2].emit(&mut sink);
        sink.end_object();
        let mut expected = Map::new();
        expected.insert("tree".into(), tree);
        expected.insert("f".into(), Value::Float(f64::INFINITY));
        expected.insert(
            "list".into(),
            Value::Array(vec![Value::UInt(1), Value::UInt(2)]),
        );
        let expected = Value::Object(expected);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            to_string(&expected).unwrap()
        );
    }

    #[test]
    fn nonfinite_floats_render_null() {
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }
}
