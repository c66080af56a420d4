//! The `LHDC` container: one versioned on-disk format for every artifact.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "LHDC"
//! 4       4     format version (u32, currently 1)
//! 8       1     artifact type  (1 = model, 2 = bundle, 3 = encoded corpus)
//! 9       1     compression    (0 = stored; 1 = bit-plane RLE, read only)
//! 10      2     reserved, must be zero
//! 12      4     metadata length in bytes (u32)
//! 16      8     aux section length in bytes (u64)
//! 24      8     word-plane payload length in bytes (u64, multiple of 8)
//! 32      —     metadata: flat JSON object
//! …       —     aux section (artifact-specific)
//! …       —     zero padding so the payload starts on a 64-byte boundary
//! …       —     word planes: packed u64 hypervector words
//! ```
//!
//! The header records the section lengths, so a reader can seek straight
//! to the aligned payload and pull every hypervector word with a single
//! bulk read — no per-field (let alone per-bit) parsing on the serve SWAP
//! path.
//!
//! Every container is written with stored sections (compression byte 0).
//! Files written by earlier versions may carry compression byte 1: their
//! metadata and aux sections were packed with a small bit-plane RLE codec
//! (an LEB128 varint layer over a stride-transposed, bit-plane-split
//! input), which [`unpack`] still decodes. Nothing writes it any more: the
//! word planes are incompressible, and on the sections it saved bytes only
//! where a bundle carries a wide normalizer table, while its framing made
//! narrower bundles and distillations bigger (DESIGN.md §10 has the
//! measurements).

use std::io::{Read, Write};

use crate::error::LehdcError;

/// First four bytes of every container file.
pub const MAGIC: [u8; 4] = *b"LHDC";

/// Current container format version.
pub const VERSION: u32 = 1;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 32;

/// Word-plane payload alignment: one cache line, so an aligned bulk read
/// lands the planes ready for the word-level kernels.
pub const PAYLOAD_ALIGN: usize = 64;

/// Caps on the header length fields: anything beyond these is a corrupt or
/// hostile file. Below them, memory still follows the bytes actually in
/// the file (see [`read_section`]), never the lengths the header claims.
const MAX_META_LEN: u64 = 1 << 22; // 4 MiB of metadata JSON
const MAX_AUX_LEN: u64 = 1 << 31; // 2 GiB of labels / normalizer tables
const MAX_PLANES_LEN: u64 = 1 << 37; // 128 GiB of packed hypervectors

/// What a container holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// A bare [`crate::HdcModel`]: class hypervectors only.
    Model,
    /// A deployable [`crate::io::ModelBundle`]: model + encoder spec +
    /// normalizer + optional distillation selection.
    Bundle,
    /// An encoded corpus ([`crate::EncodedDataset`]).
    Encoded,
}

impl Artifact {
    /// The type byte stored at offset 8.
    #[must_use]
    pub fn byte(self) -> u8 {
        match self {
            Artifact::Model => 1,
            Artifact::Bundle => 2,
            Artifact::Encoded => 3,
        }
    }

    /// Parses the type byte, rejecting unknown values.
    pub fn from_byte(b: u8) -> Result<Self, LehdcError> {
        match b {
            1 => Ok(Artifact::Model),
            2 => Ok(Artifact::Bundle),
            3 => Ok(Artifact::Encoded),
            other => Err(LehdcError::ModelFormat(format!(
                "unknown artifact type byte {other}"
            ))),
        }
    }

    /// Human-readable artifact name for error messages and `info`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Model => "model",
            Artifact::Bundle => "bundle",
            Artifact::Encoded => "encoded corpus",
        }
    }
}

/// How the metadata and aux sections are encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compression {
    /// Sections stored verbatim: byte 0, the only one written.
    Stored,
    /// Sections packed with the bit-plane RLE codec (see [`unpack`]):
    /// byte 1, read only.
    Packed,
}

impl Compression {
    /// Parses the compression byte, rejecting unknown values.
    pub fn from_byte(b: u8) -> Result<Self, LehdcError> {
        match b {
            0 => Ok(Compression::Stored),
            1 => Ok(Compression::Packed),
            other => Err(LehdcError::ModelFormat(format!(
                "unknown compression byte {other}"
            ))),
        }
    }

    /// Human-readable codec name for error messages and `info`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Compression::Stored => "stored",
            Compression::Packed => "packed",
        }
    }
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

/// Appends `v` as an LEB128 varint (7 payload bits per byte, high bit set
/// on every byte except the last).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7f) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads one LEB128 varint from `bytes` starting at `*pos`, advancing it.
pub fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, LehdcError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes
            .get(*pos)
            .ok_or_else(|| LehdcError::ModelFormat("varint truncated".into()))?;
        *pos += 1;
        if shift >= 63 && b > 1 {
            return Err(LehdcError::ModelFormat("varint overflows u64".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// Bit-plane RLE codec
// ---------------------------------------------------------------------------

/// Decompresses a packed section: `varint raw_len · varint stride · 8 RLE
/// bit planes`. Each plane holds one bit position of the stride-transposed
/// input (byte `i` of every `stride`-sized element, then byte `i+1`, …) as
/// varint run lengths alternating in value from a `0` run.
///
/// Streams claiming more than `max_len` raw bytes are rejected before any
/// allocation; every plane must cover exactly `raw_len` bits, and no bytes
/// may trail the final plane.
pub fn unpack(packed: &[u8], max_len: u64) -> Result<Vec<u8>, LehdcError> {
    let mut pos = 0usize;
    let raw_len = read_varint(packed, &mut pos)?;
    if raw_len > max_len {
        return Err(LehdcError::ModelFormat(format!(
            "compressed stream claims {raw_len} raw bytes, more than the {max_len} allowed"
        )));
    }
    let raw_len = raw_len as usize;
    let stride = read_varint(packed, &mut pos)? as usize;
    if stride == 0 || (raw_len > 0 && stride > raw_len) {
        return Err(LehdcError::ModelFormat(format!(
            "compressed stream has invalid stride {stride} for {raw_len} bytes"
        )));
    }
    let mut transposed = vec![0u8; raw_len];
    if raw_len > 0 {
        for plane in 0..8u32 {
            let mut covered = 0usize;
            let mut current = 0u8;
            loop {
                let run = read_varint(packed, &mut pos)? as usize;
                if run > raw_len - covered {
                    return Err(LehdcError::ModelFormat(format!(
                        "bit plane {plane} overruns the declared length"
                    )));
                }
                if current == 1 {
                    for byte in &mut transposed[covered..covered + run] {
                        *byte |= 1 << plane;
                    }
                }
                covered += run;
                if covered == raw_len {
                    break;
                }
                current ^= 1;
            }
        }
    }
    if pos != packed.len() {
        return Err(LehdcError::ModelFormat(
            "trailing bytes after the final bit plane".into(),
        ));
    }
    Ok(untranspose(&transposed, stride))
}

/// Undoes the column-major reorder: the tail element may be partial; its
/// bytes keep their column.
fn untranspose(data: &[u8], stride: usize) -> Vec<u8> {
    if stride <= 1 {
        return data.to_vec();
    }
    let mut out = vec![0u8; data.len()];
    let mut src = 0usize;
    for col in 0..stride {
        let mut i = col;
        while i < data.len() {
            out[i] = data[src];
            src += 1;
            i += stride;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Flat JSON metadata
// ---------------------------------------------------------------------------

/// A metadata value: the container's JSON is a single flat object.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaValue {
    /// Unsigned integer (dims, counts, seeds — never routed through f64,
    /// so 64-bit seeds survive exactly).
    U64(u64),
    /// Floating-point number.
    F64(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
}

/// Builds the flat metadata object in insertion order.
#[derive(Debug, Default)]
pub struct MetaWriter {
    fields: Vec<(String, MetaValue)>,
}

impl MetaWriter {
    /// Starts an empty object.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an unsigned integer field.
    pub fn u64(&mut self, key: &str, v: u64) -> &mut Self {
        self.fields.push((key.to_string(), MetaValue::U64(v)));
        self
    }

    /// Adds a float field.
    pub fn f64(&mut self, key: &str, v: f64) -> &mut Self {
        self.fields.push((key.to_string(), MetaValue::F64(v)));
        self
    }

    /// Adds a string field.
    pub fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.fields
            .push((key.to_string(), MetaValue::Str(v.to_string())));
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, v: bool) -> &mut Self {
        self.fields.push((key.to_string(), MetaValue::Bool(v)));
        self
    }

    /// Renders the object as one-line JSON.
    #[must_use]
    pub fn finish(&self) -> String {
        let mut out = String::from("{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&obs::json_escape(key));
            out.push_str("\":");
            match value {
                MetaValue::U64(v) => out.push_str(&v.to_string()),
                MetaValue::F64(v) => {
                    if v.is_finite() {
                        out.push_str(&format!("{v:?}"));
                    } else {
                        out.push_str("null");
                    }
                }
                MetaValue::Str(s) => {
                    out.push('"');
                    out.push_str(&obs::json_escape(s));
                    out.push('"');
                }
                MetaValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            }
        }
        out.push('}');
        out
    }
}

/// Parsed metadata with typed accessors that name the missing/mistyped key.
#[derive(Debug)]
pub struct Meta {
    fields: Vec<(String, MetaValue)>,
}

impl Meta {
    /// Looks a key up (first occurrence wins).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&MetaValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Required unsigned integer field.
    pub fn need_u64(&self, key: &str) -> Result<u64, LehdcError> {
        match self.get(key) {
            Some(MetaValue::U64(v)) => Ok(*v),
            Some(_) => Err(LehdcError::ModelFormat(format!(
                "metadata field {key:?} is not an unsigned integer"
            ))),
            None => Err(LehdcError::ModelFormat(format!(
                "metadata is missing field {key:?}"
            ))),
        }
    }

    /// Optional boolean field, defaulting to `false`.
    pub fn bool_or_false(&self, key: &str) -> Result<bool, LehdcError> {
        match self.get(key) {
            Some(MetaValue::Bool(b)) => Ok(*b),
            Some(_) => Err(LehdcError::ModelFormat(format!(
                "metadata field {key:?} is not a boolean"
            ))),
            None => Ok(false),
        }
    }

    /// Required `f32` recovered exactly from its `<key>_bits` companion
    /// (the decimal field is for human readers; the bits are authoritative).
    pub fn need_f32(&self, key: &str) -> Result<f32, LehdcError> {
        let bits = self.need_u64(&format!("{key}_bits"))?;
        u32::try_from(bits)
            .map(f32::from_bits)
            .map_err(|_| LehdcError::ModelFormat(format!("{key}_bits does not fit an f32")))
    }
}

/// Writes an `f32` as a human-readable decimal plus its exact bit pattern.
pub fn meta_f32(meta: &mut MetaWriter, key: &str, v: f32) {
    meta.f64(key, f64::from(v));
    meta.u64(&format!("{key}_bits"), u64::from(v.to_bits()));
}

/// Parses the flat JSON object produced by [`MetaWriter::finish`].
///
/// Accepts exactly the subset the writer emits (one object, string keys,
/// string / number / boolean / null values) — a full JSON parser is not
/// needed and not wanted in a hermetic workspace.
pub fn parse_meta(text: &str) -> Result<Meta, LehdcError> {
    let bad = |what: &str| LehdcError::ModelFormat(format!("metadata JSON: {what}"));
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let skip_ws = |pos: &mut usize| {
        while bytes
            .get(*pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            *pos += 1;
        }
    };
    skip_ws(&mut pos);
    if bytes.get(pos) != Some(&b'{') {
        return Err(bad("expected '{'"));
    }
    pos += 1;
    let mut fields = Vec::new();
    skip_ws(&mut pos);
    if bytes.get(pos) == Some(&b'}') {
        pos += 1;
    } else {
        loop {
            skip_ws(&mut pos);
            let key = parse_string(bytes, &mut pos)?;
            skip_ws(&mut pos);
            if bytes.get(pos) != Some(&b':') {
                return Err(bad("expected ':' after key"));
            }
            pos += 1;
            skip_ws(&mut pos);
            let value = match bytes.get(pos) {
                Some(b'"') => MetaValue::Str(parse_string(bytes, &mut pos)?),
                Some(b't') if bytes[pos..].starts_with(b"true") => {
                    pos += 4;
                    MetaValue::Bool(true)
                }
                Some(b'f') if bytes[pos..].starts_with(b"false") => {
                    pos += 5;
                    MetaValue::Bool(false)
                }
                Some(b'n') if bytes[pos..].starts_with(b"null") => {
                    pos += 4;
                    MetaValue::F64(f64::NAN)
                }
                Some(_) => parse_number(bytes, &mut pos)?,
                None => return Err(bad("truncated value")),
            };
            fields.push((key, value));
            skip_ws(&mut pos);
            match bytes.get(pos) {
                Some(b',') => pos += 1,
                Some(b'}') => {
                    pos += 1;
                    break;
                }
                _ => return Err(bad("expected ',' or '}'")),
            }
        }
    }
    skip_ws(&mut pos);
    if pos != bytes.len() {
        return Err(bad("trailing characters after the object"));
    }
    Ok(Meta { fields })
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, LehdcError> {
    let bad = |what: &str| LehdcError::ModelFormat(format!("metadata JSON: {what}"));
    if bytes.get(*pos) != Some(&b'"') {
        return Err(bad("expected '\"'"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(bad("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| bad("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex).map_err(|_| bad("bad \\u escape"))?;
                        let code =
                            u32::from_str_radix(hex, 16).map_err(|_| bad("bad \\u escape"))?;
                        out.push(char::from_u32(code).ok_or_else(|| bad("bad \\u code point"))?);
                        *pos += 4;
                    }
                    _ => return Err(bad("unknown escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one full UTF-8 scalar (the input is a &str, so
                // boundaries are guaranteed valid).
                let rest = &bytes[*pos..];
                let text = unsafe { std::str::from_utf8_unchecked(rest) };
                let ch = text.chars().next().ok_or_else(|| bad("bad UTF-8"))?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<MetaValue, LehdcError> {
    let bad = |what: &str| LehdcError::ModelFormat(format!("metadata JSON: {what}"));
    let start = *pos;
    while bytes
        .get(*pos)
        .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| bad("bad number"))?;
    if token.is_empty() {
        return Err(bad("expected a value"));
    }
    // Integers without fraction/exponent/sign stay exact u64 (seeds!).
    if token.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(v) = token.parse::<u64>() {
            return Ok(MetaValue::U64(v));
        }
    }
    token
        .parse::<f64>()
        .map(MetaValue::F64)
        .map_err(|_| bad("bad number"))
}

// ---------------------------------------------------------------------------
// Container write / read
// ---------------------------------------------------------------------------

/// A container read back into memory, payload as one contiguous word vec.
#[derive(Debug)]
pub struct Container {
    /// Artifact type byte, decoded.
    pub artifact: Artifact,
    /// Compression byte, decoded.
    pub compression: Compression,
    /// Metadata JSON, already decompressed.
    pub meta: String,
    /// Aux section, already decompressed.
    pub aux: Vec<u8>,
    /// All hypervector planes, concatenated in file order.
    pub words: Vec<u64>,
}

/// Writes a complete container with stored sections (compression byte 0);
/// `planes` are written back-to-back in order.
pub fn write_container<W: Write>(
    writer: &mut W,
    artifact: Artifact,
    meta_json: &str,
    aux: &[u8],
    planes: &[&[u64]],
) -> Result<(), LehdcError> {
    let meta_len = u32::try_from(meta_json.len())
        .map_err(|_| LehdcError::ModelFormat("metadata too large".into()))?;
    let planes_len: usize = planes.iter().map(|p| p.len() * 8).sum();

    writer.write_all(&MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&[artifact.byte(), 0, 0, 0])?;
    writer.write_all(&meta_len.to_le_bytes())?;
    writer.write_all(&(aux.len() as u64).to_le_bytes())?;
    writer.write_all(&(planes_len as u64).to_le_bytes())?;
    writer.write_all(meta_json.as_bytes())?;
    writer.write_all(aux)?;
    let written = HEADER_LEN + meta_json.len() + aux.len();
    let pad = (PAYLOAD_ALIGN - written % PAYLOAD_ALIGN) % PAYLOAD_ALIGN;
    writer.write_all(&[0u8; PAYLOAD_ALIGN][..pad])?;
    for plane in planes {
        // One bulk write per plane: u64 → LE bytes.
        let mut bytes = Vec::with_capacity(plane.len() * 8);
        for word in *plane {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        writer.write_all(&bytes)?;
    }
    Ok(())
}

/// Reads a container after its 4-byte magic has already been consumed
/// (the io-layer dispatcher peeks the magic to route legacy files).
pub fn read_container_after_magic<R: Read>(reader: &mut R) -> Result<Container, LehdcError> {
    let mut fixed = [0u8; HEADER_LEN - 4];
    reader.read_exact(&mut fixed).map_err(truncated)?;
    let version = u32::from_le_bytes(fixed[0..4].try_into().unwrap());
    if version != VERSION {
        return Err(LehdcError::ModelFormat(format!(
            "unsupported container version {version} (this build reads version {VERSION})"
        )));
    }
    let artifact = Artifact::from_byte(fixed[4])?;
    let compression = Compression::from_byte(fixed[5])?;
    if fixed[6] != 0 || fixed[7] != 0 {
        return Err(LehdcError::ModelFormat(
            "reserved header bytes are not zero".into(),
        ));
    }
    let meta_len = u64::from(u32::from_le_bytes(fixed[8..12].try_into().unwrap()));
    let aux_len = u64::from_le_bytes(fixed[12..20].try_into().unwrap());
    let planes_len = u64::from_le_bytes(fixed[20..28].try_into().unwrap());
    if meta_len > MAX_META_LEN || aux_len > MAX_AUX_LEN || planes_len > MAX_PLANES_LEN {
        return Err(LehdcError::ModelFormat(format!(
            "implausible section lengths (meta {meta_len}, aux {aux_len}, planes {planes_len})"
        )));
    }
    if planes_len % 8 != 0 {
        return Err(LehdcError::ModelFormat(format!(
            "payload length {planes_len} is not a whole number of u64 words"
        )));
    }

    let meta_blob = read_section(reader, meta_len)?;
    let aux_blob = read_section(reader, aux_len)?;
    let consumed = HEADER_LEN + meta_blob.len() + aux_blob.len();
    let pad = (PAYLOAD_ALIGN - consumed % PAYLOAD_ALIGN) % PAYLOAD_ALIGN;
    let mut padding = [0u8; PAYLOAD_ALIGN];
    reader.read_exact(&mut padding[..pad]).map_err(truncated)?;
    if padding[..pad].iter().any(|&b| b != 0) {
        return Err(LehdcError::ModelFormat(
            "alignment padding is not zeroed".into(),
        ));
    }
    // The payload is one bulk read — word planes need no parsing.
    let words = read_words(reader, planes_len / 8)?;

    // Packed sections decode only now, capped by what the file holds: the
    // metadata by the limit stored metadata obeys, the aux section by the
    // larger of that and the payload it describes (no earlier writer
    // produced an aux section bigger than both).
    let (meta_bytes, aux) = match compression {
        Compression::Stored => (meta_blob, aux_blob),
        Compression::Packed => (
            unpack(&meta_blob, MAX_META_LEN)?,
            unpack(&aux_blob, MAX_META_LEN.max(planes_len))?,
        ),
    };
    let meta = String::from_utf8(meta_bytes)
        .map_err(|_| LehdcError::ModelFormat("metadata is not valid UTF-8".into()))?;

    Ok(Container {
        artifact,
        compression,
        meta,
        aux,
        words,
    })
}

/// Reads exactly `len` bytes. Past its first MiB the buffer grows only as
/// bytes arrive, so a length field larger than the file costs no more
/// memory than the file.
pub(crate) fn read_section<R: Read>(reader: &mut R, len: u64) -> Result<Vec<u8>, LehdcError> {
    let mut bytes = Vec::with_capacity(len.min(1 << 20) as usize);
    reader.by_ref().take(len).read_to_end(&mut bytes)?;
    if bytes.len() as u64 != len {
        return Err(LehdcError::ModelFormat("file truncated".into()));
    }
    Ok(bytes)
}

/// Reads `n_words` little-endian `u64` words, bounded as [`read_section`].
pub(crate) fn read_words<R: Read>(reader: &mut R, n_words: u64) -> Result<Vec<u64>, LehdcError> {
    let len = n_words
        .checked_mul(8)
        .ok_or_else(|| LehdcError::ModelFormat(format!("implausible word count {n_words}")))?;
    Ok(read_section(reader, len)?
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

pub(crate) fn truncated(e: std::io::Error) -> LehdcError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        LehdcError::ModelFormat("file truncated".into())
    } else {
        LehdcError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert!(read_varint(&buf[..buf.len() - 1], &mut pos).is_err());
        // 10 continuation bytes push past 64 bits.
        let over = [0xffu8; 10];
        let mut pos = 0;
        assert!(read_varint(&over, &mut pos).is_err());
    }

    /// `[1, 2, 3, 4]` packed at stride 2: transposed to `[1, 3, 2, 4]`,
    /// then one run-length plane per bit position.
    const PACKED_1234: [u8; 15] = [4, 2, 0, 2, 2, 1, 2, 1, 3, 1, 4, 4, 4, 4, 4];

    #[test]
    fn unpack_decodes_bit_planes_and_strides() {
        assert_eq!(unpack(&PACKED_1234, 4).unwrap(), [1, 2, 3, 4]);
        // Stride 1, one plane per bit of [1, 2].
        assert_eq!(
            unpack(&[2, 1, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2], 2).unwrap(),
            [1, 2]
        );
        assert_eq!(unpack(&[0, 1], 0).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn unpack_rejects_corrupt_streams() {
        // Truncation at every prefix errors, never panics.
        for cut in 0..PACKED_1234.len() {
            assert!(
                unpack(&PACKED_1234[..cut], 4).is_err(),
                "cut {cut} accepted"
            );
        }
        // Trailing garbage after the final plane.
        let mut trailing = PACKED_1234.to_vec();
        trailing.push(0x00);
        assert!(unpack(&trailing, 4).is_err());
        // A raw length over the cap, before anything is allocated for it.
        assert!(unpack(&PACKED_1234, 3).is_err());
        let mut huge = Vec::new();
        write_varint(&mut huge, 1 << 40);
        write_varint(&mut huge, 1);
        assert!(unpack(&huge, MAX_META_LEN).is_err());
        // Zero stride.
        assert!(unpack(&[4, 0], 4).is_err());
    }

    #[test]
    fn meta_roundtrips_types_and_escapes() {
        let mut w = MetaWriter::new();
        w.u64("dim", 10_000)
            .u64("seed", u64::MAX)
            .bool("normalizer", true)
            .str("provenance", "lehdc \"v1\"\nline2")
            .f64("ratio", 0.25);
        meta_f32(&mut w, "vmin", -1.5e-7);
        let json = w.finish();
        let meta = parse_meta(&json).expect("parse");
        assert_eq!(meta.need_u64("dim").unwrap(), 10_000);
        assert_eq!(meta.need_u64("seed").unwrap(), u64::MAX);
        assert!(meta.bool_or_false("normalizer").unwrap());
        assert!(!meta.bool_or_false("missing").unwrap());
        assert_eq!(
            meta.get("provenance"),
            Some(&MetaValue::Str("lehdc \"v1\"\nline2".to_string()))
        );
        assert_eq!(meta.need_f32("vmin").unwrap(), -1.5e-7f32);
        assert!(meta.need_u64("absent").is_err());
        // The writer's output is valid by obs's own JSON validator too.
        obs::validate_json_line(&json).expect("valid JSON line");
    }

    #[test]
    fn meta_rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1}x",
            "[1]",
            "{\"a\":qq}",
        ] {
            assert!(parse_meta(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn container_roundtrips_with_stored_sections() {
        let planes: Vec<u64> = (0..37).map(|i| 0x9e37_79b9_7f4a_7c15u64.rotate_left(i)).collect();
        let mut buf = Vec::new();
        write_container(
            &mut buf,
            Artifact::Model,
            "{\"dim\":2368,\"classes\":1}",
            &[1, 2, 3, 250],
            &[&planes],
        )
        .expect("write");
        assert_eq!(buf[9], 0, "compression byte must be 0 (stored)");
        let mut reader = &buf[..];
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic).unwrap();
        assert_eq!(magic, MAGIC);
        let c = read_container_after_magic(&mut reader).expect("read");
        assert_eq!(c.artifact, Artifact::Model);
        assert_eq!(c.compression, Compression::Stored);
        assert_eq!(c.meta, "{\"dim\":2368,\"classes\":1}");
        assert_eq!(c.aux, vec![1, 2, 3, 250]);
        assert_eq!(c.words, planes);
        assert!(reader.is_empty(), "reader must consume the whole file");
    }

    #[test]
    fn payload_is_cache_line_aligned() {
        for meta in ["{}", "{\"k\":1}", &format!("{{\"pad\":{}}}", "9".repeat(100))] {
            let mut buf = Vec::new();
            write_container(&mut buf, Artifact::Model, meta, &[7; 13], &[&[u64::MAX]])
                .expect("write");
            let payload_off = buf.len() - 8;
            assert_eq!(payload_off % PAYLOAD_ALIGN, 0, "meta {meta:?}");
            assert_eq!(&buf[payload_off..], &[0xff; 8]);
        }
    }

    #[test]
    fn header_rejects_bad_fields() {
        let mut buf = Vec::new();
        write_container(&mut buf, Artifact::Bundle, "{}", &[], &[]).expect("write");
        let check = |mutate: fn(&mut Vec<u8>), what: &str| {
            let mut bad = buf.clone();
            mutate(&mut bad);
            let mut reader = &bad[4..];
            assert!(
                read_container_after_magic(&mut reader).is_err(),
                "{what} accepted"
            );
        };
        check(|b| b[4] = 99, "bad version");
        check(|b| b[8] = 0, "artifact byte 0");
        check(|b| b[9] = 7, "unknown compression");
        check(|b| b[10] = 1, "reserved byte");
        check(|b| b[24] = 3, "non-word payload length");
        check(|b| b[31] = 0xff, "implausible planes length");
        check(|b| b[40] = 1, "nonzero padding"); // "{}" stored: meta at 32..34, pad 34..64
    }
}
