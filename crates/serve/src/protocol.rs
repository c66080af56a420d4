//! The wire protocol: length-prefixed binary frames with a line-mode
//! fallback.
//!
//! A binary client opens the connection by writing the 4-byte magic
//! [`BINARY_MAGIC`]; anything else switches the connection into line mode
//! (one text command per line — the netcat-friendly debug surface). Both
//! modes drive the same request queue, so line-mode classifications are
//! micro-batched exactly like binary ones.
//!
//! # Binary frame layout
//!
//! Every frame — request or response — is a `u32` little-endian payload
//! length followed by the payload. Request payloads start with an opcode
//! byte:
//!
//! ```text
//! 0x01 CLASSIFY  u32 n, then n × f32 LE features
//! 0x02 PING      (empty)
//! 0x03 STATS     (empty)
//! 0x04 INFO      (empty)
//! 0x05 SWAP      UTF-8 bundle path
//! 0x06 SHUTDOWN  (empty)
//! ```
//!
//! Response payloads start with a status byte: `0x00` is an error (the rest
//! of the payload is a UTF-8 message); any other value echoes the request
//! opcode and is followed by that opcode's result:
//!
//! ```text
//! CLASSIFY  u32 class, u64 model epoch
//! PING      (empty)
//! STATS     UTF-8 JSON object of drained counters/gauges/histograms
//! INFO      u64 dim, u64 classes, u64 features, u64 model epoch
//! SWAP      u64 new model epoch
//! SHUTDOWN  (empty)
//! ```
//!
//! Frames are capped at [`MAX_FRAME`] bytes; an oversized or malformed
//! frame is a protocol error and the server closes the connection after
//! replying, since the stream offset can no longer be trusted.

use std::io::{self, Read, Write};

/// Connection preamble selecting the binary protocol. Absent (any other
/// first bytes), the connection runs in line mode.
pub const BINARY_MAGIC: [u8; 4] = *b"LHD1";

/// Upper bound on a frame payload, bounding per-connection memory. A
/// classify request for 1M features is 4 MB, so 16 MB leaves generous
/// headroom while still rejecting garbage lengths instantly.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

const OP_CLASSIFY: u8 = 0x01;
const OP_PING: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_INFO: u8 = 0x04;
const OP_SWAP: u8 = 0x05;
const OP_SHUTDOWN: u8 = 0x06;
const STATUS_ERROR: u8 = 0x00;

/// Rejects feature vectors that cannot be quantized. Both wire dialects
/// funnel through this before a classify request reaches the batcher, so
/// NaN/±inf never poison a shared micro-batch.
fn check_features_finite(features: &[f32]) -> Result<(), String> {
    match features.iter().position(|v| !v.is_finite()) {
        None => Ok(()),
        Some(i) => Err(format!(
            "classify feature {i} is not finite (NaN/±inf cannot be quantized)"
        )),
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Encode + classify one feature vector.
    Classify(Vec<f32>),
    /// Liveness probe.
    Ping,
    /// Drain the server's metrics as JSON.
    Stats,
    /// Model shape and epoch.
    Info,
    /// Atomically hot-swap the served model bundle.
    Swap(String),
    /// Ask the daemon to drain and exit.
    Shutdown,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Predicted class plus the epoch of the model that answered.
    Classified {
        /// Predicted class index.
        class: u32,
        /// Epoch of the model snapshot that served the request.
        epoch: u64,
    },
    /// Liveness reply.
    Pong,
    /// Metrics snapshot as a JSON object.
    Stats(String),
    /// Model shape and epoch.
    Info {
        /// Hypervector dimensionality `D`.
        dim: u64,
        /// Number of classes `K`.
        classes: u64,
        /// Expected feature count `N` per classify request.
        features: u64,
        /// Current model epoch.
        epoch: u64,
    },
    /// Hot swap succeeded; the new model epoch.
    Swapped {
        /// Epoch of the freshly loaded model.
        epoch: u64,
    },
    /// Shutdown acknowledged; the server is draining.
    ShuttingDown,
    /// The request failed; human-readable reason.
    Error(String),
}

/// Serializes a request into `buf` (cleared first): length prefix plus
/// payload, ready for a single `write_all`.
pub fn encode_request(req: &Request, buf: &mut Vec<u8>) {
    let (op, payload): (u8, &[u8]) = match req {
        Request::Classify(features) => return encode_classify(features, buf),
        Request::Ping => (OP_PING, &[]),
        Request::Stats => (OP_STATS, &[]),
        Request::Info => (OP_INFO, &[]),
        Request::Swap(path) => (OP_SWAP, path.as_bytes()),
        Request::Shutdown => (OP_SHUTDOWN, &[]),
    };
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]); // length back-patched below
    buf.push(op);
    buf.extend_from_slice(payload);
    patch_len(buf);
}

/// Serializes the CLASSIFY request for `features` into `buf` (cleared
/// first), as [`encode_request`] does for [`Request::Classify`], without
/// copying the features into a request first.
pub fn encode_classify(features: &[f32], buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]); // length back-patched below
    buf.push(OP_CLASSIFY);
    buf.extend_from_slice(&(features.len() as u32).to_le_bytes());
    for &f in features {
        buf.extend_from_slice(&f.to_le_bytes());
    }
    patch_len(buf);
}

/// Serializes a response into `buf` (cleared first).
pub fn encode_response(resp: &Response, buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&[0u8; 4]);
    match resp {
        Response::Classified { class, epoch } => {
            buf.push(OP_CLASSIFY);
            buf.extend_from_slice(&class.to_le_bytes());
            buf.extend_from_slice(&epoch.to_le_bytes());
        }
        Response::Pong => buf.push(OP_PING),
        Response::Stats(json) => {
            buf.push(OP_STATS);
            buf.extend_from_slice(json.as_bytes());
        }
        Response::Info {
            dim,
            classes,
            features,
            epoch,
        } => {
            buf.push(OP_INFO);
            for v in [dim, classes, features, epoch] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Swapped { epoch } => {
            buf.push(OP_SWAP);
            buf.extend_from_slice(&epoch.to_le_bytes());
        }
        Response::ShuttingDown => buf.push(OP_SHUTDOWN),
        Response::Error(msg) => {
            buf.push(STATUS_ERROR);
            buf.extend_from_slice(msg.as_bytes());
        }
    }
    patch_len(buf);
}

fn patch_len(buf: &mut [u8]) {
    let len = (buf.len() - 4) as u32;
    buf[..4].copy_from_slice(&len.to_le_bytes());
}

/// Reads one frame payload into `buf` (resized to fit). Returns `Ok(false)`
/// on a clean EOF at a frame boundary, `Err` on a truncated frame, an
/// oversized length, or any transport failure.
pub fn read_frame<R: Read>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut len_bytes = [0u8; 4];
    // Read the first prefix byte alone: EOF *here* is a clean close at a
    // frame boundary; EOF anywhere later is a truncated frame.
    match reader.read(&mut len_bytes[..1]) {
        Ok(0) => return Ok(false),
        Ok(_) => {}
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            return read_frame(reader, buf);
        }
        Err(e) => return Err(e),
    }
    reader.read_exact(&mut len_bytes[1..])?;
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} outside (0, {MAX_FRAME}]"),
        ));
    }
    buf.resize(len, 0);
    reader.read_exact(buf)?;
    Ok(true)
}

/// Writes one already-encoded frame (as produced by [`encode_request`] /
/// [`encode_response`]).
pub fn write_frame<W: Write>(writer: &mut W, frame: &[u8]) -> io::Result<()> {
    writer.write_all(frame)
}

/// Decodes a request payload.
///
/// # Errors
///
/// Returns a human-readable description of the malformation; the server
/// sends it back as a [`Response::Error`].
pub fn decode_request(payload: &[u8]) -> Result<Request, String> {
    let (&op, rest) = payload.split_first().ok_or("empty request payload")?;
    match op {
        OP_CLASSIFY => {
            if rest.len() < 4 {
                return Err("classify payload shorter than its count field".into());
            }
            let (count_bytes, feat_bytes) = rest.split_at(4);
            let n = u32::from_le_bytes(count_bytes.try_into().unwrap()) as usize;
            if feat_bytes.len() != n * 4 {
                return Err(format!(
                    "classify declares {n} features but carries {} bytes",
                    feat_bytes.len()
                ));
            }
            let features: Vec<f32> = feat_bytes
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            check_features_finite(&features)?;
            Ok(Request::Classify(features))
        }
        OP_PING => Ok(Request::Ping),
        OP_STATS => Ok(Request::Stats),
        OP_INFO => Ok(Request::Info),
        OP_SWAP => String::from_utf8(rest.to_vec())
            .map(Request::Swap)
            .map_err(|_| "swap path is not valid UTF-8".into()),
        OP_SHUTDOWN => Ok(Request::Shutdown),
        other => Err(format!("unknown request opcode {other:#04x}")),
    }
}

/// Decodes a response payload.
///
/// # Errors
///
/// Returns a description of the malformation (client side: the server spoke
/// an unexpected dialect).
pub fn decode_response(payload: &[u8]) -> Result<Response, String> {
    let (&status, rest) = payload.split_first().ok_or("empty response payload")?;
    match status {
        STATUS_ERROR => Ok(Response::Error(
            String::from_utf8_lossy(rest).into_owned(),
        )),
        OP_CLASSIFY => {
            if rest.len() != 12 {
                return Err(format!("classified payload must be 12 bytes, got {}", rest.len()));
            }
            Ok(Response::Classified {
                class: u32::from_le_bytes(rest[..4].try_into().unwrap()),
                epoch: u64::from_le_bytes(rest[4..].try_into().unwrap()),
            })
        }
        OP_PING => Ok(Response::Pong),
        OP_STATS => String::from_utf8(rest.to_vec())
            .map(Response::Stats)
            .map_err(|_| "stats payload is not valid UTF-8".into()),
        OP_INFO => {
            if rest.len() != 32 {
                return Err(format!("info payload must be 32 bytes, got {}", rest.len()));
            }
            let word = |i: usize| u64::from_le_bytes(rest[i * 8..(i + 1) * 8].try_into().unwrap());
            Ok(Response::Info {
                dim: word(0),
                classes: word(1),
                features: word(2),
                epoch: word(3),
            })
        }
        OP_SWAP => {
            if rest.len() != 8 {
                return Err(format!("swapped payload must be 8 bytes, got {}", rest.len()));
            }
            Ok(Response::Swapped {
                epoch: u64::from_le_bytes(rest.try_into().unwrap()),
            })
        }
        OP_SHUTDOWN => Ok(Response::ShuttingDown),
        other => Err(format!("unknown response status {other:#04x}")),
    }
}

/// Renders a response in line mode: `ok ...` / `err ...`, one line.
#[must_use]
pub fn render_line(resp: &Response) -> String {
    match resp {
        Response::Classified { class, epoch } => format!("ok {class} epoch={epoch}\n"),
        Response::Pong => "ok pong\n".to_string(),
        Response::Stats(json) => format!("ok {json}\n"),
        Response::Info {
            dim,
            classes,
            features,
            epoch,
        } => format!("ok dim={dim} classes={classes} features={features} epoch={epoch}\n"),
        Response::Swapped { epoch } => format!("ok epoch={epoch}\n"),
        Response::ShuttingDown => "ok bye\n".to_string(),
        Response::Error(msg) => format!("err {}\n", msg.replace('\n', " ")),
    }
}

/// Parses one line-mode command.
///
/// # Errors
///
/// Returns a description of the malformation for the `err ...` reply.
pub fn parse_line(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None => (line, ""),
    };
    match cmd {
        "classify" => {
            if rest.is_empty() {
                return Err("classify needs comma-separated features".into());
            }
            // `f32::parse` happily accepts "NaN" and "inf", which would
            // otherwise flow into quantization — screen them out here.
            let features: Vec<f32> = rest
                .split(',')
                .map(|f| f.trim().parse::<f32>())
                .collect::<Result<_, _>>()
                .map_err(|_| "classify features must all be numeric".to_string())?;
            check_features_finite(&features)?;
            Ok(Request::Classify(features))
        }
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "info" => Ok(Request::Info),
        "swap" => {
            if rest.is_empty() {
                Err("swap needs a bundle path".into())
            } else {
                Ok(Request::Swap(rest.to_string()))
            }
        }
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!(
            "unknown command {other:?} (expected classify|ping|stats|info|swap|shutdown)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut frame = Vec::new();
        encode_request(&req, &mut frame);
        let mut cursor = frame.as_slice();
        let mut payload = Vec::new();
        assert!(read_frame(&mut cursor, &mut payload).unwrap());
        assert_eq!(decode_request(&payload).unwrap(), req);
        assert!(cursor.is_empty(), "frame must consume exactly its bytes");
    }

    fn roundtrip_response(resp: Response) {
        let mut frame = Vec::new();
        encode_response(&resp, &mut frame);
        let mut cursor = frame.as_slice();
        let mut payload = Vec::new();
        assert!(read_frame(&mut cursor, &mut payload).unwrap());
        assert_eq!(decode_response(&payload).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Classify(vec![0.25, -1.5, f32::MAX, 0.0]));
        roundtrip_request(Request::Classify(Vec::new()));
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Info);
        roundtrip_request(Request::Swap("/tmp/model v2.lehdc".into()));
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Classified { class: 7, epoch: 3 });
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Stats("{\"a\": 1}".into()));
        roundtrip_response(Response::Info {
            dim: 10_000,
            classes: 26,
            features: 784,
            epoch: 9,
        });
        roundtrip_response(Response::Swapped { epoch: 2 });
        roundtrip_response(Response::ShuttingDown);
        roundtrip_response(Response::Error("feature count mismatch".into()));
    }

    #[test]
    fn eof_at_frame_boundary_is_clean() {
        let mut payload = Vec::new();
        assert!(!read_frame(&mut [].as_slice(), &mut payload).unwrap());
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors() {
        let mut frame = Vec::new();
        encode_request(&Request::Ping, &mut frame);
        let mut payload = Vec::new();
        // truncated payload
        let cut = &frame[..frame.len() - 1];
        assert!(read_frame(&mut { cut }, &mut payload).is_err());
        // truncated length prefix mid-way is also an error, not clean EOF
        assert!(read_frame(&mut &frame[..2], &mut payload).is_err());
        // oversized declared length
        let huge = ((MAX_FRAME + 1) as u32).to_le_bytes();
        assert!(read_frame(&mut huge.as_slice(), &mut payload).is_err());
        // zero-length frame
        let zero = 0u32.to_le_bytes();
        assert!(read_frame(&mut zero.as_slice(), &mut payload).is_err());
    }

    #[test]
    fn malformed_payloads_are_rejected() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0x01, 1]).is_err()); // count field cut short
        assert!(decode_request(&[0x01, 2, 0, 0, 0, 9]).is_err()); // byte count lies
        assert!(decode_request(&[0xEE]).is_err()); // unknown opcode
        assert!(decode_response(&[]).is_err());
        assert!(decode_response(&[0x01, 1, 2]).is_err()); // short classified
        assert!(decode_response(&[0xEE]).is_err());
    }

    #[test]
    fn non_finite_features_are_rejected_in_both_dialects() {
        // Line mode: parse succeeds numerically but the values are unusable.
        for bad in ["classify NaN", "classify 1.0,inf", "classify -inf,0.5"] {
            let err = parse_line(bad).unwrap_err();
            assert!(err.contains("not finite"), "{bad}: {err}");
        }
        // Binary mode: a well-formed frame carrying a NaN/inf payload.
        for (idx, bad) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            let mut features = vec![0.5f32; 4];
            features[idx] = bad;
            let mut frame = Vec::new();
            encode_request(&Request::Classify(features), &mut frame);
            let err = decode_request(&frame[4..]).unwrap_err();
            assert!(err.contains(&format!("feature {idx}")), "{err}");
            assert!(err.contains("not finite"), "{err}");
        }
        // Finite extremes stay accepted.
        assert!(parse_line("classify 3.4e38,-3.4e38").is_ok());
    }

    #[test]
    fn line_commands_parse() {
        assert_eq!(
            parse_line("classify 0.5, 1.0 ,-2\n").unwrap(),
            Request::Classify(vec![0.5, 1.0, -2.0])
        );
        assert_eq!(parse_line("ping").unwrap(), Request::Ping);
        assert_eq!(parse_line("stats").unwrap(), Request::Stats);
        assert_eq!(parse_line("info").unwrap(), Request::Info);
        assert_eq!(
            parse_line("swap /tmp/m.lehdc").unwrap(),
            Request::Swap("/tmp/m.lehdc".into())
        );
        assert_eq!(parse_line("shutdown").unwrap(), Request::Shutdown);
        assert!(parse_line("classify").is_err());
        assert!(parse_line("classify a,b").is_err());
        assert!(parse_line("swap").is_err());
        assert!(parse_line("frobnicate").is_err());
    }

    #[test]
    fn line_rendering_is_single_line() {
        for resp in [
            Response::Classified { class: 3, epoch: 1 },
            Response::Error("multi\nline".into()),
            Response::ShuttingDown,
        ] {
            let line = render_line(&resp);
            assert!(line.ends_with('\n'));
            assert_eq!(line.matches('\n').count(), 1, "one newline in {line:?}");
        }
    }
}
