//! Model persistence: the versioned `LHDC` container plus the legacy
//! readers it replaces.
//!
//! Every artifact — bare model, deployable bundle, encoded corpus — is
//! written as one [`crate::format`] container with stored sections: magic
//! `LHDC`, version, artifact/compression bytes, flat JSON metadata, an
//! artifact-specific aux section, and the packed hypervector word planes
//! on a 64-byte boundary so the serve SWAP path loads them with a single
//! bulk read.
//!
//! Older files stay readable: [`read_model`], [`read_bundle`], and
//! [`read_encoded`] dispatch on the magic, so the pre-container formats
//! (`LEHDCMDL` / `LEHDCBDL` / `LEHDCENC`) and containers with packed
//! sections keep loading. Every reader sizes the buffers it reads into
//! from the bytes actually in the file, never from the counts its header
//! claims.

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;

use hdc::{BinaryHv, Dim, Encode, RecordEncoder};
use hdc_datasets::MinMaxNormalizer;
use threadpool::ThreadPool;

use crate::engine::EpochEngine;
use crate::error::LehdcError;
use crate::format::{
    self, meta_f32, read_varint, truncated, write_varint, Artifact, Compression, MetaWriter,
};
use crate::model::{project_dims, HdcModel};

const LEGACY_MODEL_MAGIC: &[u8; 8] = b"LEHDCMDL";
const LEGACY_MODEL_VERSION: u32 = 1;
const LEGACY_BUNDLE_MAGIC: &[u8; 8] = b"LEHDCBDL";
const LEGACY_BUNDLE_VERSION: u32 = 1;
const LEGACY_ENCODED_MAGIC: &[u8; 8] = b"LEHDCENC";
const LEGACY_ENCODED_VERSION: u32 = 1;

/// Provenance string stamped into every container's metadata.
const PROVENANCE: &str = concat!("lehdc-suite ", env!("CARGO_PKG_VERSION"));

/// Writes `path` atomically: the payload goes to a sibling temp file that is
/// flushed and fsynced, then renamed over `path`. A crash, full disk, or
/// serialization error mid-write can therefore never leave a truncated
/// artifact at `path` — an existing valid file survives any failed attempt,
/// because the only mutation of `path` itself is the final atomic rename.
///
/// The temp name is deterministic per process (`<name>.tmp.<pid>`), sitting
/// in the same directory so the rename never crosses a filesystem boundary.
fn write_atomic<F>(path: &Path, write: F) -> Result<(), LehdcError>
where
    F: FnOnce(&mut BufWriter<File>) -> Result<(), LehdcError>,
{
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let file = File::create(&tmp)?;
        let mut writer = BufWriter::new(file);
        write(&mut writer)?;
        writer.flush()?;
        writer.get_ref().sync_all()?;
        Ok(())
    })();
    if let Err(err) = result {
        let _ = std::fs::remove_file(&tmp);
        return Err(err);
    }
    std::fs::rename(&tmp, path).map_err(|err| {
        let _ = std::fs::remove_file(&tmp);
        LehdcError::from(err)
    })
}

// ---------------------------------------------------------------------------
// Magic dispatch
// ---------------------------------------------------------------------------

enum Magic {
    Container,
    Legacy([u8; 8]),
}

/// Reads just enough of the stream to route it: 4 bytes decide container
/// vs legacy (no legacy magic starts with `LHDC`), legacy needs 4 more.
fn read_magic<R: Read>(reader: &mut R) -> Result<Magic, LehdcError> {
    let mut first = [0u8; 4];
    reader.read_exact(&mut first).map_err(truncated)?;
    if first == format::MAGIC {
        return Ok(Magic::Container);
    }
    let mut rest = [0u8; 4];
    reader.read_exact(&mut rest).map_err(truncated)?;
    let mut magic = [0u8; 8];
    magic[..4].copy_from_slice(&first);
    magic[4..].copy_from_slice(&rest);
    Ok(Magic::Legacy(magic))
}

fn expect_artifact(c: &format::Container, want: Artifact) -> Result<(), LehdcError> {
    if c.artifact == want {
        Ok(())
    } else {
        Err(LehdcError::ModelFormat(format!(
            "container holds a {}, not a {}",
            c.artifact.name(),
            want.name()
        )))
    }
}

// ---------------------------------------------------------------------------
// Model: container write/read + legacy
// ---------------------------------------------------------------------------

/// Serializes a model to any writer as an `LHDC` container.
///
/// # Errors
///
/// Returns [`LehdcError::Io`] on write failure.
pub fn write_model<W: Write>(model: &HdcModel, mut writer: W) -> Result<(), LehdcError> {
    let mut meta = MetaWriter::new();
    meta.u64("dim", model.dim().get() as u64)
        .u64("classes", model.n_classes() as u64)
        .str("created_by", PROVENANCE);
    let planes: Vec<&[u64]> = model.class_hvs().iter().map(BinaryHv::as_words).collect();
    format::write_container(&mut writer, Artifact::Model, &meta.finish(), &[], &planes)
}

fn check_model_shape(dim: usize, k: usize) -> Result<(), LehdcError> {
    if dim == 0 || k == 0 {
        return Err(LehdcError::ModelFormat(format!(
            "degenerate model shape: D={dim}, K={k}"
        )));
    }
    if k > 1_000_000 || dim > 1_000_000_000 {
        return Err(LehdcError::ModelFormat(format!(
            "implausible model shape: D={dim}, K={k}"
        )));
    }
    Ok(())
}

/// Splits a container's word payload into per-hypervector rows, enforcing
/// the exact word count and the tail-bit invariant.
fn words_to_hvs(words: &[u64], d: Dim, count: usize, what: &str) -> Result<Vec<BinaryHv>, LehdcError> {
    let per = d.words();
    if words.len() != count * per {
        return Err(LehdcError::ModelFormat(format!(
            "payload holds {} words but the {what} shape needs {}",
            words.len(),
            count * per
        )));
    }
    words
        .chunks_exact(per)
        .map(|chunk| hv_from_words(chunk, d))
        .collect()
}

fn hv_from_words(words: &[u64], d: Dim) -> Result<BinaryHv, LehdcError> {
    BinaryHv::from_words(words.to_vec(), d)
        .map_err(|_| LehdcError::ModelFormat("padding bits beyond the dimension are set".into()))
}

fn model_from_container(c: &format::Container) -> Result<HdcModel, LehdcError> {
    expect_artifact(c, Artifact::Model)?;
    let meta = format::parse_meta(&c.meta)?;
    let dim = meta.need_u64("dim")? as usize;
    let k = meta.need_u64("classes")? as usize;
    check_model_shape(dim, k)?;
    if !c.aux.is_empty() {
        return Err(LehdcError::ModelFormat(
            "model containers carry no aux section".into(),
        ));
    }
    let hvs = words_to_hvs(&c.words, Dim::new(dim), k, "model")?;
    HdcModel::new(hvs)
}

fn read_model_legacy_body<R: Read>(reader: &mut R) -> Result<HdcModel, LehdcError> {
    let version = read_u32(reader)?;
    if version != LEGACY_MODEL_VERSION {
        return Err(LehdcError::ModelFormat(format!(
            "unsupported version {version} (this build reads {LEGACY_MODEL_VERSION})"
        )));
    }
    let dim = read_u64(reader)? as usize;
    let k = read_u64(reader)? as usize;
    check_model_shape(dim, k)?;
    let d = Dim::new(dim);
    let words = format::read_words(reader, k as u64 * d.words() as u64)?;
    HdcModel::new(words_to_hvs(&words, d, k, "model")?)
}

/// Deserializes a model from any reader, dispatching on the magic:
/// `LHDC` containers and legacy `LEHDCMDL` files both load.
///
/// # Errors
///
/// Returns [`LehdcError::ModelFormat`] for a bad magic, version, or
/// truncated payload, and [`LehdcError::Io`] on read failure.
pub fn read_model<R: Read>(mut reader: R) -> Result<HdcModel, LehdcError> {
    match read_magic(&mut reader)? {
        Magic::Container => {
            model_from_container(&format::read_container_after_magic(&mut reader)?)
        }
        Magic::Legacy(magic) if &magic == LEGACY_MODEL_MAGIC => {
            read_model_legacy_body(&mut reader)
        }
        Magic::Legacy(magic) => Err(LehdcError::ModelFormat(format!(
            "bad magic {magic:?}, not a LeHDC model file"
        ))),
    }
}

/// Saves a model to a file path (atomically: temp file + fsync + rename, so
/// an interrupted save never clobbers an existing artifact).
///
/// # Errors
///
/// As [`write_model`], plus file-creation failures.
pub fn save_model(model: &HdcModel, path: &Path) -> Result<(), LehdcError> {
    write_atomic(path, |w| write_model(model, w))
}

/// Loads a model from a file path with full validation and path context:
/// every failure — open error, bad magic, implausible shape, truncation,
/// trailing garbage — comes back as a typed [`LehdcError`] naming `path`.
///
/// # Errors
///
/// As [`read_model`], with the offending path prefixed to the message;
/// additionally rejects files with bytes beyond the payload.
pub fn load_model(path: &Path) -> Result<HdcModel, LehdcError> {
    load_validated(path, "model", |reader| read_model(reader))
}

// ---------------------------------------------------------------------------
// ModelBundle
// ---------------------------------------------------------------------------

/// A deployable artifact: a trained model together with everything needed
/// to re-create its encoder (the item memories are regenerated from the
/// persisted seed, so the bundle stays tiny).
///
/// This is what a CLI or an embedded target actually needs — a bare model
/// cannot classify raw feature vectors without its codebooks.
#[derive(Debug, Clone)]
pub struct ModelBundle {
    /// The trained binary HDC classifier.
    pub model: HdcModel,
    /// The encoder that produced the model's training encodings.
    pub encoder: RecordEncoder,
    /// The feature normalizer fitted on the training split, when the
    /// training pipeline normalized; raw features must pass through it
    /// before encoding.
    pub normalizer: Option<MinMaxNormalizer>,
    /// For distilled models: the strictly increasing encoder dimensions
    /// the model keeps. Queries are encoded at the full encoder dimension
    /// and projected onto these before classification. `None` means the
    /// model spans the encoder dimension unchanged.
    pub selection: Option<Vec<u32>>,
}

impl ModelBundle {
    /// Checks the structural invariants between model, encoder, normalizer,
    /// and selection (called by every writer).
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError::InvalidConfig`] naming the violated invariant.
    pub fn validate_shape(&self) -> Result<(), LehdcError> {
        match &self.selection {
            None => {
                if self.model.dim() != self.encoder.dim() {
                    return Err(LehdcError::InvalidConfig(format!(
                        "model dimension {} does not match encoder dimension {}",
                        self.model.dim(),
                        self.encoder.dim()
                    )));
                }
            }
            Some(sel) => {
                if sel.len() != self.model.dim().get() {
                    return Err(LehdcError::InvalidConfig(format!(
                        "selection keeps {} dims but the model dimension is {}",
                        sel.len(),
                        self.model.dim()
                    )));
                }
                if sel.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(LehdcError::InvalidConfig(
                        "selection dims must be strictly increasing".into(),
                    ));
                }
                if sel
                    .last()
                    .is_some_and(|&last| last as usize >= self.encoder.dim().get())
                {
                    return Err(LehdcError::InvalidConfig(format!(
                        "selection dim {} is outside the encoder dimension {}",
                        sel.last().unwrap(),
                        self.encoder.dim()
                    )));
                }
            }
        }
        if let Some(norm) = &self.normalizer {
            if norm.n_features() != self.encoder.n_features() {
                return Err(LehdcError::InvalidConfig(format!(
                    "normalizer covers {} features but the encoder expects {}",
                    norm.n_features(),
                    self.encoder.n_features()
                )));
            }
        }
        Ok(())
    }

    /// Classifies one raw feature vector end-to-end (row check, normalize,
    /// encode, project, Hamming inference): the per-row reference every
    /// batch path is compared against.
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError::InvalidConfig`] with the
    /// [`check_row`](Self::check_row) rejection if the row fails it.
    pub fn classify(&self, features: &[f32]) -> Result<usize, LehdcError> {
        self.check_row(features).map_err(LehdcError::InvalidConfig)?;
        let mut row = features.to_vec();
        if let Some(norm) = &self.normalizer {
            norm.apply_row(&mut row);
        }
        let hv = self.encoder.encode(&row)?;
        Ok(match &self.selection {
            Some(sel) => self.model.classify(&project_dims(&hv, sel)),
            None => self.model.classify(&hv),
        })
    }

    /// Expected raw feature count per classify request.
    #[must_use]
    pub fn n_features(&self) -> usize {
        self.encoder.n_features()
    }

    /// The check every raw row passes before it is encoded: the encoder's
    /// feature count, and no NaN/±inf (they cannot be quantized). The
    /// message does not name the row; each caller says where it came from.
    ///
    /// # Errors
    ///
    /// Returns the rejection text: `expected N features, got M` or
    /// `feature j is not finite (NaN/±inf cannot be quantized)`.
    pub fn check_row(&self, row: &[f32]) -> Result<(), String> {
        let expected = self.encoder.n_features();
        if row.len() != expected {
            return Err(format!("expected {expected} features, got {}", row.len()));
        }
        match row.iter().position(|v| !v.is_finite()) {
            Some(j) => Err(format!(
                "feature {j} is not finite (NaN/±inf cannot be quantized)"
            )),
            None => Ok(()),
        }
    }

    /// [`check_row`](Self::check_row) over a batch, naming the first row
    /// that fails by its index in `rows`.
    fn check_rows<R: AsRef<[f32]>>(&self, rows: &[R]) -> Result<(), LehdcError> {
        rows.iter().enumerate().try_for_each(|(i, row)| {
            self.check_row(row.as_ref())
                .map_err(|msg| LehdcError::InvalidConfig(format!("row {i}: {msg}")))
        })
    }

    /// The raw-row batch path up to classification: checks every row
    /// ([`check_row`](Self::check_row)), normalizes the rows into
    /// `buffers`, encodes them with the encoder's pooled batch encode on
    /// `pool`, and projects distilled queries onto the kept dims in place.
    /// Returns the model-dimension queries, row `i` at index `i`, ready for
    /// [`EpochEngine::classify_into`] against [`ModelBundle::model`].
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError::InvalidConfig`] naming the first row that fails
    /// the row check, before anything is encoded.
    pub fn encode_batch<'b, R: AsRef<[f32]>>(
        &self,
        rows: &[R],
        buffers: &'b mut QueryBuffers,
        pool: ThreadPool,
    ) -> Result<&'b [BinaryHv], LehdcError> {
        self.check_rows(rows)?;
        let QueryBuffers {
            features,
            encoded,
            projected,
        } = buffers;
        features.clear();
        for row in rows {
            let start = features.len();
            features.extend_from_slice(row.as_ref());
            if let Some(norm) = &self.normalizer {
                norm.apply_row(&mut features[start..]);
            }
        }
        let encoded = sized(encoded, rows.len(), self.encoder.dim());
        self.encoder.encode_batch_into(features, encoded, pool)?;
        let Some(sel) = &self.selection else {
            return Ok(encoded);
        };
        let projected = sized(projected, rows.len(), self.model.dim());
        for (query, out) in encoded.iter().zip(projected.iter_mut()) {
            query.project_into(sel, out);
        }
        Ok(projected)
    }

    /// Classifies a batch of raw feature vectors end-to-end on `threads`
    /// pool workers: [`classify_all_recorded`](Self::classify_all_recorded)
    /// with a disabled recorder.
    ///
    /// # Errors
    ///
    /// As [`ModelBundle::classify_all_recorded`].
    pub fn classify_all(&self, rows: &[Vec<f32>], threads: usize) -> Result<Vec<usize>, LehdcError> {
        self.classify_all_recorded(rows, &EpochEngine::new(threads))
    }

    /// Classifies a batch of raw feature vectors end-to-end on `engine`:
    /// [`encode_batch`](Self::encode_batch) then
    /// [`EpochEngine::classify_into`], a window of 256 rows at a time over
    /// one set of buffers, so the working memory does not grow with the
    /// batch. Results are bit-identical to [`ModelBundle::classify`] per
    /// row at any thread count.
    ///
    /// The engine's recorder gets an `encode/ns` span and one `encode`
    /// event, then a `classify/corpus_ns` span, a `classify/samples` count,
    /// a `classify/samples_per_sec` gauge and one `classify` event, the
    /// spans summed over the windows.
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError::InvalidConfig`] naming the first offending row
    /// if any row's feature count differs from the encoder's or any feature
    /// is non-finite.
    pub fn classify_all_recorded(
        &self,
        rows: &[Vec<f32>],
        engine: &EpochEngine,
    ) -> Result<Vec<usize>, LehdcError> {
        self.check_rows(rows)?;
        let rec = engine.recorder();
        let mut buffers = QueryBuffers::default();
        let mut predictions = vec![0; rows.len()];
        let (mut encode_ns, mut classify_ns) = (0, 0);
        for (window, out) in rows.chunks(256).zip(predictions.chunks_mut(256)) {
            let t = rec.start();
            let queries = self.encode_batch(window, &mut buffers, engine.pool())?;
            encode_ns += t.elapsed_ns();
            let t = rec.start();
            engine.classify_into(&self.model, queries, out);
            classify_ns += t.elapsed_ns();
        }
        if rec.enabled() {
            let n = rows.len() as u64;
            let threads = obs::Value::U64(engine.threads() as u64);
            rec.observe_ns("encode/ns", encode_ns);
            rec.emit(
                "encode",
                &[("samples", obs::Value::U64(n)), ("threads", threads)],
            );
            rec.observe_ns("classify/corpus_ns", classify_ns);
            rec.add("classify/samples", n);
            let per_sec = if classify_ns == 0 {
                f64::INFINITY
            } else {
                n as f64 * 1e9 / classify_ns as f64
            };
            rec.gauge("classify/samples_per_sec", per_sec);
            rec.emit(
                "classify",
                &[
                    ("samples", obs::Value::U64(n)),
                    ("dim", obs::Value::U64(self.model.dim().get() as u64)),
                    ("classes", obs::Value::U64(self.model.n_classes() as u64)),
                    ("threads", threads),
                    ("wall_ns", obs::Value::U64(classify_ns)),
                    ("samples_per_sec", obs::Value::F64(per_sec)),
                ],
            );
        }
        Ok(predictions)
    }

    /// Distills the bundle down to `d_out` dimensions: the model keeps the
    /// `d_out` encoder dims with the highest class-margin contribution
    /// (see [`HdcModel::distill`]); the encoder spec is unchanged, so the
    /// distilled bundle still accepts the same raw feature vectors.
    ///
    /// Distilling an already-distilled bundle composes the selections, so
    /// the result always indexes the original encoder.
    ///
    /// # Errors
    ///
    /// Returns [`LehdcError::InvalidConfig`] if `d_out` is zero or exceeds
    /// the current model dimension.
    pub fn distill(&self, d_out: usize) -> Result<ModelBundle, LehdcError> {
        let (model, relative) = self.model.distill(d_out)?;
        let selection = match &self.selection {
            None => relative,
            Some(parent) => relative.iter().map(|&j| parent[j as usize]).collect(),
        };
        let distilled = ModelBundle {
            model,
            encoder: self.encoder.clone(),
            normalizer: self.normalizer.clone(),
            selection: Some(selection),
        };
        distilled.validate_shape()?;
        Ok(distilled)
    }
}

/// Caller-owned working memory of [`ModelBundle::encode_batch`]: normalized
/// rows, encoder-dimension queries and their model-dimension projections.
/// Kept across batches (the serve collector keeps one), the path stops
/// allocating at the largest batch.
#[derive(Debug, Default)]
pub struct QueryBuffers {
    features: Vec<f32>,
    encoded: Vec<BinaryHv>,
    projected: Vec<BinaryHv>,
}

/// The first `len` hypervectors of `buf`, all of dimension `dim`: entries
/// of another dimension are dropped and missing ones allocated.
fn sized(buf: &mut Vec<BinaryHv>, len: usize, dim: Dim) -> &mut [BinaryHv] {
    buf.retain(|hv| hv.dim() == dim);
    buf.resize(buf.len().max(len), BinaryHv::zeros(dim));
    &mut buf[..len]
}

// ---------------------------------------------------------------------------
// Bundle: container write/read + legacy
// ---------------------------------------------------------------------------

/// Serializes a bundle to any writer as an `LHDC` container.
///
/// # Errors
///
/// Returns [`LehdcError::InvalidConfig`] if the bundle's shape invariants
/// fail (see [`ModelBundle::validate_shape`]), or [`LehdcError::Io`] on
/// write failure.
pub fn write_bundle<W: Write>(bundle: &ModelBundle, mut writer: W) -> Result<(), LehdcError> {
    bundle.validate_shape()?;
    let enc = &bundle.encoder;
    let mut meta = MetaWriter::new();
    meta.u64("dim", bundle.model.dim().get() as u64)
        .u64("classes", bundle.model.n_classes() as u64)
        .u64("encoder_dim", enc.dim().get() as u64)
        .u64("features", enc.n_features() as u64)
        .u64("levels", enc.levels().n_levels() as u64)
        .u64("seed", enc.seed());
    let (vmin, vmax) = enc.quantizer().range();
    meta_f32(&mut meta, "vmin", vmin);
    meta_f32(&mut meta, "vmax", vmax);
    meta.bool("normalizer", bundle.normalizer.is_some())
        .bool("distilled", bundle.selection.is_some())
        .str("created_by", PROVENANCE);

    // Aux: selection as delta varints (0 count = not distilled), then the
    // normalizer tables as raw little-endian f32s.
    let mut aux = Vec::new();
    match &bundle.selection {
        None => write_varint(&mut aux, 0),
        Some(sel) => {
            write_varint(&mut aux, sel.len() as u64);
            let mut prev = 0u64;
            for (i, &d) in sel.iter().enumerate() {
                let d = u64::from(d);
                write_varint(&mut aux, if i == 0 { d } else { d - prev });
                prev = d;
            }
        }
    }
    if let Some(norm) = &bundle.normalizer {
        for &v in norm.mins() {
            aux.extend_from_slice(&v.to_le_bytes());
        }
        for &v in norm.ranges() {
            aux.extend_from_slice(&v.to_le_bytes());
        }
    }
    let planes: Vec<&[u64]> = bundle
        .model
        .class_hvs()
        .iter()
        .map(BinaryHv::as_words)
        .collect();
    format::write_container(&mut writer, Artifact::Bundle, &meta.finish(), &aux, &planes)
}

/// The most memory a loaded bundle may ask the loader to regenerate for its
/// encoder: `N` position and `L` level hypervectors of `⌈D/64⌉` words, plus
/// the level memory's `D`-entry permutation. Every bundle this code writes
/// for a real corpus needs far less (the MNIST-shaped D = 10,000 bundle
/// about 1.1 MB); a file claiming more is rejected before any of it is
/// allocated.
const MAX_ENCODER_BYTES: u64 = 256 << 20;

/// Validates an encoder shape read from a file before the item memories are
/// regenerated from it: `L` must satisfy [`hdc::LevelMemory::new`]
/// (`2 ≤ L` and `L − 1 ≤ ⌊D/2⌋`), and the regeneration must fit
/// [`MAX_ENCODER_BYTES`].
fn check_encoder_shape(
    encoder_dim: usize,
    n_features: usize,
    n_levels: usize,
) -> Result<(), LehdcError> {
    if encoder_dim == 0 || n_features == 0 {
        return Err(LehdcError::ModelFormat(format!(
            "implausible encoder shape: D={encoder_dim}, N={n_features}"
        )));
    }
    if n_levels < 2 || n_levels - 1 > encoder_dim / 2 {
        return Err(LehdcError::ModelFormat(format!(
            "implausible level count L={n_levels} for D={encoder_dim} (need 2 ≤ L ≤ ⌊D/2⌋ + 1)"
        )));
    }
    let hv_bytes = encoder_dim.div_ceil(64) as u64 * 8;
    let bytes = (n_features as u64)
        .saturating_add(n_levels as u64)
        .saturating_mul(hv_bytes)
        .saturating_add((encoder_dim as u64).saturating_mul(8));
    if bytes > MAX_ENCODER_BYTES {
        return Err(LehdcError::ModelFormat(format!(
            "encoder shape D={encoder_dim}, N={n_features}, L={n_levels} would regenerate \
             {bytes} bytes of item memory (limit {MAX_ENCODER_BYTES})"
        )));
    }
    Ok(())
}

fn bundle_from_container(c: &format::Container) -> Result<ModelBundle, LehdcError> {
    expect_artifact(c, Artifact::Bundle)?;
    let meta = format::parse_meta(&c.meta)?;
    let dim = meta.need_u64("dim")? as usize;
    let k = meta.need_u64("classes")? as usize;
    let encoder_dim = meta.need_u64("encoder_dim")? as usize;
    let n_features = meta.need_u64("features")? as usize;
    let n_levels = meta.need_u64("levels")? as usize;
    let seed = meta.need_u64("seed")?;
    let vmin = meta.need_f32("vmin")?;
    let vmax = meta.need_f32("vmax")?;
    let has_normalizer = meta.bool_or_false("normalizer")?;
    let distilled = meta.bool_or_false("distilled")?;
    check_model_shape(dim, k)?;
    check_encoder_shape(encoder_dim, n_features, n_levels)?;
    if dim > encoder_dim {
        return Err(LehdcError::ModelFormat(format!(
            "bundle model dimension {dim} exceeds encoder dimension {encoder_dim}"
        )));
    }

    let mut pos = 0usize;
    let n_sel = read_varint(&c.aux, &mut pos)? as usize;
    let selection = if distilled {
        if n_sel != dim {
            return Err(LehdcError::ModelFormat(format!(
                "selection holds {n_sel} dims but the model dimension is {dim}"
            )));
        }
        // Each delta takes at least one aux byte.
        let mut dims = Vec::with_capacity(n_sel.min(c.aux.len()));
        let mut current = 0u64;
        for i in 0..n_sel {
            let delta = read_varint(&c.aux, &mut pos)?;
            if i > 0 && delta == 0 {
                return Err(LehdcError::ModelFormat(
                    "selection dims must be strictly increasing".into(),
                ));
            }
            current = current
                .checked_add(delta)
                .ok_or_else(|| LehdcError::ModelFormat("selection dim overflows".into()))?;
            if current as usize >= encoder_dim {
                return Err(LehdcError::ModelFormat(format!(
                    "selection dim {current} is outside the encoder dimension {encoder_dim}"
                )));
            }
            dims.push(current as u32);
        }
        Some(dims)
    } else {
        if n_sel != 0 {
            return Err(LehdcError::ModelFormat(
                "non-distilled bundle carries a selection".into(),
            ));
        }
        if dim != encoder_dim {
            return Err(LehdcError::ModelFormat(format!(
                "bundle model dimension {dim} does not match encoder dimension {encoder_dim}"
            )));
        }
        None
    };
    let normalizer = if has_normalizer {
        let table = &c.aux[pos..];
        if table.len() != n_features * 8 {
            return Err(LehdcError::ModelFormat(format!(
                "normalizer section holds {} bytes but N={n_features} needs {}",
                table.len(),
                n_features * 8
            )));
        }
        pos = c.aux.len();
        Some(normalizer_from_le_bytes(table)?)
    } else {
        None
    };
    if pos != c.aux.len() {
        return Err(LehdcError::ModelFormat(
            "trailing bytes in the bundle aux section".into(),
        ));
    }

    let hvs = words_to_hvs(&c.words, Dim::new(dim), k, "bundle")?;
    let model = HdcModel::new(hvs)?;
    // The item memories are regenerated only after the entire payload has
    // validated: a truncated or corrupted bundle fails fast instead of
    // paying seconds of codebook construction first.
    let encoder = RecordEncoder::builder(Dim::new(encoder_dim), n_features)
        .levels(n_levels)
        .value_range(vmin, vmax)
        .seed(seed)
        .build()?;
    let bundle = ModelBundle {
        model,
        encoder,
        normalizer,
        selection,
    };
    bundle.validate_shape().map_err(|e| match e {
        LehdcError::InvalidConfig(msg) => LehdcError::ModelFormat(msg),
        other => other,
    })?;
    Ok(bundle)
}

/// Parses a normalizer stored as its `f32` LE mins followed by its `f32`
/// LE ranges; the caller has checked that `bytes` holds 8 per feature.
fn normalizer_from_le_bytes(bytes: &[u8]) -> Result<MinMaxNormalizer, LehdcError> {
    let values: Vec<f32> = bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
        .collect();
    let (mins, ranges) = values.split_at(values.len() / 2);
    Ok(MinMaxNormalizer::from_parts(
        mins.to_vec(),
        ranges.to_vec(),
    )?)
}

fn read_bundle_legacy_body<R: Read>(reader: &mut R) -> Result<ModelBundle, LehdcError> {
    let version = read_u32(reader)?;
    if version != LEGACY_BUNDLE_VERSION {
        return Err(LehdcError::ModelFormat(format!(
            "unsupported bundle version {version} (this build reads {LEGACY_BUNDLE_VERSION})"
        )));
    }
    let dim = read_u64(reader)? as usize;
    let n_features = read_u64(reader)? as usize;
    let n_levels = read_u64(reader)? as usize;
    let min = f32::from_le_bytes(read_array(reader)?);
    let max = f32::from_le_bytes(read_array(reader)?);
    let seed = read_u64(reader)?;
    check_encoder_shape(dim, n_features, n_levels)?;
    let has_normalizer = read_array::<1, _>(reader)?[0];
    let normalizer = match has_normalizer {
        0 => None,
        1 => Some(normalizer_from_le_bytes(&format::read_section(
            reader,
            n_features as u64 * 8,
        )?)?),
        other => {
            return Err(LehdcError::ModelFormat(format!(
                "invalid normalizer flag {other}"
            )));
        }
    };
    let model = read_model(&mut *reader)?;
    if model.dim().get() != dim {
        return Err(LehdcError::ModelFormat(format!(
            "bundle model dimension {} does not match encoder dimension {dim}",
            model.dim()
        )));
    }
    let encoder = RecordEncoder::builder(Dim::new(dim), n_features)
        .levels(n_levels)
        .value_range(min, max)
        .seed(seed)
        .build()?;
    Ok(ModelBundle {
        model,
        encoder,
        normalizer,
        selection: None,
    })
}

/// Deserializes a bundle from any reader, dispatching on the magic:
/// `LHDC` containers and legacy `LEHDCBDL` files both load. The encoder's
/// item memories are regenerated from the persisted seed.
///
/// # Errors
///
/// Returns [`LehdcError::ModelFormat`] for a bad magic/version/payload and
/// [`LehdcError::Hdc`] if the persisted encoder configuration is invalid.
pub fn read_bundle<R: Read>(mut reader: R) -> Result<ModelBundle, LehdcError> {
    match read_magic(&mut reader)? {
        Magic::Container => {
            bundle_from_container(&format::read_container_after_magic(&mut reader)?)
        }
        Magic::Legacy(magic) if &magic == LEGACY_BUNDLE_MAGIC => {
            read_bundle_legacy_body(&mut reader)
        }
        Magic::Legacy(magic) => Err(LehdcError::ModelFormat(format!(
            "bad magic {magic:?}, not a LeHDC bundle file"
        ))),
    }
}

/// Saves a bundle to a file path (atomically: temp file + fsync + rename, so
/// an interrupted save never clobbers an existing artifact).
///
/// # Errors
///
/// As [`write_bundle`], plus file-creation failures.
pub fn save_bundle(bundle: &ModelBundle, path: &Path) -> Result<(), LehdcError> {
    write_atomic(path, |w| write_bundle(bundle, w))
}

/// Loads a bundle from a file path with full validation and path context:
/// every failure — open error, bad magic, implausible shape, truncation,
/// trailing garbage — comes back as a typed [`LehdcError`] whose message
/// names `path`, never a panic. This is the one loading code path shared
/// by the CLI and the serving daemon.
///
/// # Errors
///
/// As [`read_bundle`], with the offending path prefixed to the message;
/// additionally rejects files with bytes beyond the bundle payload (a
/// concatenation or corruption symptom `read_bundle` alone cannot see).
pub fn load_bundle(path: &Path) -> Result<ModelBundle, LehdcError> {
    load_validated(path, "bundle", |reader| read_bundle(reader))
}

// ---------------------------------------------------------------------------
// Encoded corpus: container write/read + legacy
// ---------------------------------------------------------------------------

/// Serializes an encoded corpus (hypervectors + labels) as an `LHDC`
/// container — the cache that makes paper-scale runs practical, since
/// record encoding at `D = 10,000` dominates their wall-clock. Labels ride
/// in the aux section as varints; the hypervectors are the word planes.
///
/// # Errors
///
/// Returns [`LehdcError::Io`] on write failure.
pub fn write_encoded<W: Write>(
    encoded: &crate::EncodedDataset,
    mut writer: W,
) -> Result<(), LehdcError> {
    let mut meta = MetaWriter::new();
    meta.u64("dim", encoded.dim().get() as u64)
        .u64("classes", encoded.n_classes() as u64)
        .u64("samples", encoded.len() as u64)
        .str("created_by", PROVENANCE);
    let mut aux = Vec::new();
    for &label in encoded.labels() {
        write_varint(&mut aux, label as u64);
    }
    let planes: Vec<&[u64]> = encoded.hvs().iter().map(BinaryHv::as_words).collect();
    format::write_container(
        &mut writer,
        Artifact::Encoded,
        &meta.finish(),
        &aux,
        &planes,
    )
}

fn check_corpus_shape(dim: usize, n_classes: usize, n_samples: usize) -> Result<(), LehdcError> {
    if dim == 0 || n_classes == 0 || n_samples == 0 {
        return Err(LehdcError::ModelFormat(format!(
            "degenerate corpus shape: D={dim}, K={n_classes}, N={n_samples}"
        )));
    }
    if dim > 1_000_000_000 || n_classes > 1_000_000 || n_samples > 1_000_000_000 {
        return Err(LehdcError::ModelFormat(format!(
            "implausible corpus shape: D={dim}, K={n_classes}, N={n_samples}"
        )));
    }
    Ok(())
}

fn encoded_from_container(c: &format::Container) -> Result<crate::EncodedDataset, LehdcError> {
    expect_artifact(c, Artifact::Encoded)?;
    let meta = format::parse_meta(&c.meta)?;
    let dim = meta.need_u64("dim")? as usize;
    let n_classes = meta.need_u64("classes")? as usize;
    let n_samples = meta.need_u64("samples")? as usize;
    check_corpus_shape(dim, n_classes, n_samples)?;
    // The payload check comes first: it bounds `n_samples` by the bytes
    // actually read before the label vector is sized from it.
    let hvs = words_to_hvs(&c.words, Dim::new(dim), n_samples, "corpus")?;
    let mut pos = 0usize;
    let mut labels = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        labels.push(read_varint(&c.aux, &mut pos)? as usize);
    }
    if pos != c.aux.len() {
        return Err(LehdcError::ModelFormat(
            "trailing bytes in the corpus label section".into(),
        ));
    }
    crate::EncodedDataset::from_parts(hvs, labels, n_classes)
}

fn read_encoded_legacy_body<R: Read>(reader: &mut R) -> Result<crate::EncodedDataset, LehdcError> {
    let version = read_u32(reader)?;
    if version != LEGACY_ENCODED_VERSION {
        return Err(LehdcError::ModelFormat(format!(
            "unsupported encoded-corpus version {version}"
        )));
    }
    let dim = read_u64(reader)? as usize;
    let n_classes = read_u64(reader)? as usize;
    let n_samples = read_u64(reader)? as usize;
    check_corpus_shape(dim, n_classes, n_samples)?;
    let d = Dim::new(dim);
    // Each sample is its label word followed by its hypervector words.
    let per = 1 + d.words();
    let words = format::read_words(reader, n_samples as u64 * per as u64)?;
    let labels = words.chunks_exact(per).map(|s| s[0] as usize).collect();
    let hvs = words
        .chunks_exact(per)
        .map(|s| hv_from_words(&s[1..], d))
        .collect::<Result<_, _>>()?;
    crate::EncodedDataset::from_parts(hvs, labels, n_classes)
}

/// Deserializes an encoded corpus from any reader, dispatching on the
/// magic: `LHDC` containers and legacy `LEHDCENC` files both load.
///
/// # Errors
///
/// Returns [`LehdcError::ModelFormat`] for a bad magic/version, implausible
/// shape, truncated payload, or invalid labels/padding bits.
pub fn read_encoded<R: Read>(mut reader: R) -> Result<crate::EncodedDataset, LehdcError> {
    match read_magic(&mut reader)? {
        Magic::Container => {
            encoded_from_container(&format::read_container_after_magic(&mut reader)?)
        }
        Magic::Legacy(magic) if &magic == LEGACY_ENCODED_MAGIC => {
            read_encoded_legacy_body(&mut reader)
        }
        Magic::Legacy(magic) => Err(LehdcError::ModelFormat(format!(
            "bad magic {magic:?}, not a LeHDC encoded-corpus file"
        ))),
    }
}

/// Saves an encoded corpus to a file path (atomically: temp file + fsync +
/// rename, so an interrupted save never clobbers an existing artifact).
///
/// # Errors
///
/// As [`write_encoded`], plus file-creation failures.
pub fn save_encoded(encoded: &crate::EncodedDataset, path: &Path) -> Result<(), LehdcError> {
    write_atomic(path, |w| write_encoded(encoded, w))
}

/// Loads an encoded corpus from a file path with full validation and path
/// context, rejecting trailing bytes beyond the payload.
///
/// # Errors
///
/// As [`read_encoded`], with the offending path prefixed to the message.
pub fn load_encoded(path: &Path) -> Result<crate::EncodedDataset, LehdcError> {
    load_validated(path, "encoded corpus", |reader| read_encoded(reader))
}

// ---------------------------------------------------------------------------
// Shared loader validation + file inspection
// ---------------------------------------------------------------------------

/// The one loading scaffold behind every `load_*`: path-prefixed typed
/// errors for open/parse failures plus a one-byte probe that rejects
/// trailing garbage after the payload (a concatenation or corruption
/// symptom the streaming readers alone cannot see).
fn load_validated<T>(
    path: &Path,
    what: &str,
    read: impl FnOnce(&mut BufReader<File>) -> Result<T, LehdcError>,
) -> Result<T, LehdcError> {
    let with_path = |msg: String| LehdcError::ModelFormat(format!("{}: {msg}", path.display()));
    let file = File::open(path).map_err(|e| with_path(format!("cannot open {what}: {e}")))?;
    let mut reader = BufReader::new(file);
    let value = read(&mut reader).map_err(|e| match e {
        LehdcError::ModelFormat(msg) => with_path(msg),
        LehdcError::Hdc(e) => with_path(format!("invalid encoder configuration: {e}")),
        LehdcError::Dataset(e) => with_path(format!("invalid payload: {e}")),
        other => other,
    })?;
    let mut probe = [0u8; 1];
    match reader.read(&mut probe) {
        Ok(0) => Ok(value),
        Ok(_) => Err(with_path(format!(
            "trailing bytes after the {what} payload"
        ))),
        Err(e) => Err(LehdcError::Io(e)),
    }
}

/// Describes an artifact file's on-disk format from its header alone
/// (no payload parsing, no codebook construction) — what `lehdc_cli info`
/// prints.
///
/// # Errors
///
/// Returns [`LehdcError::ModelFormat`] naming `path` if the header is
/// unreadable or matches no known format.
pub fn describe_file(path: &Path) -> Result<String, LehdcError> {
    let with_path = |msg: String| LehdcError::ModelFormat(format!("{}: {msg}", path.display()));
    let file = File::open(path).map_err(|e| with_path(format!("cannot open: {e}")))?;
    let mut reader = BufReader::new(file);
    let mut first = [0u8; 4];
    reader
        .read_exact(&mut first)
        .map_err(|_| with_path("file truncated".into()))?;
    if first == format::MAGIC {
        let mut fixed = [0u8; 6];
        reader
            .read_exact(&mut fixed)
            .map_err(|_| with_path("file truncated".into()))?;
        let version = u32::from_le_bytes(fixed[0..4].try_into().unwrap());
        let artifact = Artifact::from_byte(fixed[4]).map_err(|_| {
            with_path(format!("unknown artifact type byte {}", fixed[4]))
        })?;
        let compression = Compression::from_byte(fixed[5]).map_err(|_| {
            with_path(format!("unknown compression byte {}", fixed[5]))
        })?;
        return Ok(format!(
            "LHDC container v{version}, {} artifact, {} sections",
            artifact.name(),
            compression.name()
        ));
    }
    let mut rest = [0u8; 4];
    reader
        .read_exact(&mut rest)
        .map_err(|_| with_path("file truncated".into()))?;
    let mut magic = [0u8; 8];
    magic[..4].copy_from_slice(&first);
    magic[4..].copy_from_slice(&rest);
    match &magic {
        m if m == LEGACY_MODEL_MAGIC => Ok("legacy LEHDCMDL model".into()),
        m if m == LEGACY_BUNDLE_MAGIC => Ok("legacy LEHDCBDL bundle".into()),
        m if m == LEGACY_ENCODED_MAGIC => Ok("legacy LEHDCENC encoded corpus".into()),
        m => Err(with_path(format!("unknown magic {m:?}"))),
    }
}

fn read_array<const N: usize, R: Read>(reader: &mut R) -> Result<[u8; N], LehdcError> {
    let mut buf = [0u8; N];
    reader.read_exact(&mut buf).map_err(truncated)?;
    Ok(buf)
}

fn read_u32<R: Read>(reader: &mut R) -> Result<u32, LehdcError> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf).map_err(truncated)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(reader: &mut R) -> Result<u64, LehdcError> {
    let mut buf = [0u8; 8];
    reader.read_exact(&mut buf).map_err(truncated)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdc::rng::rng_for;

    // Files written by earlier versions (see tests/fixtures/README.md).
    const MODEL_LEGACY: &[u8] = include_bytes!("../tests/fixtures/model_legacy.lehdc");
    const MODEL_PACKED: &[u8] = include_bytes!("../tests/fixtures/model_packed.lehdc");
    const CORPUS_LEGACY: &[u8] = include_bytes!("../tests/fixtures/corpus_legacy.lehdc");
    const SMOKE_LEGACY: &[u8] = include_bytes!("../tests/fixtures/smoke_legacy.lehdc");
    const SMOKE_PACKED: &[u8] = include_bytes!("../tests/fixtures/smoke_packed.lehdc");

    fn random_model(k: usize, d: usize, seed: u64) -> HdcModel {
        let mut rng = rng_for(seed, 0);
        HdcModel::new(
            (0..k)
                .map(|_| BinaryHv::random(Dim::new(d), &mut rng))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_the_model() {
        for (k, d) in [(2, 64), (5, 100), (26, 1000), (3, 10_000)] {
            let model = random_model(k, d, k as u64);
            let mut buf = Vec::new();
            write_model(&model, &mut buf).unwrap();
            assert_eq!(buf[9], 0, "sections must be stored");
            let loaded = read_model(buf.as_slice()).unwrap();
            assert_eq!(loaded, model, "roundtrip failed for K={k}, D={d}");
        }
    }

    #[test]
    fn container_payload_is_aligned() {
        let model = random_model(2, 128, 1);
        let mut buf = Vec::new();
        write_model(&model, &mut buf).unwrap();
        assert_eq!(&buf[..4], &format::MAGIC);
        let planes_bytes = 2 * Dim::new(128).words() * 8;
        assert_eq!((buf.len() - planes_bytes) % format::PAYLOAD_ALIGN, 0);
    }

    #[test]
    fn rejects_corrupted_files() {
        let model = random_model(2, 128, 2);
        let mut buf = Vec::new();
        write_model(&model, &mut buf).unwrap();

        // bad magic
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_model(bad.as_slice()),
            Err(LehdcError::ModelFormat(_))
        ));

        // bad version
        let mut bad = buf.clone();
        bad[4] = 99;
        assert!(read_model(bad.as_slice()).is_err());

        // truncated payload
        let bad = &buf[..buf.len() - 3];
        assert!(matches!(
            read_model(bad),
            Err(LehdcError::ModelFormat(msg)) if msg.contains("truncated")
        ));

        // empty
        assert!(read_model(&[][..]).is_err());
    }

    #[test]
    fn rejects_padding_bit_violations() {
        // The last byte of each file is the top byte of a word whose high
        // bits lie beyond D (65 here, 300 in the fixtures): every format
        // must reject a set padding bit.
        let mut stored = Vec::new();
        write_model(&random_model(1, 65, 3), &mut stored).unwrap();
        for mut buf in [stored, MODEL_LEGACY.to_vec(), MODEL_PACKED.to_vec()] {
            let last = buf.len() - 1;
            buf[last] |= 0x80; // set a padding bit
            assert!(matches!(
                read_model(buf.as_slice()),
                Err(LehdcError::ModelFormat(msg)) if msg.contains("padding")
            ));
        }
    }

    fn test_bundle(normalizer: Option<MinMaxNormalizer>) -> ModelBundle {
        let encoder = RecordEncoder::builder(Dim::new(512), 12)
            .levels(8)
            .seed(5)
            .build()
            .unwrap();
        ModelBundle {
            model: random_model(3, 512, 6),
            encoder,
            normalizer,
            selection: None,
        }
    }

    #[test]
    fn bundle_roundtrip_classifies_identically() {
        let bundle = test_bundle(None);
        let mut buf = Vec::new();
        write_bundle(&bundle, &mut buf).unwrap();
        assert_eq!(buf[9], 0, "sections must be stored");
        let restored = read_bundle(buf.as_slice()).unwrap();
        assert_eq!(restored.model, bundle.model);
        assert!(restored.selection.is_none());
        // The regenerated encoder is bit-identical in behaviour.
        let sample: Vec<f32> = (0..12).map(|i| i as f32 / 12.0).collect();
        assert_eq!(
            restored.classify(&sample).unwrap(),
            bundle.classify(&sample).unwrap()
        );
        assert_eq!(
            restored.encoder.encode(&sample).unwrap(),
            bundle.encoder.encode(&sample).unwrap()
        );
    }

    #[test]
    fn bundle_persists_the_normalizer() {
        let encoder = RecordEncoder::builder(Dim::new(256), 2)
            .levels(8)
            .seed(9)
            .build()
            .unwrap();
        let normalizer = MinMaxNormalizer::from_parts(vec![-1.0, 0.0], vec![2.0, 10.0]).unwrap();
        let bundle = ModelBundle {
            model: random_model(2, 256, 9),
            encoder,
            normalizer: Some(normalizer),
            selection: None,
        };
        let mut buf = Vec::new();
        write_bundle(&bundle, &mut buf).unwrap();
        let restored = read_bundle(buf.as_slice()).unwrap();
        assert_eq!(restored.normalizer, bundle.normalizer);
        // Raw (un-normalized) features classify identically through both.
        let raw = [0.7f32, 4.2];
        assert_eq!(
            restored.classify(&raw).unwrap(),
            bundle.classify(&raw).unwrap()
        );
    }

    #[test]
    fn distilled_bundle_roundtrips_and_composes() {
        let bundle = test_bundle(None);
        let distilled = bundle.distill(100).unwrap();
        let sel = distilled.selection.as_ref().unwrap();
        assert_eq!(sel.len(), 100);
        assert!(sel.windows(2).all(|w| w[0] < w[1]));
        let mut buf = Vec::new();
        write_bundle(&distilled, &mut buf).unwrap();
        let restored = read_bundle(buf.as_slice()).unwrap();
        assert_eq!(restored.model, distilled.model);
        assert_eq!(restored.selection, distilled.selection);
        let sample: Vec<f32> = (0..12).map(|i| i as f32 / 12.0).collect();
        assert_eq!(
            restored.classify(&sample).unwrap(),
            distilled.classify(&sample).unwrap()
        );
        // Distilling a distilled bundle composes through to encoder dims.
        let twice = distilled.distill(40).unwrap();
        let sel2 = twice.selection.as_ref().unwrap();
        assert_eq!(sel2.len(), 40);
        assert!(sel2.iter().all(|d| sel.contains(d)));
        assert!(twice.validate_shape().is_ok());
    }

    #[test]
    fn classify_rejects_non_finite_features() {
        let bundle = test_bundle(None);
        let mut sample: Vec<f32> = (0..12).map(|i| i as f32 / 12.0).collect();
        sample[7] = f32::NAN;
        let err = bundle.classify(&sample).unwrap_err();
        assert!(err.to_string().contains("feature 7"), "{err}");
        sample[7] = f32::INFINITY;
        assert!(bundle.classify(&sample).is_err());
        sample[7] = 0.5;
        assert!(bundle.classify(&sample).is_ok());
        // The batch path rejects too, naming the row.
        let rows = vec![sample.clone(), {
            let mut r = sample.clone();
            r[2] = f32::NEG_INFINITY;
            r
        }];
        let err = bundle.classify_all(&rows, 2).unwrap_err();
        assert!(err.to_string().contains("row 1"), "{err}");
    }

    #[test]
    fn bundle_rejects_normalizer_feature_mismatch() {
        let encoder = RecordEncoder::builder(Dim::new(128), 3).seed(1).build().unwrap();
        let bundle = ModelBundle {
            model: random_model(2, 128, 1),
            encoder,
            normalizer: Some(MinMaxNormalizer::from_parts(vec![0.0], vec![1.0]).unwrap()),
            selection: None,
        };
        let mut buf = Vec::new();
        assert!(write_bundle(&bundle, &mut buf).is_err());
    }

    #[test]
    fn bundle_rejects_mismatched_dimensions() {
        let encoder = RecordEncoder::builder(Dim::new(256), 4).seed(1).build().unwrap();
        let model = random_model(2, 512, 1); // D mismatch
        let bundle = ModelBundle { model, encoder, normalizer: None, selection: None };
        let mut buf = Vec::new();
        assert!(matches!(
            write_bundle(&bundle, &mut buf),
            Err(LehdcError::InvalidConfig(_))
        ));
    }

    #[test]
    fn bundle_rejects_model_file_as_bundle() {
        let model = random_model(2, 64, 2);
        // Container model artifact: the artifact byte rejects it.
        let mut buf = Vec::new();
        write_model(&model, &mut buf).unwrap();
        assert!(matches!(
            read_bundle(buf.as_slice()),
            Err(LehdcError::ModelFormat(msg)) if msg.contains("not a bundle")
        ));
        // Legacy model file: the magic rejects it.
        assert!(matches!(
            read_bundle(MODEL_LEGACY),
            Err(LehdcError::ModelFormat(msg)) if msg.contains("magic")
        ));
    }

    #[test]
    fn encoded_corpus_roundtrips() {
        let mut rng = rng_for(8, 8);
        let d = Dim::new(130);
        let hvs: Vec<BinaryHv> = (0..7).map(|_| BinaryHv::random(d, &mut rng)).collect();
        let labels: Vec<usize> = (0..7).map(|i| i % 3).collect();
        let encoded = crate::EncodedDataset::from_parts(hvs, labels, 3).unwrap();
        let mut buf = Vec::new();
        write_encoded(&encoded, &mut buf).unwrap();
        assert_eq!(buf[9], 0, "sections must be stored");
        let restored = read_encoded(buf.as_slice()).unwrap();
        assert_eq!(restored.len(), encoded.len());
        assert_eq!(restored.labels(), encoded.labels());
        assert_eq!(restored.hvs(), encoded.hvs());
        assert_eq!(restored.n_classes(), 3);
        // corrupted inputs are rejected
        assert!(read_encoded(&buf[..buf.len() - 1]).is_err());
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(read_encoded(bad.as_slice()).is_err());
    }

    #[test]
    fn legacy_corpus_rejects_an_out_of_range_label() {
        // Legacy layout: the first sample's label u64 sits at offset 36,
        // and the fixture corpus has 3 classes.
        assert!(read_encoded(CORPUS_LEGACY).is_ok());
        let mut bad = CORPUS_LEGACY.to_vec();
        bad[36] = 9;
        assert!(read_encoded(bad.as_slice()).is_err());
    }

    #[test]
    fn loaders_reject_trailing_garbage_and_name_the_path() {
        let dir = std::env::temp_dir().join("lehdc_trailing_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let model = random_model(2, 96, 4);
        let bundle = test_bundle(None);
        let encoded = {
            let mut rng = rng_for(5, 5);
            let hvs: Vec<BinaryHv> = (0..3).map(|_| BinaryHv::random(Dim::new(96), &mut rng)).collect();
            crate::EncodedDataset::from_parts(hvs, vec![0, 1, 0], 2).unwrap()
        };

        let model_path = dir.join("m.lehdc");
        save_model(&model, &model_path).unwrap();
        let bundle_path = dir.join("b.lehdc");
        save_bundle(&bundle, &bundle_path).unwrap();
        let legacy_bundle_path = dir.join("bl.lehdc");
        std::fs::write(&legacy_bundle_path, SMOKE_LEGACY).unwrap();
        let enc_path = dir.join("e.lehdc");
        save_encoded(&encoded, &enc_path).unwrap();

        assert!(load_model(&model_path).is_ok());
        assert!(load_bundle(&bundle_path).is_ok());
        assert!(load_bundle(&legacy_bundle_path).is_ok());
        assert!(load_encoded(&enc_path).is_ok());

        for path in [&model_path, &bundle_path, &legacy_bundle_path, &enc_path] {
            let mut bytes = std::fs::read(path).unwrap();
            bytes.extend_from_slice(b"junk");
            std::fs::write(path, &bytes).unwrap();
        }
        for (result, path) in [
            (load_model(&model_path).map(|_| ()), &model_path),
            (load_bundle(&bundle_path).map(|_| ()), &bundle_path),
            (load_bundle(&legacy_bundle_path).map(|_| ()), &legacy_bundle_path),
            (load_encoded(&enc_path).map(|_| ()), &enc_path),
        ] {
            let err = result.unwrap_err().to_string();
            assert!(err.contains("trailing bytes"), "{path:?}: {err}");
            assert!(
                err.contains(path.file_name().unwrap().to_str().unwrap()),
                "{path:?}: {err}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn describe_file_names_every_format() {
        let dir = std::env::temp_dir().join("lehdc_describe_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bundle = test_bundle(None);
        let container = dir.join("c.lehdc");
        save_bundle(&bundle, &container).unwrap();
        assert_eq!(
            describe_file(&container).unwrap(),
            "LHDC container v1, bundle artifact, stored sections"
        );
        for (name, bytes, want) in [
            (
                "p.lehdc",
                SMOKE_PACKED,
                "LHDC container v1, bundle artifact, packed sections",
            ),
            ("l.lehdc", SMOKE_LEGACY, "legacy LEHDCBDL bundle"),
            ("m.lehdc", MODEL_LEGACY, "legacy LEHDCMDL model"),
            ("e.lehdc", CORPUS_LEGACY, "legacy LEHDCENC encoded corpus"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, bytes).unwrap();
            assert_eq!(describe_file(&path).unwrap(), want);
        }
        let junk = dir.join("junk.bin");
        std::fs::write(&junk, b"not a model").unwrap();
        assert!(describe_file(&junk).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("lehdc_model_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.lehdc");
        let model = random_model(4, 2048, 4);
        save_model(&model, &path).unwrap();
        let loaded = load_model(&path).unwrap();
        assert_eq!(loaded, model);
        assert!(load_model(Path::new("/nonexistent/model.lehdc")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_write_never_replaces_a_valid_file() {
        // A save that dies mid-payload (crash, full disk, serialization
        // error) must leave the previous artifact untouched and no temp
        // debris behind — the atomic-rename contract.
        let dir = std::env::temp_dir().join("lehdc_atomic_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.lehdc");
        let model = random_model(3, 1024, 11);
        save_model(&model, &path).unwrap();

        let err = write_atomic(&path, |w| {
            // Write a garbage partial payload, then fail as an interrupted
            // writer would.
            w.write_all(b"partial garbage")?;
            Err(LehdcError::ModelFormat("simulated interruption".into()))
        });
        assert!(err.is_err(), "the simulated interruption must surface");

        let loaded = load_model(&path).expect("the valid artifact must survive");
        assert_eq!(loaded, model, "payload must be byte-preserved");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|name| name.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp debris left behind: {leftovers:?}");

        // A successful save still lands, replacing the old payload.
        let replacement = random_model(3, 1024, 12);
        save_model(&replacement, &path).unwrap();
        assert_eq!(load_model(&path).unwrap(), replacement);
        std::fs::remove_dir_all(&dir).ok();
    }
}
