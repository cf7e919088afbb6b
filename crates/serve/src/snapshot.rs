//! Versioned on-disk snapshots: trained weights, the top-k aggregation
//! operator, and the graph inputs needed to serve it.
//!
//! A [`ServeSnapshot`] bundles a [`ModelSnapshot`] (the trained SIGMA
//! parameters and operator) with the node features and adjacency matrix the
//! model embeds, making the file self-contained: `load` → build an
//! [`crate::InferenceEngine`] → answer queries, with no access to the
//! training pipeline. Files carry a magic tag and a format version; readers
//! reject newer versions and malformed sections with typed errors.

use crate::format::{self, decode_aggregator, encode_aggregator, read_mlp, write_mlp, MetaInfo};
use crate::mmap::to_legacy_error;
use crate::{codec, MappedSnapshot};
use crate::{Result, ServeError};
use sigma::snapshot::ModelSnapshot;
use sigma_matrix::{CsrMatrix, DenseMatrix};
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Magic bytes identifying a SIGMA snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"SIGMASNP";

/// Current (highest writable/readable) snapshot format version: the
/// zero-copy sectioned layout of [`crate::MappedSnapshot`]. Version 1
/// (streamed, length-prefixed) files remain readable.
pub const SNAPSHOT_VERSION: u32 = 2;

/// A self-contained serving artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSnapshot {
    /// Free-form tag recorded at save time (model name, dataset, run id…).
    pub tag: String,
    /// The trained model: weights, hyper-parameters, aggregation operator.
    pub model: ModelSnapshot,
    /// Node features `X` (`n × f`), input to `MLP_X`.
    pub features: DenseMatrix,
    /// Binary adjacency `A` (`n × n`), input to `MLP_A` and the source of
    /// neighbourhood information for cache invalidation.
    pub adjacency: CsrMatrix,
    /// Precomputed full-graph embeddings `H` (`n × classes`), populated by
    /// [`ServeSnapshot::precompute_embeddings`]. When present, a v2 file
    /// carries them as a mappable section and an engine built from the
    /// mapping skips the encoder entirely at cold start. Not written by
    /// the v1 format.
    pub embeddings: Option<DenseMatrix>,
}

impl ServeSnapshot {
    /// Bundles a model snapshot with its serving inputs, validating that all
    /// shapes agree.
    pub fn new(
        tag: impl Into<String>,
        model: ModelSnapshot,
        features: DenseMatrix,
        adjacency: CsrMatrix,
    ) -> Result<Self> {
        model.validate()?;
        let n = model.num_nodes();
        if features.rows() != n || features.cols() != model.feature_dim() {
            return Err(ServeError::Corrupt {
                reason: format!(
                    "feature matrix {:?} does not match the model's {} × {} inputs",
                    features.shape(),
                    n,
                    model.feature_dim()
                ),
            });
        }
        if adjacency.shape() != (n, n) {
            return Err(ServeError::OperatorMismatch {
                got: adjacency.shape(),
                expected: n,
            });
        }
        Ok(Self {
            tag: tag.into(),
            model,
            features,
            adjacency,
            embeddings: None,
        })
    }

    /// Number of nodes this snapshot serves.
    pub fn num_nodes(&self) -> usize {
        self.model.num_nodes()
    }

    /// Runs the encoder once and stores the full-graph embeddings `H` in
    /// the snapshot, so a subsequent [`ServeSnapshot::save`] emits them as
    /// a mappable `EMB` section and mapped engines cold-start in O(1).
    pub fn precompute_embeddings(&mut self) -> Result<()> {
        self.embeddings = Some(crate::forward::compute_embeddings(
            &self.model,
            &self.features,
            &self.adjacency,
        )?);
        Ok(())
    }

    /// Writes the snapshot to `path`, atomically replacing any file there.
    ///
    /// The bytes go to a temporary file in the same directory, which is
    /// fsynced and then renamed over `path`; the directory is fsynced last.
    /// A reader never sees a half-written file, and a live
    /// [`MappedSnapshot`] of the old file keeps its pages: the rename
    /// unlinks the old inode instead of truncating it under the mapping.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        static SAVE_ID: AtomicU64 = AtomicU64::new(0);
        let path = path.as_ref();
        let name = path.file_name().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("snapshot path {} names no file", path.display()),
            )
        })?;
        let dir = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        let tmp = dir.join(format!(
            ".{}.{}-{}.tmp",
            name.to_string_lossy(),
            std::process::id(),
            SAVE_ID.fetch_add(1, Ordering::Relaxed)
        ));
        let write = || -> Result<()> {
            let mut w = BufWriter::new(File::create(&tmp)?);
            self.write_to(&mut w)?;
            w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
            std::fs::rename(&tmp, path)?;
            #[cfg(unix)]
            File::open(dir)?.sync_all()?;
            Ok(())
        };
        let result = write();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Reads a snapshot from `path`, validating magic, version and every
    /// section. v2 files are memory-mapped, verified (header table,
    /// checksums, CSR invariants) and then decoded; v1 files stream
    /// through the legacy reader. For zero-copy serving keep the mapping
    /// itself: [`MappedSnapshot::open`] +
    /// [`crate::InferenceEngine::from_mapped`].
    pub fn load(path: impl AsRef<Path>) -> Result<Self> {
        let mut prelude = [0u8; 12];
        {
            let mut f = File::open(&path)?;
            f.read_exact(&mut prelude)?;
        }
        if prelude[..8] == SNAPSHOT_MAGIC[..]
            && u32::from_le_bytes(prelude[8..12].try_into().unwrap()) == 2
        {
            return MappedSnapshot::open(path)
                .and_then(|m| m.to_snapshot())
                .map_err(to_legacy_error);
        }
        let file = File::open(path)?;
        let mut r = BufReader::new(file);
        Self::read_from(&mut r)
    }

    /// Serialises to any writer in the current (v2, zero-copy) format: a
    /// header table of CRC-stamped, 64-byte-aligned sections holding the
    /// CSR/dense arrays as raw little-endian data. The `save` body;
    /// exposed for tests and in-memory transport.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
        let n = self.num_nodes();
        let num_classes = self.model.num_classes();
        if let Some(emb) = &self.embeddings {
            if emb.shape() != (n, num_classes) {
                return Err(ServeError::Corrupt {
                    reason: format!(
                        "embedding matrix {:?} does not match the model's {} × {} output",
                        emb.shape(),
                        n,
                        num_classes
                    ),
                });
            }
        }
        let adj_nnz = self.adjacency.values().len();
        let adj_width = format::ptr_width_for(adj_nnz);
        let (op_nnz, op_width) = match &self.model.operator {
            Some(op) => (op.values().len(), format::ptr_width_for(op.values().len())),
            None => (0, 4),
        };
        let meta = MetaInfo {
            tag: self.tag.clone(),
            effective_alpha: self.model.effective_alpha(),
            num_nodes: n as u64,
            feature_dim: self.model.feature_dim() as u64,
            num_classes: num_classes as u64,
            adj_nnz: adj_nnz as u64,
            adj_ptr_width: adj_width,
            has_operator: self.model.operator.is_some(),
            op_nnz: op_nnz as u64,
            op_ptr_width: op_width,
            has_embeddings: self.embeddings.is_some(),
        };
        let mut sw = format::SectionWriter::new();
        sw.push(format::TAG_META, format::encode_meta(&meta)?);
        sw.push(
            format::TAG_ADJ_PTR,
            format::encode_indptr(self.adjacency.indptr(), adj_width),
        );
        sw.push(
            format::TAG_ADJ_IDX,
            format::encode_u32s(self.adjacency.indices()),
        );
        sw.push(
            format::TAG_ADJ_VAL,
            format::encode_f32s(self.adjacency.values()),
        );
        if let Some(op) = &self.model.operator {
            sw.push(
                format::TAG_OP_PTR,
                format::encode_indptr(op.indptr(), op_width),
            );
            sw.push(format::TAG_OP_IDX, format::encode_u32s(op.indices()));
            sw.push(format::TAG_OP_VAL, format::encode_f32s(op.values()));
        }
        sw.push(
            format::TAG_FEAT,
            format::encode_f32s(self.features.as_slice()),
        );
        if let Some(emb) = &self.embeddings {
            sw.push(format::TAG_EMB, format::encode_f32s(emb.as_slice()));
        }
        sw.push(format::TAG_MODEL, format::encode_model_blob(&self.model)?);
        sw.write_to(w)
    }

    /// Serialises in the legacy v1 streamed format (no mapping, no
    /// embeddings section). Kept for compatibility tests and downgrades.
    pub fn write_to_v1<W: Write>(&self, w: &mut W) -> Result<()> {
        w.write_all(SNAPSHOT_MAGIC)?;
        codec::write_u32(w, 1)?;
        codec::write_string(w, &self.tag)?;
        // Scalar hyper-parameters.
        codec::write_f64(w, self.model.delta)?;
        codec::write_f64(w, self.model.alpha)?;
        match self.model.alpha_raw {
            Some(raw) => {
                codec::write_u32(w, 1)?;
                codec::write_f32(w, raw)?;
            }
            None => codec::write_u32(w, 0)?,
        }
        codec::write_f32(w, self.model.dropout)?;
        codec::write_u32(w, encode_aggregator(self.model.aggregator))?;
        // Operator.
        match &self.model.operator {
            Some(op) => {
                codec::write_u32(w, 1)?;
                codec::write_csr(w, op)?;
            }
            None => codec::write_u32(w, 0)?,
        }
        // Weight stacks.
        write_mlp(w, &self.model.mlp_a)?;
        write_mlp(w, &self.model.mlp_x)?;
        write_mlp(w, &self.model.mlp_h)?;
        // Serving inputs.
        codec::write_dense(w, &self.features)?;
        codec::write_csr(w, &self.adjacency)?;
        Ok(())
    }

    /// Deserialises from any reader, dispatching on the format version:
    /// v1 streams through the legacy decoder, v2 adopts the remaining
    /// bytes via [`MappedSnapshot::from_bytes`] (aligned copy) and fully
    /// decodes. v2 structural damage is reported through the same
    /// [`ServeError::Corrupt`]/[`ServeError::UnsupportedVersion`] variants
    /// v1 callers already handle; use [`MappedSnapshot`] directly for the
    /// typed [`crate::SnapshotError`] detail.
    pub fn read_from<R: Read>(r: &mut R) -> Result<Self> {
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != SNAPSHOT_MAGIC {
            return Err(ServeError::Corrupt {
                reason: "missing SIGMASNP magic; not a snapshot file".into(),
            });
        }
        let version = codec::read_u32(r)?;
        if version == 0 || version > SNAPSHOT_VERSION {
            return Err(ServeError::UnsupportedVersion {
                found: version,
                supported: SNAPSHOT_VERSION,
            });
        }
        if version == 2 {
            let mut buf = Vec::with_capacity(format::PRELUDE_LEN);
            buf.extend_from_slice(&magic);
            buf.extend_from_slice(&2u32.to_le_bytes());
            r.read_to_end(&mut buf)?;
            return MappedSnapshot::from_bytes(&buf)
                .and_then(|m| m.to_snapshot())
                .map_err(to_legacy_error);
        }
        let tag = codec::read_string(r)?;
        let delta = codec::read_f64(r)?;
        let alpha = codec::read_f64(r)?;
        let alpha_raw = match codec::read_u32(r)? {
            0 => None,
            1 => Some(codec::read_f32(r)?),
            t => {
                return Err(ServeError::Corrupt {
                    reason: format!("invalid alpha_raw tag {t}"),
                })
            }
        };
        let dropout = codec::read_f32(r)?;
        let aggregator = decode_aggregator(codec::read_u32(r)?)?;
        let operator = match codec::read_u32(r)? {
            0 => None,
            1 => Some(codec::read_csr(r)?),
            t => {
                return Err(ServeError::Corrupt {
                    reason: format!("invalid operator tag {t}"),
                })
            }
        };
        let mlp_a = read_mlp(r)?;
        let mlp_x = read_mlp(r)?;
        let mlp_h = read_mlp(r)?;
        let features = codec::read_dense(r)?;
        let adjacency = codec::read_csr(r)?;
        let model = ModelSnapshot {
            delta,
            alpha,
            alpha_raw,
            dropout,
            aggregator,
            operator,
            mlp_a,
            mlp_x,
            mlp_h,
        };
        Self::new(tag, model, features, adjacency)
    }
}
