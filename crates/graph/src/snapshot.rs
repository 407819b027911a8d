//! The disk-backed snapshot store: file-level save / load / inspect
//! around the [`crate::binfmt`] wire format.
//!
//! This is the persistence layer the engine, sessions, `csq`, and the
//! bench harness share: a graph is generated or parsed **once**, saved
//! as a `.csg` file (CSG2: sectioned, checksummed, with a statistics
//! sidecar), and re-loaded in milliseconds on every later process start
//! — with the planner's [`crate::Cardinalities`] already warm.
//!
//! ```no_run
//! use cs_graph::{figure1, snapshot};
//!
//! let g = figure1();
//! let info = snapshot::save_to(&g, "figure1.csg").unwrap();
//! assert!(info.has_stats);
//! let g2 = snapshot::load_from("figure1.csg").unwrap();
//! assert!(g2.cardinalities_if_computed().is_some()); // warm planner
//! ```

use crate::binfmt::{self, DecodeError, CSR_LAYOUT_VERSION, SECTION_CSR_GRAPH, SECTION_STATS};
use crate::model::Graph;
use std::fmt;
use std::io::{BufWriter, Write};
use std::path::Path;

#[cfg(all(unix, target_endian = "little"))]
use crate::storage::MmapFile;

/// Errors from the file-level snapshot API: either the filesystem
/// failed or the bytes did not decode.
#[derive(Debug)]
pub enum SnapshotError {
    /// An I/O error, tagged with the offending path.
    Io {
        /// The file being read or written.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The file's bytes are not a valid snapshot.
    Decode {
        /// The file being decoded.
        path: String,
        /// The format-level error.
        source: DecodeError,
    },
}

impl SnapshotError {
    fn io(path: &Path, source: std::io::Error) -> Self {
        SnapshotError::Io {
            path: path.display().to_string(),
            source,
        }
    }

    fn decode(path: &Path, source: DecodeError) -> Self {
        SnapshotError::Decode {
            path: path.display().to_string(),
            source,
        }
    }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, source } => write!(f, "{path}: {source}"),
            SnapshotError::Decode { path, source } => write!(f, "{path}: {source}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io { source, .. } => Some(source),
            SnapshotError::Decode { source, .. } => Some(source),
        }
    }
}

/// One section of an inspected snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// The section id (see `binfmt::SECTION_*`).
    pub id: u32,
    /// The section's human-readable name.
    pub name: &'static str,
    /// Payload length in bytes.
    pub len: u64,
    /// Byte offset of the payload within the file.
    pub offset: u64,
}

impl SectionInfo {
    /// The strongest power-of-two alignment (up to 8) of the payload's
    /// file offset — the CSR section needs at least 4 for zero-copy.
    pub fn alignment(&self) -> u64 {
        let a = 1 << self.offset.trailing_zeros().min(3);
        debug_assert!(a <= 8);
        a
    }
}

/// What [`inspect`] (and [`save_to`]) report about a snapshot file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Total file size in bytes.
    pub bytes: u64,
    /// Number of nodes.
    pub nodes: u64,
    /// Number of edges.
    pub edges: u64,
    /// Number of interned strings (including ε).
    pub strings: u64,
    /// Whether a statistics sidecar is present (the loaded graph's
    /// planner starts warm).
    pub has_stats: bool,
    /// The layout version of the `csr` section.
    pub csr_layout: u32,
    /// The file's sections in file order.
    pub sections: Vec<SectionInfo>,
}

impl fmt::Display for SnapshotInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "CSG2 snapshot: {} bytes, {} nodes, {} edges, {} strings, stats {}, \
             layout csr-v{} (zero-copy capable)",
            self.bytes,
            self.nodes,
            self.edges,
            self.strings,
            if self.has_stats { "present" } else { "absent" },
            self.csr_layout,
        )?;
        for s in &self.sections {
            writeln!(
                f,
                "  section {} ({}): {} bytes at offset {} ({}-byte aligned)",
                s.id,
                s.name,
                s.len,
                s.offset,
                s.alignment()
            )?;
        }
        Ok(())
    }
}

/// Saves `g` to `path` in the CSG2 format, statistics sidecar included
/// (computing the [`crate::Cardinalities`] if not cached yet). Sections
/// are streamed through a [`BufWriter`] — the whole file is never
/// materialised as one buffer. Returns what was written.
pub fn save_to(g: &Graph, path: impl AsRef<Path>) -> Result<SnapshotInfo, SnapshotError> {
    let path = path.as_ref();
    let sections = binfmt::encode_sections(g);

    let file = std::fs::File::create(path).map_err(|e| SnapshotError::io(path, e))?;
    let mut w = BufWriter::new(file);
    let mut write = |bytes: &[u8]| w.write_all(bytes);
    let io = |e| SnapshotError::io(path, e);

    write(b"CSG2").map_err(io)?;
    write(&(sections.len() as u32).to_le_bytes()).map_err(io)?;
    let mut total = 8u64;
    let mut infos = Vec::with_capacity(sections.len());
    for (id, payload) in &sections {
        write(&binfmt::section_header(*id, payload)).map_err(io)?;
        write(payload).map_err(io)?;
        infos.push(SectionInfo {
            id: *id,
            name: binfmt::section_name(*id),
            len: payload.len() as u64,
            offset: total + 16,
        });
        total += 16 + payload.len() as u64;
    }
    w.flush().map_err(io)?;
    w.into_inner()
        .map_err(|e| SnapshotError::io(path, e.into_error()))?
        .sync_all()
        .map_err(io)?;

    Ok(SnapshotInfo {
        bytes: total,
        nodes: g.node_count() as u64,
        edges: g.edge_count() as u64,
        strings: g.interner().len() as u64,
        has_stats: true,
        csr_layout: CSR_LAYOUT_VERSION,
        sections: infos,
    })
}

/// Loads a graph from a CSG2 snapshot file. When the file carries a
/// statistics section, the returned graph's
/// [`crate::Graph::cardinalities`] is already populated — no
/// first-query stats pass.
///
/// On little-endian unix hosts the load is **zero-copy**: the file is
/// memory-mapped, section checksums and CSR bounds are verified, and
/// the graph's columns alias the mapping directly — no per-edge work
/// at all (a column at a misaligned offset is copied). Big-endian and
/// non-unix hosts, and empty files, fall back to [`load_from_owned`].
pub fn load_from(path: impl AsRef<Path>) -> Result<Graph, SnapshotError> {
    let path = path.as_ref();
    #[cfg(all(unix, target_endian = "little"))]
    if let Some(g) = try_load_mapped(path)? {
        return Ok(g);
    }
    load_from_owned(path)
}

/// Loads a snapshot into freshly allocated memory, never mapping the
/// file — the portable path, and the parse-vs-load ablation's
/// "load (owned)" arm.
pub fn load_from_owned(path: impl AsRef<Path>) -> Result<Graph, SnapshotError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| SnapshotError::io(path, e))?;
    binfmt::decode_graph(&bytes).map_err(|e| SnapshotError::decode(path, e))
}

/// Loads a snapshot strictly zero-copy, erroring instead of falling
/// back when the host (or an empty file) does not support mapped
/// loads. The ablation harness uses this to keep the `load_mmap`
/// column honest.
pub fn load_from_mmap(path: impl AsRef<Path>) -> Result<Graph, SnapshotError> {
    let path = path.as_ref();
    let unsupported = |reason: &str| {
        SnapshotError::io(
            path,
            std::io::Error::new(std::io::ErrorKind::Unsupported, reason.to_string()),
        )
    };
    #[cfg(all(unix, target_endian = "little"))]
    {
        match try_load_mapped(path)? {
            Some(g) => Ok(g),
            None => Err(unsupported("an empty file cannot load zero-copy")),
        }
    }
    #[cfg(not(all(unix, target_endian = "little")))]
    {
        Err(unsupported(
            "memory-mapped loads need a little-endian unix host",
        ))
    }
}

/// Maps the file and decodes it in place. `Ok(None)` means the file
/// cannot be mapped (it is empty, or Miri cannot model the mapping);
/// any decode failure is an error.
#[cfg(all(unix, target_endian = "little"))]
fn try_load_mapped(path: &Path) -> Result<Option<Graph>, SnapshotError> {
    // Miri cannot model the mmap FFI; report "not eligible" so loads
    // fall back to the owned read path and the decode/validate logic
    // still runs under the interpreter.
    #[cfg(miri)]
    {
        let _ = path;
        return Ok(None);
    }
    #[cfg(not(miri))]
    try_load_mapped_inner(path)
}

#[cfg(all(unix, target_endian = "little", not(miri)))]
fn try_load_mapped_inner(path: &Path) -> Result<Option<Graph>, SnapshotError> {
    let file = std::fs::File::open(path).map_err(|e| SnapshotError::io(path, e))?;
    let Some(map) = MmapFile::map(&file).map_err(|e| SnapshotError::io(path, e))? else {
        return Ok(None);
    };
    // A file that fails the mapped decode fails the owned one too —
    // report, don't re-decode.
    binfmt::decode_graph_mapped(&map)
        .map(Some)
        .map_err(|e| SnapshotError::decode(path, e))
}

/// Reads a snapshot file's structure — sections with byte lengths,
/// offsets and alignment, counts, whether statistics are present —
/// verifying every checksum, *without* building the graph. The counts
/// come from the CSR section's header; a file without that section is
/// an error, exactly as for [`load_from`].
pub fn inspect(path: impl AsRef<Path>) -> Result<SnapshotInfo, SnapshotError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| SnapshotError::io(path, e))?;
    let decode = |e| SnapshotError::decode(path, e);
    let sections = binfmt::read_sections(&bytes).map_err(decode)?;
    let csr = binfmt::section(&sections, SECTION_CSR_GRAPH)
        .and_then(binfmt::peek_csr_header)
        .map_err(decode)?;
    let base = bytes.as_ptr() as u64;
    Ok(SnapshotInfo {
        bytes: bytes.len() as u64,
        nodes: csr.nodes as u64,
        edges: csr.edges as u64,
        strings: csr.labels as u64,
        has_stats: sections.iter().any(|s| s.id == SECTION_STATS),
        csr_layout: csr.version,
        sections: sections
            .iter()
            .map(|s| SectionInfo {
                id: s.id,
                name: binfmt::section_name(s.id),
                len: s.payload.len() as u64,
                offset: s.payload.as_ptr() as u64 - base,
            })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure1::figure1;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("cs-graph-snapshot-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn save_load_inspect_roundtrip() {
        // The mutated graph is saved through the compaction fold
        // `encode_sections` runs on a clone; what `save_to` reports
        // must still match the file it wrote.
        for (name, g) in [
            ("figure1", figure1()),
            ("mutated", binfmt::tests::mutated_figure1()),
        ] {
            let path = tmp(&format!("roundtrip-{name}.csg"));
            let info = save_to(&g, &path).unwrap();
            assert_eq!(info.nodes, g.node_count() as u64, "{name}");
            assert_eq!(info.edges, g.edge_count() as u64, "{name}");
            assert_eq!(info.strings, g.interner().len() as u64, "{name}");
            assert!(info.has_stats);
            assert_eq!(info.csr_layout, CSR_LAYOUT_VERSION);
            // figure1 carries no properties: csr + interner + stats.
            assert_eq!(info.sections.len(), 3);
            // The CSR section comes first so its payload lands 8-aligned.
            assert_eq!(info.sections[0].id, SECTION_CSR_GRAPH);
            assert_eq!(info.sections[0].offset, 24);
            assert_eq!(info.sections[0].alignment(), 8);

            let inspected = inspect(&path).unwrap();
            assert_eq!(inspected, info, "{name}");
            assert!(inspected.to_string().contains("stats present"));
            assert!(inspected.to_string().contains("layout csr-v1"));

            let g2 = load_from(&path).unwrap();
            assert_eq!(g2.edge_count(), g.edge_count());
            assert_eq!(
                g2.cardinalities_if_computed().unwrap(),
                g.cardinalities(),
                "{name}: loaded stats must equal recomputed stats"
            );
            #[cfg(all(unix, target_endian = "little", not(miri)))]
            assert!(g2.is_memory_mapped(), "CSR snapshot should load zero-copy");
            std::fs::remove_file(&path).ok();
        }
    }

    #[cfg(all(unix, target_endian = "little", not(miri)))] // Miri: no mmap FFI
    #[test]
    fn mmap_and_owned_loads_agree() {
        let g = figure1();
        let path = tmp("mmap-owned.csg");
        save_to(&g, &path).unwrap();
        let mapped = load_from_mmap(&path).unwrap();
        let owned = load_from_owned(&path).unwrap();
        assert!(mapped.is_memory_mapped());
        assert!(!owned.is_memory_mapped());
        assert_eq!(mapped.node_count(), owned.node_count());
        assert_eq!(mapped.edge_count(), owned.edge_count());
        for n in g.node_ids() {
            assert_eq!(mapped.node_label(n), owned.node_label(n));
        }
        for e in g.edge_ids() {
            assert_eq!(mapped.describe_edge(e), owned.describe_edge(e));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load_from("/no/such/dir/x.csg").unwrap_err();
        assert!(matches!(err, SnapshotError::Io { .. }));
        assert!(err.to_string().contains("x.csg"));
    }

    #[test]
    fn unwritable_target_is_io_error() {
        let g = figure1();
        let err = save_to(&g, "/no/such/dir/out.csg").unwrap_err();
        assert!(matches!(err, SnapshotError::Io { .. }));
    }

    #[test]
    fn corrupt_file_is_decode_error() {
        let path = tmp("corrupt.csg");
        std::fs::write(&path, b"CSG2garbage").unwrap();
        let err = load_from(&path).unwrap_err();
        assert!(matches!(err, SnapshotError::Decode { .. }), "{err}");
        let err = inspect(&path).unwrap_err();
        assert!(matches!(err, SnapshotError::Decode { .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn inspect_without_stats() {
        let g = figure1();
        let path = tmp("nostats.csg");
        let sections = binfmt::encode_sections(&g);
        let bytes = binfmt::tests::reframe(sections.iter().filter(|(id, _)| *id != SECTION_STATS));
        std::fs::write(&path, bytes).unwrap();
        let info = inspect(&path).unwrap();
        assert!(!info.has_stats);
        assert!(info.to_string().contains("stats absent"));
        assert_eq!(info.sections.len(), 2); // csr + interner

        // The file still loads, with a cold planner.
        let g2 = load_from(&path).unwrap();
        assert!(g2.cardinalities_if_computed().is_none());
        std::fs::remove_file(&path).ok();
    }
}
