//! The compact binary snapshot format for graphs (CSG2).
//!
//! Benchmarks over generated multi-million-edge graphs re-load far
//! faster from a binary snapshot than by re-generating or re-parsing
//! triples; snapshots also pin workloads byte-for-byte for
//! reproducibility. The file-level API (buffered save/load/inspect)
//! lives in [`crate::snapshot`]; this module owns the wire format.
//!
//! A snapshot ([`encode_graph`]) is framed into self-describing
//! sections, so corruption is detected before any payload is
//! interpreted and readers can skip sections they do not know:
//!
//! ```text
//! magic "CSG2" | u32 #sections
//! per section: u32 id | u64 payload_len | u32 crc32(payload) | payload
//! ```
//!
//! Sections: the CSR columns (5, required), the string interner (1,
//! required), the sparse property side tables (6, only when the graph
//! has properties) and the statistics sidecar (4) serialising the
//! graph's [`Cardinalities`] so a loaded graph starts with a *warm*
//! planner: [`decode_graph`] seeds [`crate::Graph::cardinalities`]'s
//! `OnceLock` from the decoded section, skipping the first-query
//! full-scan stats pass. Every snapshot is written with the sidecar,
//! but a reader treats it as optional — a file without it loads with
//! a cold planner. Unknown section ids are checksummed and skipped, so
//! future sections stay forward-compatible; ids 2 and 3 are reserved.
//!
//! The CSR section is written **first** so its payload starts at file
//! offset 24 — 8-byte aligned — and is the aligned little-endian
//! serialisation of exactly the in-memory columns of [`crate::Graph`]
//! (see `model`'s module docs): a 32-byte header of eight `u32` words
//! (`layout version, n, m, t, l, 0, 0, 0`) followed by the fourteen
//! arrays back to back. Every array starts at a 4-byte-aligned offset,
//! which is what lets [`crate::snapshot::load_from`] back the columns
//! directly by a memory-mapped file without copying.

// L006: no narrowing casts in the snapshot codec; convert with
// `try_from`/`try_into` and report a typed error instead.
#![deny(clippy::cast_possible_truncation, clippy::cast_possible_wrap)]

use crate::ids::LabelId;
use crate::interner::Interner;
use crate::model::{Graph, GraphParts, PropTable};
use crate::stats::{Cardinalities, LabelCard};
#[cfg(all(unix, target_endian = "little"))]
use crate::storage::MmapFile;
use crate::storage::Storage;
use crate::value::Value;
#[cfg(all(unix, target_endian = "little"))]
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"CSG2";

/// Section id of the string interner (required).
pub const SECTION_INTERNER: u32 = 1;
/// Section id of the optional [`Cardinalities`] statistics sidecar.
pub const SECTION_STATS: u32 = 4;
/// Section id of the label-partitioned CSR columns (required).
pub const SECTION_CSR_GRAPH: u32 = 5;
/// Section id of the sparse node/edge property side tables.
pub const SECTION_PROPS: u32 = 6;

/// The CSR section's layout version this reader writes and accepts.
pub const CSR_LAYOUT_VERSION: u32 = 1;

/// Human-readable name of a section id (`"unknown"` for future ids).
pub fn section_name(id: u32) -> &'static str {
    match id {
        SECTION_INTERNER => "interner",
        // Reserved: the node and edge record tables of an older layout.
        // No snapshot writes them and the reader skips them; never
        // reuse these ids for new sections.
        2 => "nodes",
        3 => "edges",
        SECTION_STATS => "stats",
        SECTION_CSR_GRAPH => "csr",
        SECTION_PROPS => "props",
        _ => "unknown",
    }
}

/// Errors decoding a snapshot.
#[derive(Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The magic header is not `CSG2`.
    BadMagic,
    /// The buffer ended prematurely or a length was inconsistent.
    Truncated,
    /// A string was not valid UTF-8.
    BadUtf8,
    /// An id referenced out of range.
    BadReference,
    /// A section's payload did not match its stored checksum.
    BadChecksum {
        /// The corrupt section's id.
        section: u32,
    },
    /// A required section is absent.
    MissingSection {
        /// The missing section's id.
        section: u32,
    },
    /// The CSR section declares a layout version this reader does not
    /// understand.
    UnsupportedLayout {
        /// The declared layout version.
        version: u32,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not a CSG2 snapshot"),
            DecodeError::Truncated => write!(f, "snapshot truncated"),
            DecodeError::BadUtf8 => write!(f, "invalid UTF-8 in snapshot string"),
            DecodeError::BadReference => write!(f, "snapshot references unknown id"),
            DecodeError::BadChecksum { section } => write!(
                f,
                "checksum mismatch in {} section (corrupt snapshot)",
                section_name(*section)
            ),
            DecodeError::MissingSection { section } => {
                write!(f, "snapshot misses {} section", section_name(*section))
            }
            DecodeError::UnsupportedLayout { version } => {
                write!(f, "unsupported CSR layout version {version}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table-driven; the table is built at compile time.

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0u32;
    while i < 256 {
        let mut crc = i;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i as usize] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of `bytes` — the per-section checksum of CSG2.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Wire-width count narrowing. Every count the format stores narrower
// than the host's `usize` goes through one of these, so an oversized
// graph fails loudly instead of truncating into a silently corrupt
// snapshot (L006 bans `as` narrowing in this file).

/// Narrows a count to the format's `u32` wire width.
///
/// # Panics
/// Panics when `n` does not fit — encoding must never truncate.
fn wire_u32(n: usize, what: &str) -> u32 {
    #[expect(
        clippy::panic,
        reason = "documented `# Panics` contract: a count beyond the wire width must fail loudly, not truncate"
    )]
    let wire = n
        .try_into()
        .unwrap_or_else(|_| panic!("{what} count {n} exceeds the CSG u32 wire limit"));
    wire
}

// ---------------------------------------------------------------------------
// Payload encoders.

fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Str(s) => {
            buf.push(0);
            buf.extend_from_slice(&wire_u32(s.len(), "string byte").to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Int(i) => {
            buf.push(1);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            buf.push(2);
            buf.extend_from_slice(&x.to_le_bytes());
        }
    }
}

fn encode_interner_payload(g: &Graph) -> Vec<u8> {
    let interner = g.interner();
    let mut buf = Vec::with_capacity(8 + interner.len() * 12);
    buf.extend_from_slice(&wire_u32(interner.len(), "interned string").to_le_bytes());
    for (_, s) in interner.iter() {
        buf.extend_from_slice(&wire_u32(s.len(), "interned string byte").to_le_bytes());
        buf.extend_from_slice(s.as_bytes());
    }
    buf
}

/// Appends a `u32` column as little-endian words (a straight copy on
/// little-endian hosts).
fn put_u32_slice_le(buf: &mut Vec<u8>, words: &[u32]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: u32 has no padding; reinterpreting the words as
        // bytes is exactly their little-endian encoding on this host.
        let bytes =
            unsafe { std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), words.len() * 4) };
        buf.extend_from_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for &w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
}

/// Serialises the CSR columns: a 32-byte header (`layout version, n,
/// m, t, l, 0, 0, 0`) followed by the fourteen arrays back to back.
fn encode_csr_payload(g: &Graph) -> Vec<u8> {
    let cols = g.csr_columns();
    let words: usize = cols.arrays.iter().map(|a| a.len()).sum();
    let mut buf = Vec::with_capacity(32 + words * 4);
    put_u32_slice_le(
        &mut buf,
        &[CSR_LAYOUT_VERSION, cols.n, cols.m, cols.t, cols.l, 0, 0, 0],
    );
    for a in cols.arrays {
        put_u32_slice_le(&mut buf, a);
    }
    buf
}

fn put_prop_table(buf: &mut Vec<u8>, table: &PropTable) {
    buf.extend_from_slice(&wire_u32(table.len(), "property-table entry").to_le_bytes());
    for (id, props) in table.iter() {
        buf.extend_from_slice(&id.to_le_bytes());
        buf.extend_from_slice(&wire_u32(props.len(), "entry property").to_le_bytes());
        for (k, v) in props.iter() {
            buf.extend_from_slice(&k.0.to_le_bytes());
            put_value(buf, v);
        }
    }
}

/// Serialises the sparse node/edge property side tables (entries in
/// ascending entity-id order, keys sorted within an entry).
fn encode_props_payload(g: &Graph) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    put_prop_table(&mut buf, g.node_prop_table());
    put_prop_table(&mut buf, g.edge_prop_table());
    buf
}

/// Serialises a [`Cardinalities`] snapshot. Map entries are sorted by
/// label id so encoding is deterministic (snapshots diff byte-for-byte).
fn encode_stats_payload(c: &Cardinalities) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32 + c.edge_labels.len() * 28);
    buf.extend_from_slice(&(c.nodes as u64).to_le_bytes());
    buf.extend_from_slice(&(c.edges as u64).to_le_bytes());

    let mut edge_labels: Vec<(&LabelId, &LabelCard)> = c.edge_labels.iter().collect();
    edge_labels.sort_by_key(|(l, _)| l.0);
    buf.extend_from_slice(&wire_u32(edge_labels.len(), "edge-label statistic").to_le_bytes());
    for (l, card) in edge_labels {
        buf.extend_from_slice(&l.0.to_le_bytes());
        buf.extend_from_slice(&(card.edges as u64).to_le_bytes());
        buf.extend_from_slice(&(card.distinct_src as u64).to_le_bytes());
        buf.extend_from_slice(&(card.distinct_dst as u64).to_le_bytes());
    }

    for map in [&c.node_labels, &c.node_types] {
        let mut entries: Vec<(&LabelId, &usize)> = map.iter().collect();
        entries.sort_by_key(|(l, _)| l.0);
        buf.extend_from_slice(&wire_u32(entries.len(), "label statistic").to_le_bytes());
        for (l, n) in entries {
            buf.extend_from_slice(&l.0.to_le_bytes());
            buf.extend_from_slice(&(*n as u64).to_le_bytes());
        }
    }
    buf
}

/// Encodes the CSG2 sections of `g` in file order, without framing —
/// the building block [`crate::snapshot::save_to`] streams through a
/// buffered writer instead of concatenating a whole-file buffer.
///
/// The CSR section comes first, so its payload lands at the 8-aligned
/// file offset 24 and mapped loads need no re-alignment. The
/// statistics sidecar (computing the graph's [`Cardinalities`] if they
/// are not cached yet) comes last.
pub fn encode_sections(g: &Graph) -> Vec<(u32, Vec<u8>)> {
    if g.has_delta() {
        // Snapshots persist dense base columns only. Fold the mutation
        // overlay into fresh columns on a clone — the caller's graph
        // keeps its overlay and current edge ids untouched.
        let mut dense = g.clone();
        dense.compact();
        return encode_sections(&dense);
    }
    let mut sections = vec![
        (SECTION_CSR_GRAPH, encode_csr_payload(g)),
        (SECTION_INTERNER, encode_interner_payload(g)),
    ];
    if !g.node_prop_table().is_empty() || !g.edge_prop_table().is_empty() {
        sections.push((SECTION_PROPS, encode_props_payload(g)));
    }
    sections.push((SECTION_STATS, encode_stats_payload(g.cardinalities())));
    sections
}

/// The 16-byte CSG2 section header (`id | payload_len | crc32`).
pub fn section_header(id: u32, payload: &[u8]) -> [u8; 16] {
    let mut h = [0u8; 16];
    h[..4].copy_from_slice(&id.to_le_bytes());
    h[4..12].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    h[12..].copy_from_slice(&crc32(payload).to_le_bytes());
    h
}

/// Encodes a graph into a CSG2 snapshot, statistics sidecar included.
pub fn encode_graph(g: &Graph) -> Vec<u8> {
    let sections = encode_sections(g);
    let total: usize = sections.iter().map(|(_, p)| 16 + p.len()).sum();
    let mut buf = Vec::with_capacity(8 + total);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&wire_u32(sections.len(), "section").to_le_bytes());
    for (id, payload) in &sections {
        buf.extend_from_slice(&section_header(*id, payload));
        buf.extend_from_slice(payload);
    }
    buf
}

// ---------------------------------------------------------------------------
// Decoding.

struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Consumes the next `n` bytes.
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, rest) = self.buf.split_at_checked(n).ok_or(DecodeError::Truncated)?;
        self.buf = rest;
        Ok(head)
    }

    /// Consumes the next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(DecodeError::Truncated)?;
        self.buf = rest;
        Ok(*head)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// A `u64` count that must fit the host's `usize`.
    fn count(&mut self) -> Result<usize, DecodeError> {
        usize::try_from(self.u64()?).map_err(|_| DecodeError::Truncated)
    }

    fn string(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.bytes(len)?;
        Ok(std::str::from_utf8(bytes)
            .map_err(|_| DecodeError::BadUtf8)?
            .to_string())
    }

    fn value(&mut self) -> Result<Value, DecodeError> {
        match self.array()? {
            [0] => Ok(Value::str(self.string()?)),
            [1] => Ok(Value::Int(i64::from_le_bytes(self.array()?))),
            [2] => Ok(Value::Float(f64::from_le_bytes(self.array()?))),
            _ => Err(DecodeError::Truncated),
        }
    }
}

fn decode_strings(r: &mut Reader<'_>) -> Result<Vec<String>, DecodeError> {
    let n_strings = r.u32()? as usize;
    // Guard against absurd preallocation from corrupt counts: each
    // string costs at least its 4-byte length prefix.
    if n_strings > r.buf.len() / 4 + 1 {
        return Err(DecodeError::Truncated);
    }
    let mut strings = Vec::with_capacity(n_strings);
    for _ in 0..n_strings {
        strings.push(r.string()?);
    }
    Ok(strings)
}

fn decode_stats(
    r: &mut Reader<'_>,
    n_strings: usize,
    n_nodes: usize,
    n_edges: usize,
) -> Result<Cardinalities, DecodeError> {
    let nodes = r.count()?;
    let edges = r.count()?;
    // Statistics describing a different graph than the one in the
    // CSR section are corruption the checksum cannot see
    // (e.g. a stats section spliced in from another snapshot).
    if nodes != n_nodes || edges != n_edges {
        return Err(DecodeError::BadReference);
    }
    let mut c = Cardinalities {
        nodes,
        edges,
        ..Cardinalities::default()
    };
    let check = |l: u32| -> Result<LabelId, DecodeError> {
        if (l as usize) < n_strings {
            Ok(LabelId(l))
        } else {
            Err(DecodeError::BadReference)
        }
    };
    let n_edge_labels = r.u32()? as usize;
    if n_edge_labels > r.buf.len() / 28 + 1 {
        return Err(DecodeError::Truncated);
    }
    for _ in 0..n_edge_labels {
        let l = check(r.u32()?)?;
        let card = LabelCard {
            edges: r.count()?,
            distinct_src: r.count()?,
            distinct_dst: r.count()?,
        };
        c.edge_labels.insert(l, card);
    }
    for map in [&mut c.node_labels, &mut c.node_types] {
        let n = r.u32()? as usize;
        if n > r.buf.len() / 12 + 1 {
            return Err(DecodeError::Truncated);
        }
        for _ in 0..n {
            let l = check(r.u32()?)?;
            map.insert(l, r.count()?);
        }
    }
    Ok(c)
}

/// One checksum-verified CSG2 section, borrowed from the input buffer.
#[derive(Debug, Clone, Copy)]
pub struct RawSection<'a> {
    /// The section id (see the `SECTION_*` constants).
    pub id: u32,
    /// The section payload (checksum already verified).
    pub payload: &'a [u8],
}

/// Walks the CSG2 section table, verifying every checksum. Errors on
/// anything other than a well-formed CSG2 buffer.
pub fn read_sections(bytes: &[u8]) -> Result<Vec<RawSection<'_>>, DecodeError> {
    let mut r = Reader { buf: bytes };
    if r.array()? != *MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let n_sections = r.u32()? as usize;
    // Each section costs at least its 16-byte header.
    if n_sections > r.buf.len() / 16 + 1 {
        return Err(DecodeError::Truncated);
    }
    let mut sections = Vec::with_capacity(n_sections);
    for _ in 0..n_sections {
        let id = r.u32()?;
        let len = r.u64()?;
        let stored_crc = r.u32()?;
        let len = usize::try_from(len).map_err(|_| DecodeError::Truncated)?;
        let payload = r.bytes(len)?;
        if crc32(payload) != stored_crc {
            return Err(DecodeError::BadChecksum { section: id });
        }
        sections.push(RawSection { id, payload });
    }
    Ok(sections)
}

/// The payload of the first section with `id`, or
/// [`DecodeError::MissingSection`].
pub(crate) fn section<'a>(sections: &[RawSection<'a>], id: u32) -> Result<&'a [u8], DecodeError> {
    sections
        .iter()
        .find(|s| s.id == id)
        .map(|s| s.payload)
        .ok_or(DecodeError::MissingSection { section: id })
}

// ---------------------------------------------------------------------------
// CSR section decoding (owned and zero-copy mapped).

/// The header counts of a CSR section payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CsrHeader {
    /// Declared layout version (see [`CSR_LAYOUT_VERSION`]).
    pub version: u32,
    /// Number of nodes.
    pub nodes: u32,
    /// Number of edges.
    pub edges: u32,
    /// Total node-type entries across all nodes.
    pub type_entries: u32,
    /// Size of the label universe (= interned strings).
    pub labels: u32,
}

/// Reads a CSR section's 32-byte header without touching the arrays.
/// Errors on truncation or an unknown layout version.
pub fn peek_csr_header(payload: &[u8]) -> Result<CsrHeader, DecodeError> {
    if payload.len() < 32 {
        return Err(DecodeError::Truncated);
    }
    #[expect(
        clippy::unwrap_used,
        reason = "the length guard above makes every 4-byte window of the 32-byte header in-bounds, so try_into cannot fail"
    )]
    let word = |i: usize| u32::from_le_bytes(payload[4 * i..4 * i + 4].try_into().unwrap());
    let h = CsrHeader {
        version: word(0),
        nodes: word(1),
        edges: word(2),
        type_entries: word(3),
        labels: word(4),
    };
    if h.version != CSR_LAYOUT_VERSION {
        return Err(DecodeError::UnsupportedLayout { version: h.version });
    }
    Ok(h)
}

/// The byte ranges (relative to the CSR payload) of the fourteen
/// arrays, in serialisation order. Fails unless the payload length is
/// exactly what the header counts demand.
fn csr_array_ranges(
    payload: &[u8],
    h: &CsrHeader,
) -> Result<[std::ops::Range<usize>; 14], DecodeError> {
    let (n, m, t, l) = (
        h.nodes as u64,
        h.edges as u64,
        h.type_entries as u64,
        h.labels as u64,
    );
    let lens: [u64; 14] = [
        n,     // node_label
        n + 1, // type_offsets
        t,     // type_ids
        3 * m, // edge_ndl
        n + 1, // adj_offsets
        4 * m, // adj_pairs
        l + 1, // elab_offsets
        m,     // elab_edges
        m,     // fwd_edges
        m,     // rev_edges
        l + 1, // nlab_offsets
        n,     // nlab_nodes
        l + 1, // ntype_offsets
        t,     // ntype_nodes
    ];
    let mut ranges = std::array::from_fn(|_| 0..0);
    let mut at = 32u64;
    for (i, len) in lens.iter().enumerate() {
        let end = at
            .checked_add(len.checked_mul(4).ok_or(DecodeError::Truncated)?)
            .ok_or(DecodeError::Truncated)?;
        let (s, e) = (
            usize::try_from(at).map_err(|_| DecodeError::Truncated)?,
            usize::try_from(end).map_err(|_| DecodeError::Truncated)?,
        );
        ranges[i] = s..e;
        at = end;
    }
    if at != payload.len() as u64 {
        return Err(DecodeError::Truncated);
    }
    Ok(ranges)
}

/// Rebuilds an [`Interner`] whose ids equal the wire string ids exactly.
/// Everything keyed by id (the CSR columns, the statistics sidecar,
/// byte-for-byte re-encoding) depends on this; a table whose entries
/// don't round-trip to their own index (duplicate strings, or a first
/// entry that is not ε) cannot have come from our encoder and is
/// rejected.
fn build_interner(strings: &[String]) -> Result<Interner, DecodeError> {
    let mut interner = Interner::new();
    for (i, s) in strings.iter().enumerate() {
        if interner.intern(s) != LabelId::new(i) {
            return Err(DecodeError::BadReference);
        }
    }
    Ok(interner)
}

fn decode_prop_table(
    r: &mut Reader<'_>,
    max_id: u32,
    n_strings: usize,
) -> Result<PropTable, DecodeError> {
    let n_entries = r.u32()? as usize;
    if n_entries > r.buf.len() / 8 + 1 {
        return Err(DecodeError::Truncated);
    }
    let mut table = Vec::with_capacity(n_entries);
    let mut last_id: Option<u32> = None;
    for _ in 0..n_entries {
        let id = r.u32()?;
        // Ids must ascend strictly (the lookup binary-searches) and
        // stay in range.
        if id >= max_id || last_id.is_some_and(|p| p >= id) {
            return Err(DecodeError::BadReference);
        }
        last_id = Some(id);
        let n_props = r.u32()? as usize;
        if n_props == 0 || n_props > r.buf.len() / 5 + 1 {
            return Err(DecodeError::Truncated);
        }
        let mut props = Vec::with_capacity(n_props);
        let mut last_key: Option<u32> = None;
        for _ in 0..n_props {
            let k = r.u32()?;
            if k as usize >= n_strings || last_key.is_some_and(|p| p >= k) {
                return Err(DecodeError::BadReference);
            }
            last_key = Some(k);
            props.push((LabelId(k), r.value()?));
        }
        table.push((id, props.into_boxed_slice()));
    }
    Ok(table.into_boxed_slice())
}

/// Bounds- and monotonicity-checks every CSR column so graph accessors
/// can index without panicking on any decodable file — the checksum
/// guards against corruption, not against crafted input.
fn validate_csr_parts(p: &GraphParts, h: &CsrHeader) -> Result<(), DecodeError> {
    let (n, m, t, l) = (h.nodes, h.edges, h.type_entries, h.labels);
    if p.interner.len() != l as usize || m >= 1 << 31 {
        return Err(DecodeError::BadReference);
    }
    let offsets_ok = |s: &Storage, last: u32| {
        let s = s.as_slice();
        s.first() == Some(&0) && s.windows(2).all(|w| w[0] <= w[1]) && s.last() == Some(&last)
    };
    let within = |s: &Storage, bound: u32| s.as_slice().iter().all(|&v| v < bound);
    let ok = offsets_ok(&p.type_offsets, t)
        && offsets_ok(&p.adj_offsets, 2 * m)
        && offsets_ok(&p.elab_offsets, m)
        && offsets_ok(&p.nlab_offsets, n)
        && offsets_ok(&p.ntype_offsets, t)
        && within(&p.node_label, l.max(1))
        && (t == 0 || within(&p.type_ids, l))
        && p.edge_ndl
            .as_slice()
            .chunks_exact(3)
            .all(|e| e[0] < n && e[1] < n && e[2] < l)
        && p.adj_pairs
            .as_slice()
            .chunks_exact(2)
            .all(|a| a[0] & 0x7FFF_FFFF < m && a[1] < n)
        && within(&p.elab_edges, m.max(1))
        && within(&p.fwd_edges, m.max(1))
        && within(&p.rev_edges, m.max(1))
        && within(&p.nlab_nodes, n.max(1))
        && within(&p.ntype_nodes, n.max(1));
    if ok {
        Ok(())
    } else {
        Err(DecodeError::BadReference)
    }
}

/// Assembles a graph from the checksum-verified `sections`, whose CSR
/// section payload is `payload`. `storage_for` maps an array's byte
/// range within that payload to its backing storage — an owned copy
/// for byte-slice decoding, a mapped window for zero-copy loads.
fn decode_csr_graph(
    sections: &[RawSection<'_>],
    payload: &[u8],
    mut storage_for: impl FnMut(std::ops::Range<usize>) -> Storage,
) -> Result<Graph, DecodeError> {
    let header = peek_csr_header(payload)?;
    let ranges = csr_array_ranges(payload, &header)?;

    let mut r = Reader {
        buf: section(sections, SECTION_INTERNER)?,
    };
    let strings = decode_strings(&mut r)?;
    let interner = build_interner(&strings)?;

    let (node_props, edge_props) = match sections.iter().find(|s| s.id == SECTION_PROPS) {
        Some(s) => {
            let mut r = Reader { buf: s.payload };
            let nodes = decode_prop_table(&mut r, header.nodes, strings.len())?;
            let edges = decode_prop_table(&mut r, header.edges, strings.len())?;
            if !r.buf.is_empty() {
                return Err(DecodeError::Truncated);
            }
            (nodes, edges)
        }
        None => (Box::from([]), Box::from([])),
    };

    let mut next = ranges.into_iter().map(&mut storage_for);
    #[expect(
        clippy::expect_used,
        reason = "`csr_array_ranges` returns exactly the fourteen ranges the fourteen take() calls below consume"
    )]
    let mut take = || next.next().expect("fourteen CSR arrays");
    let parts = GraphParts {
        interner,
        n: header.nodes as usize,
        m: header.edges as usize,
        node_label: take(),
        type_offsets: take(),
        type_ids: take(),
        edge_ndl: take(),
        adj_offsets: take(),
        adj_pairs: take(),
        elab_offsets: take(),
        elab_edges: take(),
        fwd_edges: take(),
        rev_edges: take(),
        nlab_offsets: take(),
        nlab_nodes: take(),
        ntype_offsets: take(),
        ntype_nodes: take(),
        node_props,
        edge_props,
    };
    validate_csr_parts(&parts, &header)?;

    let stats = match sections.iter().find(|s| s.id == SECTION_STATS) {
        Some(s) => {
            let mut r = Reader { buf: s.payload };
            Some(decode_stats(
                &mut r,
                strings.len(),
                header.nodes as usize,
                header.edges as usize,
            )?)
        }
        None => None,
    };

    let g = parts.into_graph();
    if let Some(c) = stats {
        g.warm_cardinalities(c);
    }
    Ok(g)
}

/// Copies a little-endian byte range into an owned `u32` column.
fn owned_column(payload: &[u8], range: std::ops::Range<usize>) -> Storage {
    #[expect(
        clippy::unwrap_used,
        reason = "chunks_exact(4) yields only 4-byte slices, so the array conversion cannot fail"
    )]
    let words: Vec<u32> = payload[range]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    Storage::from_vec(words)
}

/// Decodes a CSG2 buffer that is backed by a live memory mapping,
/// backing the CSR columns by the mapping itself (zero-copy). A column
/// whose offset is not 4-byte aligned within the mapping falls back to
/// an owned copy. Only little-endian hosts can reinterpret the file
/// bytes in place, and only unix hosts map files.
#[cfg(all(unix, target_endian = "little"))]
pub(crate) fn decode_graph_mapped(map: &Arc<MmapFile>) -> Result<Graph, DecodeError> {
    let bytes = map.bytes();
    let sections = read_sections(bytes)?;
    let payload = section(&sections, SECTION_CSR_GRAPH)?;
    let payload_offset = payload.as_ptr() as usize - bytes.as_ptr() as usize;
    decode_csr_graph(&sections, payload, |range| {
        Storage::from_mapping(map, payload_offset + range.start, range.len() / 4)
            .unwrap_or_else(|| owned_column(payload, range))
    })
}

/// Decodes a snapshot produced by [`encode_graph`] into owned columns.
/// A statistics section, when present, seeds the graph's cached
/// [`Cardinalities`] so [`Graph::cardinalities`](crate::Graph::cardinalities)
/// returns without a stats pass.
pub fn decode_graph(bytes: &[u8]) -> Result<Graph, DecodeError> {
    let sections = read_sections(bytes)?;
    let payload = section(&sections, SECTION_CSR_GRAPH)?;
    decode_csr_graph(&sections, payload, |range| owned_column(payload, range))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::figure1::figure1;
    use crate::generate::{scale_free, ScaleFreeParams};

    /// Figure 1 with a mutation overlay: one node and one edge inserted,
    /// one edge removed (13 nodes, 19 edges).
    pub(crate) fn mutated_figure1() -> Graph {
        let mut g = figure1();
        let alice = g.node_by_label("Alice").unwrap();
        let zoe = g.insert_node("Zoe", &["person"]);
        g.insert_edge(alice, "mentors", zoe);
        let l = g.label_id("citizenOf").unwrap();
        let victim = g.edges_with_label(l)[0];
        g.remove_edge(victim);
        assert!(g.has_delta());
        g
    }

    #[test]
    fn mutated_graph_snapshots_compacted() {
        let g = mutated_figure1();
        let bytes = encode_graph(&g);
        // The caller's graph keeps its overlay; the snapshot holds the
        // dense equivalent.
        assert!(g.has_delta());
        let loaded = decode_graph(&bytes).unwrap();
        assert!(!loaded.has_delta());
        assert_eq!(loaded.node_count(), g.node_count());
        assert_eq!(loaded.edge_count(), g.edge_count());
        let live: Vec<String> = g.edge_ids().map(|e| g.describe_edge(e)).collect();
        let round: Vec<String> = loaded.edge_ids().map(|e| loaded.describe_edge(e)).collect();
        assert_eq!(live, round, "live edges round-trip in enumeration order");
        // The stats sidecar carried the incrementally maintained
        // cardinalities.
        assert_eq!(
            loaded.cardinalities_if_computed().unwrap(),
            &crate::stats::Cardinalities::of(&loaded)
        );
    }

    #[test]
    fn wire_width_boundaries_fit() {
        assert_eq!(wire_u32(u32::MAX as usize, "test"), u32::MAX);
        assert_eq!(wire_u32(0, "test"), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds the CSG u32 wire limit")]
    fn wire_u32_overflow_panics() {
        wire_u32(u32::MAX as usize + 1, "test");
    }

    fn assert_same_graph(g: &Graph, g2: &Graph) {
        assert_eq!(g2.node_count(), g.node_count());
        assert_eq!(g2.edge_count(), g.edge_count());
        for n in g.node_ids() {
            assert_eq!(g2.node_label(n), g.node_label(n));
            assert_eq!(
                g2.node_types(n).collect::<Vec<_>>(),
                g.node_types(n).collect::<Vec<_>>()
            );
        }
        for e in g.edge_ids() {
            assert_eq!(g2.describe_edge(e), g.describe_edge(e));
        }
    }

    #[test]
    fn roundtrip_figure1() {
        let g = figure1();
        let bytes = encode_graph(&g);
        let g2 = decode_graph(&bytes).unwrap();
        assert_same_graph(&g, &g2);
    }

    #[test]
    fn roundtrip_with_properties() {
        let mut b = GraphBuilder::new();
        let a = b.add_typed_node("a", &["t"]);
        let c = b.add_node("c");
        let e = b.add_edge(a, "r", c);
        b.set_node_prop(a, "age", 42i64);
        b.set_node_prop(a, "name", "alpha");
        b.set_edge_prop(e, "w", 2.5f64);
        let g = b.freeze();
        let g2 = decode_graph(&encode_graph(&g)).unwrap();
        assert_eq!(g2.node_prop(a, "age"), Some(&Value::Int(42)));
        assert_eq!(g2.node_prop(a, "name"), Some(&Value::str("alpha")));
        assert_eq!(g2.edge_prop(e, "w"), Some(&Value::Float(2.5)));
    }

    // Generates a 300-node scale-free graph — fine natively, far too
    // slow under the Miri interpreter.
    #[cfg(not(miri))]
    #[test]
    fn roundtrip_generated_graph() {
        let g = scale_free(&ScaleFreeParams {
            nodes: 300,
            edges_per_node: 3,
            labels: 8,
            types: 4,
            seed: 3,
        });
        let g2 = decode_graph(&encode_graph(&g)).unwrap();
        assert_eq!(g2.edge_count(), g.edge_count());
        let l = g.label_id("rel0").unwrap();
        let l2 = g2.label_id("rel0").unwrap();
        assert_eq!(g.edges_with_label(l).len(), g2.edges_with_label(l2).len());
    }

    #[test]
    fn stats_sidecar_loads_warm_and_equal() {
        let g = figure1();
        let computed = g.cardinalities().clone(); // force + copy
        let g2 = decode_graph(&encode_graph(&g)).unwrap();
        let warm = g2
            .cardinalities_if_computed()
            .expect("stats section must seed the OnceLock before first use");
        assert_eq!(*warm, computed);
    }

    #[test]
    fn stats_sidecar_is_optional() {
        let g = figure1();
        let sections = encode_sections(&g);
        let bytes = reframe(sections.iter().filter(|(id, _)| *id != SECTION_STATS));
        let g2 = decode_graph(&bytes).unwrap();
        assert!(g2.cardinalities_if_computed().is_none());
        // Cold path still works.
        assert_eq!(g2.cardinalities().edges, g.edge_count());
    }

    #[test]
    fn decode_errors() {
        assert_eq!(decode_graph(b"nope").unwrap_err(), DecodeError::BadMagic);
        assert_eq!(decode_graph(b"CS").unwrap_err(), DecodeError::Truncated);
        let g = figure1();
        let bytes = encode_graph(&g);
        let truncated = &bytes[..bytes.len() / 2];
        assert!(decode_graph(truncated).is_err());
    }

    #[test]
    fn bit_flip_is_checksum_error() {
        let g = figure1();
        let mut bytes = encode_graph(&g).to_vec();
        // Flip a byte well inside the first section's payload.
        let target = bytes.len() / 2;
        bytes[target] ^= 0xA5;
        let err = decode_graph(&bytes).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::BadChecksum { .. } | DecodeError::Truncated
            ),
            "bit flip must be caught by framing, got {err:?}"
        );
    }

    /// Frames `sections` into a CSG2 file the way the encoder does.
    pub(crate) fn reframe<'a>(sections: impl IntoIterator<Item = &'a (u32, Vec<u8>)>) -> Vec<u8> {
        let sections: Vec<_> = sections.into_iter().collect();
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CSG2");
        buf.extend_from_slice(&u32::try_from(sections.len()).unwrap().to_le_bytes());
        for (id, payload) in sections {
            buf.extend_from_slice(&section_header(*id, payload));
            buf.extend_from_slice(payload);
        }
        buf
    }

    #[test]
    fn missing_required_section() {
        let g = figure1();
        let sections = encode_sections(&g);
        let buf = reframe(sections.iter().filter(|(id, _)| *id != SECTION_CSR_GRAPH));
        let missing = DecodeError::MissingSection {
            section: SECTION_CSR_GRAPH,
        };
        assert_eq!(decode_graph(&buf).unwrap_err(), missing);

        // The file-level loaders (mapped and owned) and `inspect` agree.
        let path =
            std::env::temp_dir().join(format!("cs-graph-binfmt-{}-no-csr.csg", std::process::id()));
        std::fs::write(&path, &buf).unwrap();
        let load = crate::snapshot::load_from(&path).map(|_| ());
        let inspect = crate::snapshot::inspect(&path).map(|_| ());
        std::fs::remove_file(&path).ok();
        for err in [load.unwrap_err(), inspect.unwrap_err()] {
            match err {
                crate::snapshot::SnapshotError::Decode { source, .. } => {
                    assert_eq!(source, missing)
                }
                other => panic!("expected a decode error, got {other}"),
            }
        }
    }

    #[test]
    fn csr_file_without_interner_is_rejected() {
        let g = figure1();
        let sections = encode_sections(&g);
        let buf = reframe(sections.iter().filter(|(id, _)| *id != SECTION_INTERNER));
        assert_eq!(
            decode_graph(&buf).unwrap_err(),
            DecodeError::MissingSection {
                section: SECTION_INTERNER
            }
        );
    }

    #[test]
    fn unknown_csr_layout_version_is_rejected() {
        let g = figure1();
        let mut sections = encode_sections(&g);
        let mut payload = sections[0].1.to_vec();
        assert_eq!(sections[0].0, SECTION_CSR_GRAPH);
        payload[0..4].copy_from_slice(&99u32.to_le_bytes());
        sections[0].1 = payload;
        let buf = reframe(sections.iter());
        assert_eq!(
            decode_graph(&buf).unwrap_err(),
            DecodeError::UnsupportedLayout { version: 99 }
        );
    }

    #[test]
    fn csr_payload_length_must_match_header() {
        let g = figure1();
        let mut sections = encode_sections(&g);
        let mut payload = sections[0].1.to_vec();
        payload.extend_from_slice(&[0u8; 4]); // one stray trailing word
        sections[0].1 = payload;
        let buf = reframe(sections.iter());
        assert_eq!(decode_graph(&buf).unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn unknown_sections_are_skipped() {
        let g = figure1();
        let mut sections = encode_sections(&g);
        sections.push((999, b"future data".to_vec()));
        let mut buf = Vec::new();
        buf.extend_from_slice(b"CSG2");
        buf.extend_from_slice(&u32::try_from(sections.len()).unwrap().to_le_bytes());
        for (id, payload) in &sections {
            buf.extend_from_slice(&section_header(*id, payload));
            buf.extend_from_slice(payload);
        }
        let g2 = decode_graph(&buf).unwrap();
        assert_eq!(g2.edge_count(), g.edge_count());
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = GraphBuilder::new().freeze();
        let g2 = decode_graph(&encode_graph(&g)).unwrap();
        assert_eq!(g2.node_count(), 0);
        assert_eq!(g2.edge_count(), 0);
    }

    #[test]
    fn encoding_is_deterministic() {
        // HashMap iteration must not leak into the bytes (snapshots are
        // meant to pin workloads byte-for-byte).
        let g = scale_free(&ScaleFreeParams {
            nodes: 120,
            edges_per_node: 3,
            labels: 9,
            types: 5,
            seed: 11,
        });
        let a = encode_graph(&g);
        let g2 = decode_graph(&a).unwrap();
        let b = encode_graph(&g2);
        assert_eq!(a, b);
    }

    #[test]
    fn crc32_known_vector() {
        // The IEEE CRC32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
