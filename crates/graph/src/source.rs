//! Graph sources: the one place a command-line source string becomes a
//! [`Graph`], shared by the `csq` and `csqd` binaries.

use crate::generate::{from_spec, SpecError};
use crate::{figure1, ntriples, snapshot, Graph};
use std::io::Read;

/// Builds a graph from a source string, trying in order: `--demo` (the
/// Figure 1 graph), a `gen:`-prefixed generator spec, a bare spec that
/// names a known generator family and no existing file, and finally a
/// file: a CSG2 snapshot (named `*.csg`, or recognised by its magic
/// bytes) or else a tab-separated triples file. Every snapshot loads
/// through [`snapshot::load_from`], so it is memory-mapped wherever the
/// host allows. Errors are one-line messages naming the source.
pub fn load_graph(source: &str) -> Result<Graph, String> {
    if source == "--demo" {
        return Ok(figure1());
    }
    if let Some(spec) = source.strip_prefix("gen:") {
        return from_spec(spec).map_err(|e| e.to_string());
    }
    if !std::path::Path::new(source).exists() {
        // Convenience: a known generator family without the gen:
        // prefix. Anything the spec parser does not recognise as a
        // family falls through to the (clearer) file-read error; a
        // known family with bad arguments reports the spec error.
        match from_spec(source) {
            Ok(g) => return Ok(g),
            Err(SpecError::UnknownFamily(_)) => {}
            Err(e) => return Err(e.to_string()),
        }
    }
    let read_err = |e: std::io::Error| format!("cannot read {source}: {e}");
    if source.ends_with(".csg") || has_snapshot_magic(source).map_err(read_err)? {
        return snapshot::load_from(source).map_err(|e| e.to_string());
    }
    let raw = std::fs::read(source).map_err(read_err)?;
    let text = String::from_utf8(raw).map_err(|_| format!("{source} is not UTF-8"))?;
    ntriples::parse_triples(&text).map_err(|e| format!("bad triples in {source}: {e}"))
}

/// Whether the file at `path` starts with the CSG2 snapshot magic.
fn has_snapshot_magic(path: &str) -> std::io::Result<bool> {
    let mut magic = Vec::with_capacity(4);
    std::fs::File::open(path)?.take(4).read_to_end(&mut magic)?;
    Ok(magic == b"CSG2")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_order() {
        let demo = figure1();
        let g = load_graph("--demo").unwrap();
        assert_eq!(
            (g.node_count(), g.edge_count()),
            (demo.node_count(), demo.edge_count())
        );

        let spec = from_spec("chain:n=3").unwrap();
        for source in ["gen:chain:n=3", "chain:n=3"] {
            let g = load_graph(source).unwrap();
            assert_eq!(g.edge_count(), spec.edge_count(), "{source}");
        }
        // A known family with a bad key reports the spec error.
        let err = load_graph("chain:bogus=1").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");

        // An unknown bare word is no generator: it falls through to the
        // file-read error.
        let err = load_graph("no_such_family_or_file").unwrap_err();
        assert!(
            err.starts_with("cannot read no_such_family_or_file:"),
            "{err}"
        );

        // A snapshot loads (mapped where the host allows) whether it is
        // named `*.csg` or only carries the CSG2 magic.
        for name in ["csg", "bin"] {
            let mut path = std::env::temp_dir();
            path.push(format!("cs-graph-source-{}.{name}", std::process::id()));
            snapshot::save_to(&demo, &path).unwrap();
            let g = load_graph(path.to_str().unwrap()).unwrap();
            let _ = std::fs::remove_file(&path);
            assert_eq!(g.edge_count(), demo.edge_count(), "{name}");
            #[cfg(all(unix, target_endian = "little", not(miri)))]
            assert!(g.is_memory_mapped(), "a .{name} snapshot must load mapped");
        }
    }
}
