//! Graph sources: the one place a command-line source string becomes a
//! [`Graph`], shared by the `csq` and `csqd` binaries.

use crate::generate::{from_spec, SpecError};
use crate::{binfmt, figure1, ntriples, snapshot, Graph};

/// Builds a graph from a source string, trying in order: `--demo` (the
/// Figure 1 graph), a `gen:`-prefixed generator spec, a bare spec that
/// names a known generator family and no existing file, a `.csg`
/// snapshot, and finally a file read as a binary snapshot (by its magic
/// bytes) or a tab-separated triples file. Errors are one-line
/// messages naming the source.
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
    if source.ends_with(".csg") {
        return snapshot::load_from(source).map_err(|e| e.to_string());
    }
    let raw = std::fs::read(source).map_err(|e| format!("cannot read {source}: {e}"))?;
    if raw.starts_with(b"CSG1") || raw.starts_with(b"CSG2") {
        binfmt::decode_graph(&raw).map_err(|e| format!("{source}: {e}"))
    } else {
        let text = String::from_utf8(raw).map_err(|_| format!("{source} is not UTF-8"))?;
        ntriples::parse_triples(&text).map_err(|e| format!("bad triples in {source}: {e}"))
    }
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

        let mut path = std::env::temp_dir();
        path.push(format!("cs-graph-source-{}.csg", std::process::id()));
        snapshot::save_to(&demo, &path).unwrap();
        let g = load_graph(path.to_str().unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(g.edge_count(), demo.edge_count());
    }
}
