//! The two project rules clippy cannot express, checked over the
//! library and binary sources (`crates/*/src` and `src/`; `vendor/`,
//! `perfbench/`, `tests/` and `examples/` are not read):
//!
//! * L003: every `Ordering::Relaxed` / `Ordering::SeqCst` carries an
//!   `// ORDERING:` justification.
//! * L005: `extern "C"` FFI appears only in `crates/graph/src/storage.rs`.
//!
//! A justification is a comment on the same line, or in the contiguous
//! comment block directly above; the block stops at a blank line or at
//! the end of the previous statement. The README's "Correctness
//! tooling" table says where the other rules are enforced.

use std::path::{Path, PathBuf};

const FFI_FILE: &str = "crates/graph/src/storage.rs";

/// Is line `i` justified by a comment containing `needle`?
fn justified(lines: &[&str], i: usize, needle: &str) -> bool {
    if lines[i]
        .split_once("//")
        .is_some_and(|(_, c)| c.contains(needle))
    {
        return true;
    }
    for line in lines[..i].iter().rev().map(|l| l.trim()) {
        if line.is_empty() {
            return false;
        }
        if line.starts_with("//") {
            if line.contains(needle) {
                return true;
            }
        } else if !line.starts_with("#[")
            && !line.starts_with("#!")
            && (line.ends_with(';') || line.ends_with('}'))
        {
            return false;
        }
    }
    false
}

/// The L003 and L005 violations in one file, as `path:line: rule: why`.
fn violations(path: &str, src: &str) -> Vec<String> {
    let lines: Vec<&str> = src.lines().collect();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let code = line.split("//").next().unwrap_or(line);
        let at = format!("{path}:{}", i + 1);
        if ["Ordering::Relaxed", "Ordering::SeqCst"]
            .iter()
            .any(|o| code.contains(o))
            && !justified(&lines, i, "ORDERING:")
        {
            out.push(format!(
                "{at}: L003: atomic ordering without an `// ORDERING:` justification"
            ));
        }
        if code.contains("extern \"C\"") && path != FFI_FILE {
            out.push(format!("{at}: L005: `extern \"C\"` FFI outside {FFI_FILE}"));
        }
    }
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for path in entries.map(|e| e.expect("readable directory entry").path()) {
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn workspace_follows_l003_and_l005() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for member in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        collect_rs(
            &member.expect("crate directory").path().join("src"),
            &mut files,
        );
    }
    collect_rs(&root.join("src"), &mut files);
    assert!(files.len() > 50, "walked only {} files", files.len());
    let mut found = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        found.extend(violations(&rel, &std::fs::read_to_string(file).unwrap()));
    }
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn unjustified_ordering_is_flagged() {
    let lib = "crates/core/src/x.rs";
    let bare = "let n = 1;\nflag.store(true, Ordering::Relaxed);\n";
    assert_eq!(
        violations(lib, bare),
        ["crates/core/src/x.rs:2: L003: atomic ordering without an `// ORDERING:` justification"]
    );
    // A justification does not reach past the end of the previous statement.
    let stale = "// ORDERING: for the line below only\nlet n = 1;\nflag.load(Ordering::SeqCst);\n";
    assert_eq!(violations(lib, stale).len(), 1);
    // Same line, or a comment block above (attributes may sit between).
    let same = "flag.load(Ordering::SeqCst); // ORDERING: one total order\n";
    let above = "// ORDERING: advisory flag,\n// polled only\n#[inline]\nlet f = flag.load(Ordering::Relaxed);\n";
    let prose = "/// Loads with `Ordering::Relaxed`.\n";
    for ok in [same, above, prose] {
        assert!(violations(lib, ok).is_empty(), "{ok}");
    }
}

#[test]
fn stray_ffi_is_flagged() {
    let ffi = "extern \"C\" {\n    fn getpid() -> i32;\n}\n";
    assert_eq!(
        violations("src/bin/csq.rs", ffi),
        ["src/bin/csq.rs:1: L005: `extern \"C\"` FFI outside crates/graph/src/storage.rs"]
    );
    assert!(violations(FFI_FILE, ffi).is_empty());
}
