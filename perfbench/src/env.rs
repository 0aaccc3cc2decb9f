//! The run environment recorded with every result, so both sides of a
//! comparison can be checked to use the same dispatch.

use crate::report::json_string;
use biodist_align::detect_backend;
use biodist_core::NetServerOptions;
use biodist_phylo::LikBackend;
use std::path::Path;

/// Environment variables that change which code path the program
/// takes. They are recorded, not refused: a run under an override is
/// comparable only with another run under the same override.
pub const OVERRIDES: &[&str] = &["BIODIST_NET_SHARDS", "BIODIST_LIK_BACKEND"];

/// The environment as a JSON object: source revision, cores, SIMD
/// backends, event-loop shard count and any dispatch overrides.
pub fn describe(root: &Path) -> String {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let overrides: Vec<String> = OVERRIDES
        .iter()
        .map(|k| {
            let v = std::env::var(k).map_or("null".to_string(), |v| json_string(&v));
            format!("{}: {v}", json_string(k))
        })
        .collect();
    format!(
        "{{\"git_revision\": {}, \"source_digest\": \"{:016x}\", \"nproc\": {cores}, \
         \"striped_backend\": \"{:?}\", \"lik_backend\": \"{:?}\", \"net_shards\": {}, \
         \"overrides\": {{{}}}}}",
        git_revision(root).map_or("null".to_string(), |r| json_string(&r)),
        source_digest(root),
        detect_backend(),
        LikBackend::select(),
        NetServerOptions::default().shards,
        overrides.join(", ")
    )
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git work tree (the usual case for a benchmark checkout).
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

/// FNV-1a over the path and bytes of every file under `crates/` plus
/// the workspace manifests, in sorted order: identifies the program
/// source when no git metadata is present.
fn source_digest(root: &Path) -> u64 {
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    collect_files(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for &b in rel
            .as_bytes()
            .iter()
            .chain(&std::fs::read(f).unwrap_or_default())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}
