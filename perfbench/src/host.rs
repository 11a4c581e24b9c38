//! Host fingerprint recorded with every result set.

use kg_serve::json::Json;
use std::path::Path;
use std::process::Command;

/// Worker threads the load generators may use: the host's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The highest-numbered CPU this process may run on, from
/// `Cpus_allowed_list` in `/proc/self/status` (`None` without `/proc`).
pub fn last_allowed_cpu() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .rsplit([',', '-'])
        .next()
        .and_then(|cpu| cpu.trim().parse().ok())
}

/// The fingerprint as one JSON object: `nproc`, CPU model, kernel, rustc
/// version, the filesystem type under `scratch_dir`, and the source
/// revision (`git` when the checkout is a repository, else a digest of
/// the Rust sources under `crates/` and `perfbench/src/`).
pub fn fingerprint(scratch_dir: &Path) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into());
    Json::Obj(vec![
        ("nproc".into(), Json::Num(nproc() as f64)),
        ("cpu".into(), Json::Str(cpu)),
        ("kernel".into(), Json::Str(kernel)),
        (
            "rustc".into(),
            Json::Str(command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("scratch_fs".into(), Json::Str(fs_type(scratch_dir))),
        ("revision".into(), Json::Str(revision())),
    ])
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Filesystem type of the longest mount point containing `dir`.
fn fs_type(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount = fields.next()?;
            let kind = fields.next()?;
            dir.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

fn revision() -> String {
    // Ask git only at a repository root: in an exported checkout it would
    // otherwise report whatever repository encloses the directory.
    if Path::new(".git").exists() {
        if let Some(head) = command_line("git", &["rev-parse", "HEAD"]) {
            return format!("git:{head}");
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench/src"] {
        collect_rust_files(Path::new(root), &mut files);
    }
    files.sort();
    // FNV-1a over paths and contents: stable across hosts and runs.
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let bytes = std::fs::read(path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("src-fnv:{hash:016x} ({} files)", files.len())
}

fn collect_rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect_rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
