//! CLI entry point. `cargo run -p usp-lint` from the repo root lints the whole
//! tree; see `--help` for flags. Exit codes: 0 clean, 1 findings, 2 usage or
//! I/O error.

use usp_lint::{lint_workspace, rule_counts, Workspace};

const USAGE: &str = "\
usp-lint — the workspace's invariants as machine-checked rules (DESIGN §6)

USAGE:
    cargo run -p usp-lint [--] [ROOT]

ARGS:
    ROOT         workspace root to lint (default: current directory)

FLAGS:
    -h, --help   print this help
";

fn main() {
    std::process::exit(run());
}

fn run() -> i32 {
    let mut root: Option<std::path::PathBuf> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return 0;
            }
            "--" => {}
            other if other.starts_with('-') => {
                eprintln!("unknown flag `{other}`\n\n{USAGE}");
                return 2;
            }
            path => {
                if root.replace(path.into()).is_some() {
                    eprintln!("more than one ROOT argument\n\n{USAGE}");
                    return 2;
                }
            }
        }
    }
    let root = root.unwrap_or_else(|| std::path::PathBuf::from("."));
    if !root.join("Cargo.toml").is_file() {
        eprintln!(
            "error: {} does not look like a workspace root (no Cargo.toml)",
            root.display()
        );
        return 2;
    }

    let ws = match Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!(
                "error: failed to load workspace under {}: {e}",
                root.display()
            );
            return 2;
        }
    };
    let findings = lint_workspace(&ws);

    for f in &findings {
        println!("{f}");
    }
    if !findings.is_empty() {
        println!();
    }
    println!(
        "usp-lint: {} file(s), {} manifest(s)",
        ws.files.len(),
        ws.manifests.len()
    );
    for (rule, n) in rule_counts(&findings) {
        println!("  {rule:<32} {n}");
    }
    if findings.is_empty() {
        println!("usp-lint: clean");
    } else {
        println!("usp-lint: {} finding(s)", findings.len());
    }
    i32::from(!findings.is_empty())
}
