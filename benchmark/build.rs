//! Records the compiler and profile the benchmark binary was built with,
//! for the host fingerprint stamped into every result.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=IB_BENCH_RUSTC={version}");
    let profile = format!(
        "{} (opt-level {}, debug-assertions {})",
        std::env::var("PROFILE").unwrap_or_default(),
        std::env::var("OPT_LEVEL").unwrap_or_default(),
        std::env::var("CARGO_CFG_DEBUG_ASSERTIONS").is_ok(),
    );
    println!("cargo:rustc-env=IB_BENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
