//! Shared helpers for the table/figure reproduction binaries.
//!
//! Beyond the formatting/table utilities below, this crate hosts the
//! *experiment farm* (see `docs/ARCHITECTURE.md`):
//!
//! * [`scenario`] — declarative [`ScenarioSpec`](scenario::ScenarioSpec)s
//!   that construct and run fresh simulations on demand;
//! * [`farm`] — the fixed worker pool executing sweep points in parallel
//!   with `--jobs`-independent, bit-identical aggregate results;
//! * [`cli`] — the shared `--frames/--jobs/--seed/--json/--quiet` argv
//!   parsing used by every bench binary, plus the [`cli::SweepApp`]
//!   driver the sweep binaries are built on;
//! * [`stats`] / [`json`] / [`results`] — typed aggregates and the
//!   hand-rolled, deterministic JSON results writer
//!   (`bench-results/<bin>.json`, schema `rtos-sld-bench/1`);
//! * [`trace`] — the Chrome-trace-event / Perfetto JSON exporter behind
//!   every binary's `--trace-out` flag;
//! * [`repro`] — the chaos minimal-repro artifact, read and written by
//!   the `chaos` bin and validated by `trace_lint`.

pub mod analyze;
pub mod cli;
pub mod farm;
pub mod json;
pub mod repro;
pub mod results;
pub mod scenario;
pub mod stats;
pub mod trace;

use std::path::{Path, PathBuf};
use std::time::Duration;

/// Formats a duration as milliseconds with two decimals.
#[must_use]
pub fn fmt_ms(d: Duration) -> String {
    format!("{:.2} ms", d.as_secs_f64() * 1e3)
}

/// Formats a host duration adaptively (µs/ms/s).
#[must_use]
pub fn fmt_host(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.1} ms", s * 1e3)
    } else {
        format!("{:.0} us", s * 1e6)
    }
}

/// Counts non-empty, non-comment-only lines of all `.rs` files under `dir`.
#[must_use]
pub fn count_rust_loc(dir: &Path) -> usize {
    let mut total = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|x| x == "rs") {
                if let Ok(text) = std::fs::read_to_string(&p) {
                    total += text
                        .lines()
                        .map(str::trim)
                        .filter(|l| !l.is_empty() && !l.starts_with("//"))
                        .count();
                }
            }
        }
    }
    total
}

/// Path to a sibling crate's `src` directory (best effort; returns an
/// empty count if the layout changed).
#[must_use]
pub fn crate_src(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(|crates| crates.join(name).join("src"))
        .unwrap_or_default()
}

/// Lines of code attributable to each of the three vocoder models
/// (shared substrate counted once per model, like the paper's cumulative
/// SpecC line counts).
#[must_use]
pub fn model_loc() -> (usize, usize, usize) {
    let sim = count_rust_loc(&crate_src("sim"));
    let core = count_rust_loc(&crate_src("core"));
    let voc = count_rust_loc(&crate_src("vocoder"));
    let iss = count_rust_loc(&crate_src("iss"));
    let unsched = sim + voc;
    let arch = sim + voc + core;
    let impl_ = sim + voc + core + iss;
    (unsched, arch, impl_)
}

/// Simple fixed-width table printer.
#[derive(Debug, Default)]
pub struct TextTable {
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a row.
    pub fn row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, cells: I) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders with padded columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.rows.iter().map(Vec::len).max().unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.chars().count());
            }
        }
        let mut out = String::new();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                let pad = widths[i] - c.chars().count();
                out.push_str(c);
                out.extend(std::iter::repeat_n(' ', pad + 2));
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_padded() {
        let mut t = TextTable::new();
        t.row(["a", "bbbb"]).row(["cc", "d"]);
        let s = t.render();
        assert_eq!(s, "a   bbbb\ncc  d\n");
    }

    #[test]
    fn format_helpers() {
        assert_eq!(fmt_ms(Duration::from_micros(12_500)), "12.50 ms");
        assert_eq!(fmt_host(Duration::from_secs(2)), "2.00 s");
        assert_eq!(fmt_host(Duration::from_micros(250)), "250 us");
    }

    #[test]
    fn loc_counts_are_plausible() {
        let (unsched, arch, impl_) = model_loc();
        assert!(unsched > 500, "unsched {unsched}");
        assert!(arch > unsched);
        assert!(impl_ > arch);
    }
}
