//! Reproduction harness for every table and figure of the paper.
//!
//! Each `tableN`/`figN` module exposes a `run()` returning structured rows
//! and a `render()` producing the human-readable table, so the same code
//! backs the CLI binaries (`cargo run -p optimus-experiments --bin table1`),
//! the `perfbench` benchmark, and the integration tests. `run_all`
//! regenerates everything and writes CSV files under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod scaling;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod tco;

mod util;

pub use util::{markdown_table, write_csv};

/// Runs every experiment and writes its CSV into `dir`.
///
/// # Errors
///
/// Returns an I/O error if `dir` is not writable.
pub fn run_all(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    write_csv(dir.join("table1.csv"), &table1::csv())?;
    write_csv(dir.join("table2.csv"), &table2::csv())?;
    write_csv(dir.join("table4.csv"), &table4::csv())?;
    write_csv(dir.join("fig3.csv"), &fig3::csv())?;
    write_csv(dir.join("fig4.csv"), &fig4::csv())?;
    write_csv(dir.join("fig5.csv"), &fig5::csv())?;
    write_csv(dir.join("fig6.csv"), &fig6::csv())?;
    write_csv(dir.join("fig7.csv"), &fig7::csv())?;
    write_csv(dir.join("fig8.csv"), &fig8::csv())?;
    write_csv(dir.join("fig9.csv"), &fig9::csv())?;
    write_csv(dir.join("ablations.csv"), &ablations::csv())?;
    write_csv(dir.join("tco.csv"), &tco::csv())?;
    write_csv(dir.join("scaling.csv"), &scaling::csv())?;
    Ok(())
}
