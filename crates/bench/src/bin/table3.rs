//! Prints Table 3 ([`chaos_bench::tables::table3`]). Run
//! `cargo run -p chaos-bench --bin table3 --release` for the paper-size
//! experiment, or add `--quick` for a scaled-down smoke run.

fn main() -> Result<(), chaos_lang::LangError> {
    chaos_bench::tables::table3(&chaos_bench::cli::Options::from_env())
}
