//! Prints Table 4 ([`chaos_bench::tables::table4`]). Run
//! `cargo run -p chaos-bench --bin table4 --release` for the paper-size
//! experiment, or add `--quick` for a scaled-down smoke run.

fn main() -> Result<(), chaos_lang::LangError> {
    chaos_bench::tables::table4(&chaos_bench::cli::Options::from_env())
}
