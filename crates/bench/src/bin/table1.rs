//! Prints Table 1 ([`chaos_bench::tables::table1`]). Run
//! `cargo run -p chaos-bench --bin table1 --release` for the paper-size
//! experiment, or add `--quick` for a scaled-down smoke run.

fn main() -> Result<(), chaos_lang::LangError> {
    chaos_bench::tables::table1(&chaos_bench::cli::Options::from_env())
}
