//! Prints Table 2 ([`chaos_bench::tables::table2`]). Run
//! `cargo run -p chaos-bench --bin table2 --release` for the paper-size
//! experiment, or add `--quick` for a scaled-down smoke run.

fn main() -> Result<(), chaos_lang::LangError> {
    chaos_bench::tables::table2(&chaos_bench::cli::Options::from_env())
}
