//! Entry point; everything lives in the library so tests can drive it.

fn main() -> std::process::ExitCode {
    rtr_benchmark::cli::main()
}
