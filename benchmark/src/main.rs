fn main() -> std::process::ExitCode {
    benchmark::cli()
}
