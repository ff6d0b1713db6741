//! Library surface of `pod-cli`, so integration tests can drive the
//! subcommand logic (argument parsing, the `stats` renderer) without
//! spawning the binary.

pub mod args;
pub mod cmd_analyze;
pub mod cmd_compare;
pub mod cmd_doctor;
pub mod cmd_figures;
pub mod cmd_gen;
pub mod cmd_monitor;
pub mod cmd_profile;
pub mod cmd_replay;
pub mod cmd_serve;
pub mod cmd_stats;

/// Why a subcommand stopped early. A command turns every file error
/// into a [`Failed`](CliError::Failed) message naming its path, so the
/// only `io::Error` it passes up with `?` is its stdout's.
#[derive(Debug)]
pub enum CliError {
    /// The command failed; `main` prints it as one `error:` line.
    Failed(String),
    /// Writing to stdout failed.
    Stdout(std::io::Error),
}

/// What a subcommand's `run` returns.
pub type CliResult = Result<(), CliError>;

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failed(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> Self {
        CliError::Failed(msg.to_string())
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Stdout(e)
    }
}
