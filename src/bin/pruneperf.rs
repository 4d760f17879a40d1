//! The `pruneperf` command-line tool. See `pruneperf help`.

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match pruneperf::cli::run_cli(&args) {
        Ok(out) => {
            let mut stdout = std::io::stdout().lock();
            match stdout
                .write_all(out.as_bytes())
                .and_then(|()| stdout.flush())
            {
                // A reader that stops early (`| head`) is not a failure.
                Err(e) if e.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("cannot write stdout: {e}");
                    ExitCode::FAILURE
                }
                _ => ExitCode::SUCCESS,
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
