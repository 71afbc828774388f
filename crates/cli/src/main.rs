//! `sling` — command-line interface to the SLING SimRank reproduction.
//!
//! Run `sling help` for the command list.

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        // Write without panicking on EPIPE so `sling ... | head` exits
        // quietly once the reader closes the pipe.
        Ok(report) => {
            use std::io::Write as _;
            let stdout = std::io::stdout();
            let _ = writeln!(stdout.lock(), "{report}");
        }
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}
