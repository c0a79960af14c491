//! The `commalloc` command-line driver.
//!
//! All behaviour lives in the library (`commalloc_cli`) so it can be tested;
//! this binary only wires arguments to [`commalloc_cli::parse_command`] and
//! prints the result.

use commalloc_cli::{parse_command, ParseError};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_command(&args) {
        Ok(command) => command,
        Err(err) => {
            eprintln!("error: {err}");
            if !matches!(err, ParseError::MissingCommand) {
                eprintln!("run `commalloc help` for usage");
            } else {
                eprintln!("{}", commalloc_cli::args::usage());
            }
            std::process::exit(2);
        }
    };
    match command.run() {
        Ok(output) => print!("{output}"),
        Err(err) => {
            eprintln!("error: {err}");
            std::process::exit(1);
        }
    }
}
