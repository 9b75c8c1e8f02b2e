//! Standard output for every command.
//!
//! `println!` panics when the reader of stdout has gone away: `dcover
//! solve x.mwhvc --json | head -c 20` closes the pipe, the next write fails
//! with `BrokenPipe`, and the panic exits 101, outside the CLI's 0/1/2
//! exit-code contract. Commands write through [`Stdout`] instead. Once the
//! pipe is closed it drops further output quietly, so a command ends with
//! its own exit code (a completed solve exits 0), and `serve` stops
//! reading when [`Stdout::closed`] says nobody reads its results.

use std::fmt::Display;
use std::io::{self, Write as _};

use crate::Failure;

/// Stdout that ends quietly when its reader goes away.
#[derive(Debug, Default)]
pub(crate) struct Stdout {
    closed: bool,
}

impl Stdout {
    /// Writes `text` and a newline.
    ///
    /// # Errors
    ///
    /// A runtime failure for any write error but a closed pipe.
    pub(crate) fn line(&mut self, text: impl Display) -> Result<(), Failure> {
        self.print(format_args!("{text}\n"))
    }

    /// Writes `text` as it is.
    ///
    /// # Errors
    ///
    /// A runtime failure for any write error but a closed pipe.
    pub(crate) fn print(&mut self, text: impl Display) -> Result<(), Failure> {
        if self.closed {
            return Ok(());
        }
        let mut out = io::stdout().lock();
        match write!(out, "{text}").and_then(|()| out.flush()) {
            Err(e) if e.kind() == io::ErrorKind::BrokenPipe => {
                self.closed = true;
                Ok(())
            }
            written => written.map_err(|e| Failure::Runtime(format!("writing stdout: {e}"))),
        }
    }

    /// Whether the reader has gone away.
    pub(crate) fn closed(&self) -> bool {
        self.closed
    }
}
