//! Fixture: the sim crate's free-function run loops (entry points).

pub fn run() {}

pub fn run_while() {}
