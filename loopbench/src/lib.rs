//! The repository benchmark's library: workload definitions, the traced
//! layer accounting and the correctness checks, shared by the
//! `loopbench` binary and the benchmark's own tests.

pub mod check;
pub mod host;
pub mod jobs;
pub mod layers;
pub mod serve;
pub mod workload;
