//! What is left of the verification pool: two types that `benchmark/`
//! still reads. Shares are verified inline, so no pool exists and
//! [`verify_pool`](crate::abc::AtomicBroadcast::verify_pool) is always
//! `None`. This module goes in the next change that may touch `benchmark/`.

/// Where a pool's jobs ran. No value is ever built.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs handed to the pool.
    pub submitted: u64,
    /// Jobs completed by a worker thread.
    pub ran_off_thread: u64,
}

/// An uninhabited pool: no value of this type exists.
#[derive(Debug)]
pub enum VerifyPool {}

impl VerifyPool {
    /// Unreachable, since no pool exists.
    pub fn stats(&self) -> PoolStats {
        match *self {}
    }
}
