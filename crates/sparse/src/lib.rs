//! Sparse and dense linear-algebra kernels used throughout the `asyncmg`
//! workspace.
//!
//! This crate is the lowest-level substrate of the asynchronous-multigrid
//! reproduction: everything the paper's C/OpenMP implementation obtained from
//! hypre's matrix layer is implemented here from scratch:
//!
//! * [`Coo`] — a coordinate-format builder used by the problem generators,
//! * [`Csr`] — compressed sparse row storage with serial and row-range
//!   (team-parallel) matrix-vector kernels,
//! * [`spgemm()`]/[`rap`] — sparse matrix-matrix products used for the Galerkin
//!   coarse-grid operators `A_{k+1} = Pᵀ A_k P` and the smoothed interpolants
//!   `P̄ = (I − ωD⁻¹A) P`,
//! * [`spgemm_parallel`]/[`rap_parallel`]/[`transpose_parallel`] — two-pass
//!   thread-parallel variants of the setup kernels, bit-identical to the
//!   serial ones ([`parallel`] module),
//! * [`DenseLu`] — a partial-pivoting LU factorisation for the coarsest-grid
//!   exact solve,
//! * [`AtomicF64Vec`] — a shared vector of `f64` values accessed with relaxed
//!   atomics, the data structure behind the racy `x`/`r` global vectors of the
//!   paper's Algorithm 5,
//! * [`vecops`] — ranged vector kernels (axpy, dot, norms) matching the
//!   OpenMP `parallel for` loops of the paper.

// Indexed loops over multiple parallel arrays are the house style for
// numerical kernels; the iterator forms clippy suggests obscure them.
#![allow(clippy::needless_range_loop)]

pub mod atomic;
pub mod bsr;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod fingerprint;
pub mod io;
pub mod kernel;
pub mod parallel;
pub mod simd;
pub mod spgemm;
pub mod stencil;
pub mod vecops;

pub use atomic::AtomicF64Vec;
pub use bsr::Bsr;
pub use coo::Coo;
pub use csr::{Csr, CsrError};
pub use dense::{DenseLu, DenseMatrix};
pub use fingerprint::{fingerprint_csr, Fnv};
pub use kernel::{Kernel, KernelSelect};
pub use parallel::{auto_setup_threads, rap_parallel, spgemm_parallel, transpose_parallel};
pub use spgemm::{add_scaled, rap, spgemm};
pub use stencil::StencilStats;
