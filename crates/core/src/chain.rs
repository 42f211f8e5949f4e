//! The multigrid chain and the multiplicative V-cycle, each written once
//! over a team of threads.
//!
//! * [`Chain::correction`] — grid `k`'s additive correction: restrict the
//!   fine-grid residual to level `k`, apply the level-`k` correction (Eq. 1
//!   for BPX, Eq. 2 for Multadd, Algorithm 2 for AFACx) and prolongate it
//!   back to level 0.
//! * [`Chain::vcycle`] — the multiplicative V(s₁,s₂)-cycle of Algorithm 1
//!   over levels `top..`.
//!
//! Every step splits its rows over the team ([`TeamCtx::chunk`]) or hands
//! each rank its smoother blocks, and ends with a team barrier. The
//! threaded solvers run these with real teams (Algorithm 5); the sequential
//! solvers ([`grid_correction`](crate::grid_correction),
//! [`mult_vcycle`](crate::mult_vcycle)) run them as a team of one on the
//! calling thread ([`TeamCtx::solo`]), where every chunk is the whole range
//! and every barrier a no-op.
//!
//! A team corrects one grid at a time, so one [`Workspace`] per team holds
//! every level's buffers.

use crate::additive::AdditiveMethod;
use crate::setup::{CoarseSolve, MgSetup};
use crate::workspace::Workspace;
use asyncmg_smoothers::{async_gs_sweep, LevelSmoother, SmootherKind};
use asyncmg_sparse::Csr;
use asyncmg_telemetry::Phase;
use asyncmg_threads::{RacyVec, TeamCtx};

/// What one rank of a team runs the chain or the V-cycle with.
pub(crate) struct Chain<'a> {
    setup: &'a MgSetup,
    /// Smoothers of levels `first..`, blocked for this team: the ranks
    /// split each level's blocks between them.
    smoothers: &'a [LevelSmoother],
    first: usize,
    ws: &'a Workspace,
    ctx: &'a TeamCtx<'a>,
}

// SAFETY (every `unsafe` below): the workspace's `RacyVec`s are used under
// their contract. A step writes only the rank's chunk (`TeamCtx::chunk`) or
// the rank's smoother blocks of one vector, which are disjoint across ranks,
// the coarse LU is written by the master alone, and every read of rows
// another rank wrote comes after the team barrier that ends the writing
// step. A team of one has no other rank.
impl<'a> Chain<'a> {
    /// A rank's view of the team's smoothers (levels `first..`) and
    /// buffers.
    pub(crate) fn new(
        setup: &'a MgSetup,
        smoothers: &'a [LevelSmoother],
        first: usize,
        ws: &'a Workspace,
        ctx: &'a TeamCtx<'a>,
    ) -> Self {
        Chain { setup, smoothers, first, ws, ctx }
    }

    /// The sequential solvers' team of one: the setup's own smoothers
    /// (`MgOptions::nblocks` blocks, all owned by the one rank).
    pub(crate) fn solo(setup: &'a MgSetup, ws: &'a Workspace, ctx: &'a TeamCtx<'a>) -> Self {
        Chain::new(setup, &setup.smoothers, 0, ws, ctx)
    }

    fn sm(&self, k: usize) -> &'a LevelSmoother {
        &self.smoothers[k - self.first]
    }

    /// The blocks of `sm` this rank owns: block `rank`, `rank + T`, … of a
    /// team of `T`. A level blocked by the team size gives each rank one
    /// block; a team of one owns them all.
    fn blocks(&self, sm: &'a LevelSmoother) -> impl Iterator<Item = std::ops::Range<usize>> + 'a {
        sm.blocks().iter().skip(self.ctx.rank).step_by(self.ctx.team_size).cloned()
    }

    /// `y = M x`, team-parallel over the rows of `M`.
    fn spmv(&self, m: &Csr, x: &[f64], y: &RacyVec) {
        let rows = self.ctx.chunk(m.nrows());
        m.spmv_rows(rows.clone(), x, unsafe { y.slice_mut(rows) });
        self.ctx.barrier();
    }

    /// Grid `k`'s additive correction of the fine-grid residual `r`, left in
    /// the workspace's `e[0]`. `lap` is called as each phase ends (restrict
    /// and prolong only when `k > 0`), for per-phase timing.
    pub(crate) fn correction(
        &self,
        method: AdditiveMethod,
        k: usize,
        r: &[f64],
        lap: &mut dyn FnMut(Phase),
    ) {
        let (setup, ws) = (self.setup, self.ws);
        let ell = setup.n_levels() - 1;
        let smoothed = method.uses_smoothed_interpolants();
        debug_assert!(
            !smoothed || ell == 0 || self.ctx.n_threads == 1 || setup.smoothed_built(),
            "P̄ must be built before teams"
        );
        // Downward: c_{j+1} = R_j c_j (c_0 = r).
        for j in 0..k {
            let restrict = if smoothed { setup.r_bar(j) } else { setup.r(j) };
            let src = if j == 0 { r } else { unsafe { ws.r[j].as_slice() } };
            self.spmv(restrict, src, &ws.r[j + 1]);
        }
        let c_k = if k == 0 { r } else { unsafe { ws.r[k].as_slice() } };
        if k > 0 {
            lap(Phase::Restrict);
        }

        match method {
            AdditiveMethod::Multadd | AdditiveMethod::Bpx if k == ell => {
                self.coarse_solve(setup.opts.coarse, c_k, true);
            }
            AdditiveMethod::Multadd => self.multadd_lambda(k, c_k),
            // BPX: one plain smoother application.
            AdditiveMethod::Bpx => self.smooth_zero(k, c_k, 1, true),
            AdditiveMethod::Afacx if k == ell => {
                self.coarse_solve(setup.opts.afacx_coarse, c_k, true);
            }
            AdditiveMethod::Afacx => {
                // Step 1: e_{k+1} by smoothing A_{k+1} e = R_k c_k from zero
                // (the *plain* restriction).
                self.spmv(setup.r(k), c_k, &ws.r[k + 1]);
                let c1 = unsafe { ws.r[k + 1].as_slice() };
                self.smooth_zero(k + 1, c1, setup.opts.afacx_s2, true);
                // Step 2 (modified rhs, Algorithm 2 lines 8–9):
                // g = c_k − A_k P e_{k+1}; e_k = smooth-from-zero on g.
                self.spmv(setup.p(k), unsafe { ws.e[k + 1].as_slice() }, &ws.buf2[k]);
                let rows = self.ctx.chunk(setup.a(k).nrows());
                let pe = unsafe { ws.buf2[k].as_slice() };
                setup
                    .op(k)
                    .residual_rows(rows.clone(), c_k, pe, unsafe { ws.buf[k].slice_mut(rows) });
                self.ctx.barrier();
                let g = unsafe { ws.buf[k].as_slice() };
                self.smooth_zero(k, g, setup.opts.afacx_s1, true);
            }
        }
        lap(Phase::Smooth);

        // Upward: e_j = P_j e_{j+1}.
        for j in (0..k).rev() {
            let prolong = if smoothed { setup.p_bar(j) } else { setup.p(j) };
            self.spmv(prolong, unsafe { ws.e[j + 1].as_slice() }, &ws.e[j]);
        }
        if k > 0 {
            lap(Phase::Prolong);
        }
    }

    /// The V-cycle over levels `top..`: consumes the residual in the
    /// workspace's `r[top]` and leaves the correction in `e[top]`.
    /// `MgOptions::{n_pre, n_post}` sweeps (at least one each) smooth every
    /// level but the coarsest, which gets `MgOptions::coarse`.
    pub(crate) fn vcycle(&self, top: usize) {
        let (setup, ws, ctx) = (self.setup, self.ws, self.ctx);
        let ell = setup.n_levels() - 1;
        // Downward: pre-smooth from zero, then r_{k+1} = R_k (r_k − A_k e_k).
        for k in top..ell {
            let rk = unsafe { ws.r[k].as_slice() };
            self.smooth_zero(k, rk, setup.opts.n_pre, false);
            let rows = ctx.chunk(rk.len());
            let ek = unsafe { ws.e[k].as_slice() };
            setup.op(k).residual_rows(rows.clone(), rk, ek, unsafe { ws.buf[k].slice_mut(rows) });
            ctx.barrier();
            self.spmv(setup.r(k), unsafe { ws.buf[k].as_slice() }, &ws.r[k + 1]);
        }
        self.coarse_solve(setup.opts.coarse, unsafe { ws.r[ell].as_slice() }, false);
        // Upward: e_k += P_k e_{k+1} (snapshotting the sum for the first
        // post-sweep), then post-smooth.
        for k in (top..ell).rev() {
            let rows = ctx.chunk(ws.e[k].len());
            {
                let p = setup.p(k);
                let src = unsafe { ws.e[k + 1].as_slice() };
                let dst = unsafe { ws.e[k].slice_mut(rows.clone()) };
                let snap = unsafe { ws.snap[k].slice_mut(rows.clone()) };
                for (off, i) in rows.enumerate() {
                    dst[off] += p.row_dot(i, src);
                    snap[off] = dst[off];
                }
            }
            ctx.barrier();
            let rk = unsafe { ws.r[k].as_slice() };
            self.relax(k, rk);
            for _ in 1..setup.opts.n_post {
                self.snapshot(k);
                self.relax(k, rk);
            }
        }
    }

    /// The coarsest level's treatment: dense LU by the team master, or
    /// smoothing sweeps (two when `Exact` has no LU, the operator being
    /// singular).
    fn coarse_solve(&self, coarse: CoarseSolve, c: &[f64], racy_gs: bool) {
        let ell = self.setup.n_levels() - 1;
        match (coarse, &self.setup.hierarchy.coarse_lu) {
            (CoarseSolve::Exact, Some(lu)) => {
                if self.ctx.is_team_master() {
                    lu.solve(c, unsafe { self.ws.e[ell].slice_mut(0..lu.dim()) });
                }
                self.ctx.barrier();
            }
            (CoarseSolve::Smooth { sweeps }, _) => self.smooth_zero(ell, c, sweeps, racy_gs),
            (CoarseSolve::Exact, None) => self.smooth_zero(ell, c, 2, racy_gs),
        }
    }

    /// `e_k = Λ_k c` for the symmetrized Multadd smoother
    /// `M⁻ᵀ (M + Mᵀ − A) M⁻¹` (Jacobi variants) or one block-GS application
    /// (the paper's block-diagonal `Λ̄`).
    fn multadd_lambda(&self, k: usize, c: &[f64]) {
        let sm = self.sm(k);
        if !matches!(sm.kind(), SmootherKind::WJacobi { .. } | SmootherKind::L1Jacobi) {
            return self.smooth_zero(k, c, 1, true);
        }
        let (ws, ctx) = (self.ws, self.ctx);
        let w = sm.weights();
        let rows = ctx.chunk(c.len());
        // e = W c.
        {
            let dst = unsafe { ws.e[k].slice_mut(rows.clone()) };
            for (off, i) in rows.clone().enumerate() {
                dst[off] = w[i] * c[i];
            }
        }
        ctx.barrier();
        // buf = A e.
        let e = unsafe { ws.e[k].as_slice() };
        self.setup.op(k).spmv_rows(rows.clone(), e, unsafe { ws.buf[k].slice_mut(rows.clone()) });
        ctx.barrier();
        // e_i = w_i (2 m_ii e_i − buf_i): own rows only.
        {
            let buf = unsafe { ws.buf[k].as_slice() };
            let dst = unsafe { ws.e[k].slice_mut(rows.clone()) };
            for (off, i) in rows.enumerate() {
                dst[off] = w[i] * (2.0 * sm.m_diagonal(i) * dst[off] - buf[i]);
            }
        }
        ctx.barrier();
    }

    /// `sweeps` relaxations (at least one) of `A_k e_k = c` from a zero
    /// guess, into the workspace's `e[k]`.
    ///
    /// With `racy_gs` the async-GS smoother sweeps a shared iterate with no
    /// barrier between the ranks (the additive chain); otherwise it runs as
    /// block JGS like hybrid JGS (the V-cycle, whose sweeps are barriered by
    /// definition). A rank that owns several blocks — a team of one over
    /// `MgOptions::nblocks` blocks — also runs block JGS: sweeping its blocks
    /// one after another on a shared iterate would be plain GS over all of
    /// them, not the hybrid JGS the sequential solvers define.
    fn smooth_zero(&self, k: usize, c: &[f64], sweeps: usize, racy_gs: bool) {
        let sm = self.sm(k);
        if racy_gs && sm.kind() == SmootherKind::AsyncGs && sm.blocks().len() <= self.ctx.team_size
        {
            return self.async_gs(k, c, sweeps);
        }
        let (ws, op) = (self.ws, self.setup.op(k));
        for range in self.blocks(sm) {
            let dst = unsafe { ws.e[k].slice_mut(range.clone()) };
            sm.apply_zero_range_op(op, c, dst, range);
        }
        self.ctx.barrier();
        for _ in 1..sweeps {
            self.snapshot(k);
            self.relax(k, c);
        }
    }

    /// Copies `e_k` into the level's snapshot (the sweep-start iterate).
    fn snapshot(&self, k: usize) {
        let rows = self.ctx.chunk(self.ws.e[k].len());
        let src = unsafe { &self.ws.e[k].as_slice()[rows.clone()] };
        unsafe { self.ws.snap[k].slice_mut(rows) }.copy_from_slice(src);
        self.ctx.barrier();
    }

    /// One relaxation `e_k ← e_k + M⁻¹ (c − A_k e_k)` of the rank's blocks
    /// against the snapshot.
    fn relax(&self, k: usize, c: &[f64]) {
        let (sm, ws, op) = (self.sm(k), self.ws, self.setup.op(k));
        let old = unsafe { ws.snap[k].as_slice() };
        for range in self.blocks(sm) {
            let dst = unsafe { ws.e[k].slice_mut(range.clone()) };
            sm.relax_range_op(op, c, dst, old, range);
        }
        self.ctx.barrier();
    }

    /// Asynchronous GS (Equation 5): zero the shared iterate, sweep the
    /// rank's block `sweeps` times reading whatever the other ranks have
    /// published, then copy the iterate into `e_k`.
    fn async_gs(&self, k: usize, c: &[f64], sweeps: usize) {
        let (sm, ws, ctx) = (self.sm(k), self.ws, self.ctx);
        let (a, gs) = (self.setup.a(k), &ws.gs[k]);
        let rows = ctx.chunk(a.nrows());
        for i in rows.clone() {
            gs.store(i, 0.0);
        }
        ctx.barrier();
        for block in self.blocks(sm) {
            for _ in 0..sweeps {
                async_gs_sweep(a, c, gs, sm.weights(), block.clone());
            }
        }
        ctx.barrier();
        let dst = unsafe { ws.e[k].slice_mut(rows.clone()) };
        for (off, i) in rows.enumerate() {
            dst[off] = gs.load(i);
        }
        ctx.barrier();
    }
}
