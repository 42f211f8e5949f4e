//! Bit pins: every solver family that runs the multigrid chain or the
//! V-cycle, reduced to one hash of its final iterate's bits.
//!
//! The equality tests elsewhere compare relative residuals to 1e-9 or
//! compare two runs of one build; these hashes compare against the bits a
//! known-good build produced, so a change that moves any floating-point
//! operation of the restrict → correct → prolong chain or of the V-cycle
//! shows up here. A change that is *meant* to move bits re-records the
//! table (run with `--nocapture` to print every row's current hash).

use asyncmg_amg::{build_hierarchy, AmgOptions};
use asyncmg_core::{
    coarse_correction, pcg, simulate, solve_additive_probed, solve_async, solve_mult_probed,
    solve_mult_threaded, AdditiveMethod, AdditivePrec, AsyncOptions, CoarseSolve, ExecEnv,
    MgOptions, MgSetup, ModelKind, ModelOptions, NoopProbe, ResComp, VCyclePrec, Workspace,
    WriteMode,
};
use asyncmg_problems::{rhs::random_rhs, stencil::laplacian_7pt, TestSet};
use asyncmg_smoothers::SmootherKind;
use asyncmg_threads::VirtualSched;

/// FNV-1a over the IEEE-754 bits of `x`.
fn hash(x: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in x {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `MgOptions::default()` with `edit` applied (the struct is non-exhaustive).
fn mg(edit: impl FnOnce(&mut MgOptions)) -> MgOptions {
    let mut o = MgOptions::default();
    edit(&mut o);
    o
}

fn poisson(opts: MgOptions) -> MgSetup {
    MgSetup::new(build_hierarchy(laplacian_7pt(6, 6, 6), &AmgOptions::default()), opts)
}

fn elasticity() -> MgSetup {
    let aopts = AmgOptions { num_functions: 3, ..AmgOptions::default() };
    let s = MgSetup::new(
        build_hierarchy(TestSet::Elasticity.matrix(4), &aopts),
        mg(|o| {
            o.smoother = SmootherKind::L1Jacobi;
        }),
    );
    assert_eq!(s.op(0).label(), "bsr");
    s
}

const SMOOTHERS: [SmootherKind; 4] = [
    SmootherKind::WJacobi { omega: 0.9 },
    SmootherKind::L1Jacobi,
    SmootherKind::HybridJgs,
    SmootherKind::AsyncGs,
];

/// Checks every `(label, hash)` row against the table, printing all of
/// them first so a re-record is one `--nocapture` run.
fn check(rows: &[(String, u64)], table: &[(&str, u64)]) {
    for (label, h) in rows {
        println!("(\"{label}\", {h:#018x}),");
    }
    assert_eq!(rows.len(), table.len(), "row count");
    for ((label, h), (want_label, want)) in rows.iter().zip(table) {
        assert_eq!(label, want_label);
        assert_eq!(h, want, "{label}: bits moved");
    }
}

#[test]
fn pin_mult_cycles() {
    let mut rows = Vec::new();
    let cycles: [(&str, usize, usize, CoarseSolve); 3] = [
        ("V(1,1)", 1, 1, CoarseSolve::Exact),
        ("V(2,2)", 2, 2, CoarseSolve::Exact),
        ("V(1,1) smooth3", 1, 1, CoarseSolve::Smooth { sweeps: 3 }),
    ];
    for smoother in SMOOTHERS {
        for (name, n_pre, n_post, coarse) in cycles {
            let s = poisson(mg(|o| {
                o.smoother = smoother;
                (o.n_pre, o.n_post, o.coarse) = (n_pre, n_post, coarse);
            }));
            let b = random_rhs(s.n(), 3);
            let run = solve_mult_probed(&s, &b, 5, None, &NoopProbe);
            rows.push((format!("mult {name} {}", smoother.name()), hash(&run.x)));
        }
    }
    // The threaded cycle's own bits where it differs from the sequential
    // one: block-GS smoothers blocked by the thread count.
    for smoother in [SmootherKind::HybridJgs, SmootherKind::AsyncGs] {
        let s = poisson(mg(|o| o.smoother = smoother));
        let b = random_rhs(s.n(), 3);
        let run = solve_mult_threaded(&s, &b, 3, 5, None, &NoopProbe, ExecEnv::default());
        rows.push((format!("threaded mult T=3 {}", smoother.name()), hash(&run.x)));
    }
    check(&rows, MULT);
}

#[test]
fn pin_additive_solves() {
    let mut rows = Vec::new();
    for smoother in SMOOTHERS {
        let s = poisson(mg(|o| o.smoother = smoother));
        let b = random_rhs(s.n(), 5);
        for method in [AdditiveMethod::Multadd, AdditiveMethod::Afacx, AdditiveMethod::Bpx] {
            let run = solve_additive_probed(&s, method, &b, 5, None, &NoopProbe);
            rows.push((format!("{} {}", method.name(), smoother.name()), hash(&run.x)));
        }
    }
    // AFACx V(2/2,0) with a smoothed coarse grid: the multi-sweep path.
    let s = poisson(mg(|o| {
        (o.afacx_s1, o.afacx_s2) = (2, 2);
        o.afacx_coarse = CoarseSolve::Smooth { sweeps: 2 };
    }));
    let b = random_rhs(s.n(), 5);
    let run = solve_additive_probed(&s, AdditiveMethod::Afacx, &b, 5, None, &NoopProbe);
    rows.push(("AFACx V(2/2,0)".to_string(), hash(&run.x)));
    check(&rows, ADDITIVE);
}

#[test]
fn pin_models_preconditioners_and_coarse_correction() {
    let mut rows = Vec::new();
    let s = poisson(mg(|_| ()));
    let b = random_rhs(s.n(), 7);
    for model in [ModelKind::SemiAsync, ModelKind::FullAsyncSolution, ModelKind::FullAsyncResidual]
    {
        let mut opts = ModelOptions::default();
        (opts.model, opts.delta, opts.updates_per_grid, opts.seed) = (model, 2, 8, 4);
        let run = simulate(&s, AdditiveMethod::Multadd, &b, &opts);
        rows.push((format!("model {model:?}"), hash(&run.x)));
    }
    for method in [AdditiveMethod::Multadd, AdditiveMethod::Bpx] {
        let run = pcg(s.a(0), &b, 1e-10, 12, &mut AdditivePrec::new(&s, method));
        rows.push((format!("pcg {}", method.name()), hash(&run.x)));
    }
    let run = pcg(s.a(0), &b, 1e-10, 12, &mut VCyclePrec::new(&s));
    rows.push(("pcg V-cycle".to_string(), hash(&run.x)));
    let mut c = vec![0.0; s.n()];
    assert!(coarse_correction(&s, &b, &mut c, &mut Workspace::new(&s)));
    rows.push(("coarse_correction".to_string(), hash(&c)));
    check(&rows, MODELS);
}

#[test]
fn pin_async_teams_under_virtual_schedules() {
    let mut rows = Vec::new();
    let problems = [("7pt", poisson(mg(|_| ()))), ("elasticity", elasticity())];
    for (name, s) in &problems {
        let b = random_rhs(s.n(), 9);
        for res_comp in [ResComp::Local, ResComp::Global, ResComp::ResidualBased] {
            for write in [WriteMode::Lock, WriteMode::Atomic] {
                for seed in 0..3 {
                    let mut opts = AsyncOptions::default();
                    (opts.res_comp, opts.write, opts.t_max, opts.n_threads) =
                        (res_comp, write, 8, 4);
                    let sched = VirtualSched::new(seed);
                    let env = ExecEnv { sched: Some(&sched), ..Default::default() };
                    let run = solve_async(s, &b, &opts, &NoopProbe, env);
                    rows.push((format!("{name} {res_comp:?} {write:?} seed {seed}"), hash(&run.x)));
                }
            }
        }
    }
    // The team smoother paths: block GS and the shared async-GS iterate,
    // in both methods, asynchronous and synchronous.
    for smoother in SMOOTHERS {
        let s = poisson(mg(|o| o.smoother = smoother));
        let b = random_rhs(s.n(), 9);
        for method in [AdditiveMethod::Multadd, AdditiveMethod::Afacx] {
            for sync in [false, true] {
                let mut opts = AsyncOptions::default();
                (opts.method, opts.sync, opts.t_max, opts.n_threads) = (method, sync, 6, 5);
                let sched = VirtualSched::new(1);
                let env = ExecEnv { sched: Some(&sched), ..Default::default() };
                let run = solve_async(&s, &b, &opts, &NoopProbe, env);
                let label = format!("{} {} sync={sync}", method.name(), smoother.name());
                rows.push((label, hash(&run.x)));
            }
        }
    }
    check(&rows, ASYNC);
}

const MULT: &[(&str, u64)] = &[
    ("mult V(1,1) w-Jacobi", 0x2a1da77b74e9c7f8),
    ("mult V(2,2) w-Jacobi", 0xac169e29923d5e0c),
    ("mult V(1,1) smooth3 w-Jacobi", 0x5163fa71a338f89e),
    ("mult V(1,1) l1-Jacobi", 0xb0614ea4aac26abf),
    ("mult V(2,2) l1-Jacobi", 0x16c63a3cef13e983),
    ("mult V(1,1) smooth3 l1-Jacobi", 0x05632d78675a2b00),
    ("mult V(1,1) hybrid JGS", 0xfbe24a557d27b024),
    ("mult V(2,2) hybrid JGS", 0x0cec0c47f3f79f0d),
    ("mult V(1,1) smooth3 hybrid JGS", 0x2f4786074f25df17),
    ("mult V(1,1) async GS", 0xfbe24a557d27b024),
    ("mult V(2,2) async GS", 0x0cec0c47f3f79f0d),
    ("mult V(1,1) smooth3 async GS", 0x2f4786074f25df17),
    ("threaded mult T=3 hybrid JGS", 0x0056075373ea3f04),
    ("threaded mult T=3 async GS", 0x0056075373ea3f04),
];

const ADDITIVE: &[(&str, u64)] = &[
    ("Multadd w-Jacobi", 0xcccf011a23e74975),
    ("AFACx w-Jacobi", 0xa280d8211f0c7e3b),
    ("BPX w-Jacobi", 0xb69d2d9246f319b8),
    ("Multadd l1-Jacobi", 0xd46d7cc43bfb3503),
    ("AFACx l1-Jacobi", 0x38b23b208918dbc3),
    ("BPX l1-Jacobi", 0x3c73c936ab24d88f),
    ("Multadd hybrid JGS", 0x47ec55f635f7d92c),
    ("AFACx hybrid JGS", 0x210278c93782439a),
    ("BPX hybrid JGS", 0x3f3e4ffb10eb780e),
    ("Multadd async GS", 0x47ec55f635f7d92c),
    ("AFACx async GS", 0x210278c93782439a),
    ("BPX async GS", 0x3f3e4ffb10eb780e),
    ("AFACx V(2/2,0)", 0x69de4a89e6b47a25),
];

const MODELS: &[(&str, u64)] = &[
    ("model SemiAsync", 0x7d44dadb10c2da0c),
    ("model FullAsyncSolution", 0x20130d7d8ba93895),
    ("model FullAsyncResidual", 0x78fc16a002717a76),
    ("pcg Multadd", 0x05fdcdd6c1161ae9),
    ("pcg BPX", 0x4ffcf0abd07c658e),
    ("pcg V-cycle", 0xa51e98f03bacb74a),
    ("coarse_correction", 0x7343d904991f0fd5),
];

const ASYNC: &[(&str, u64)] = &[
    ("7pt Local Lock seed 0", 0x36044a33ad455881),
    ("7pt Local Lock seed 1", 0x595955fba0df52fa),
    ("7pt Local Lock seed 2", 0x6c20b048319c8ddb),
    ("7pt Local Atomic seed 0", 0x7565a10593238f64),
    ("7pt Local Atomic seed 1", 0x522e6e7222590f7d),
    ("7pt Local Atomic seed 2", 0x063a121fd2f33f61),
    ("7pt Global Lock seed 0", 0x80267608d5c778c0),
    ("7pt Global Lock seed 1", 0x303d745f512d4ed6),
    ("7pt Global Lock seed 2", 0xde01e73691bc1496),
    ("7pt Global Atomic seed 0", 0x85a35a2f136e2ac5),
    ("7pt Global Atomic seed 1", 0x3941ebdb7b9ea711),
    ("7pt Global Atomic seed 2", 0xfb19a308dfa8942d),
    ("7pt ResidualBased Lock seed 0", 0xdeaf1bb498988e0f),
    ("7pt ResidualBased Lock seed 1", 0x235e67c96bfe0369),
    ("7pt ResidualBased Lock seed 2", 0x6ce08b39e8eefa56),
    ("7pt ResidualBased Atomic seed 0", 0x65d933ce33253a8c),
    ("7pt ResidualBased Atomic seed 1", 0x64c5d91d4c744d85),
    ("7pt ResidualBased Atomic seed 2", 0xcbae1b6a5ebe4a7e),
    ("elasticity Local Lock seed 0", 0x3369d324ebb38ec6),
    ("elasticity Local Lock seed 1", 0x08fb8393feb2a217),
    ("elasticity Local Lock seed 2", 0x41bb95b0d134e55a),
    ("elasticity Local Atomic seed 0", 0xb968fe737ad6a232),
    ("elasticity Local Atomic seed 1", 0x7d28751fb44a4a69),
    ("elasticity Local Atomic seed 2", 0x964ee1511fb62729),
    ("elasticity Global Lock seed 0", 0xe7f10b1db85fe427),
    ("elasticity Global Lock seed 1", 0x9649508ec6eef687),
    ("elasticity Global Lock seed 2", 0x5563ea5cae9d76dc),
    ("elasticity Global Atomic seed 0", 0x6bba721a1184bc06),
    ("elasticity Global Atomic seed 1", 0xacf624d1493f2299),
    ("elasticity Global Atomic seed 2", 0x32c12deb89893e8c),
    ("elasticity ResidualBased Lock seed 0", 0xd572dc0659213640),
    ("elasticity ResidualBased Lock seed 1", 0x4fe18a01536a66d8),
    ("elasticity ResidualBased Lock seed 2", 0x20f2a50b3e6f7153),
    ("elasticity ResidualBased Atomic seed 0", 0x3c2895a2e1b9edea),
    ("elasticity ResidualBased Atomic seed 1", 0xed50453b28c004de),
    ("elasticity ResidualBased Atomic seed 2", 0x82856e00a99c0569),
    ("Multadd w-Jacobi sync=false", 0xebb2ed5304b71618),
    ("Multadd w-Jacobi sync=true", 0xc9c4ad6532771922),
    ("AFACx w-Jacobi sync=false", 0x875bb4c4b7e30778),
    ("AFACx w-Jacobi sync=true", 0x1cf4ae5449353b09),
    ("Multadd l1-Jacobi sync=false", 0x5e584793e4996c84),
    ("Multadd l1-Jacobi sync=true", 0x852b36e5c398f745),
    ("AFACx l1-Jacobi sync=false", 0x93be34c4ea28fa51),
    ("AFACx l1-Jacobi sync=true", 0x27d096724729a5d9),
    ("Multadd hybrid JGS sync=false", 0x7c62940bf259daa0),
    ("Multadd hybrid JGS sync=true", 0x386b6ac0498cba90),
    ("AFACx hybrid JGS sync=false", 0x939c63cfa657de28),
    ("AFACx hybrid JGS sync=true", 0x8bd8c7f3e0ae63ac),
    ("Multadd async GS sync=false", 0x9e2e2cb746450047),
    ("Multadd async GS sync=true", 0x577dd63995a7337a),
    ("AFACx async GS sync=false", 0x09cad10053fa18e4),
    ("AFACx async GS sync=true", 0x87b79f8a48ca9779),
];
