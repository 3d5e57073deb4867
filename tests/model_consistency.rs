//! Consistency of the three cost views across whole *plans* (not just
//! single kernels): the Eqn 13 analytic estimate, the σ_AI-derated DMT
//! metric, and the cycle-level block simulation must tell coherent
//! stories — same winners, sane ratios.

use autogemm::ExecutionPlan;
use autogemm_arch::ChipSpec;
use autogemm_perfmodel::ModelOpts;
use autogemm_tuner::tune;

fn simulated_block_cycles(plan: &ExecutionPlan, chip: &ChipSpec) -> f64 {
    autogemm::simexec::simulate_block(plan, chip, true).cycles as f64
}

#[test]
fn model_and_simulator_agree_within_2x_on_l1_resident_blocks() {
    let chip = ChipSpec::graviton2();
    for (m, n, k) in [(26usize, 36usize, 64usize), (40, 48, 32), (64, 64, 64)] {
        let plan = ExecutionPlan::from_schedule(tune(m, n, k, &chip), &chip);
        let model = plan.block_plan.projected_cycles(plan.schedule.kc, &chip, plan.opts);
        let sim = simulated_block_cycles(&plan, &chip);
        let ratio = sim / model;
        assert!(
            (0.5..2.0).contains(&ratio),
            "{m}x{n}x{k}: sim {sim:.0} vs model {model:.0} (x{ratio:.2})"
        );
    }
}

#[test]
fn derated_metric_ranks_plans_like_the_simulator() {
    // For a ragged block where tile choice matters, the strategy the
    // derated model prefers must also win on the simulator.
    use autogemm_kernelgen::MicroTile;
    use autogemm_tiling::{plan_dmt, plan_libxsmm};
    use autogemm_tuner::space::LoopOrder;
    use autogemm_tuner::{Packing, Schedule};
    let chip = ChipSpec::graviton2();
    let (m, n, kc) = (26usize, 36usize, 64usize);
    let opts = ModelOpts { rotate: true, fused: true };
    let sched = Schedule {
        m,
        n,
        k: kc,
        mc: m,
        nc: n,
        kc,
        order: LoopOrder::goto(),
        packing: Packing::Online,
    };
    let mk_plan = |block_plan| ExecutionPlan {
        schedule: sched.clone(),
        block_plan,
        opts,
        sigma_lane: 4,
        warmth: None,
        routing: autogemm::OperandRouting::packed(),
    };
    let dmt = mk_plan(plan_dmt(m, n, kc, &chip, opts));
    let xsmm = mk_plan(plan_libxsmm(m, n, MicroTile::new(5, 16), 4));

    let model_prefers_dmt = dmt.block_plan.effective_cycles(kc, &chip, opts)
        <= xsmm.block_plan.effective_cycles(kc, &chip, opts);
    let sim_prefers_dmt =
        simulated_block_cycles(&dmt, &chip) <= simulated_block_cycles(&xsmm, &chip) * 1.02;
    assert!(model_prefers_dmt, "derated model must prefer DMT on 26x36");
    assert!(sim_prefers_dmt, "simulator must agree with the model's ranking");
}

#[test]
fn efficiency_is_monotone_in_problem_regularity() {
    // A lane-aligned, divisor-friendly shape should never simulate slower
    // (per flop) than a ragged variant of comparable size.
    let chip = ChipSpec::graviton2();
    let engine = autogemm::AutoGemm::new(chip.clone());
    let friendly = engine.simulate(64, 64, 64, 1);
    let ragged = engine.simulate(61, 67, 64, 1);
    assert!(
        friendly.efficiency >= ragged.efficiency * 0.98,
        "friendly {:.3} vs ragged {:.3}",
        friendly.efficiency,
        ragged.efficiency
    );
}

#[test]
fn prepacked_and_plain_native_paths_agree() {
    let chip = ChipSpec::graviton2();
    let engine = autogemm::AutoGemm::new(chip.clone());
    let (m, n, k) = (32usize, 48usize, 40usize);
    let plan = engine.plan(m, n, k);
    let a: Vec<f32> = (0..m * k).map(|i| ((i * 3) % 17) as f32 - 8.0).collect();
    let b: Vec<f32> = (0..k * n).map(|i| ((i * 7) % 13) as f32 - 6.0).collect();

    let mut c_plain = vec![0.0f32; m * n];
    engine.gemm(m, n, k, &a, &b, &mut c_plain);

    let packed = autogemm::PackedB::new(&plan, &b);
    let mut c_packed = vec![0.0f32; m * n];
    let pool = autogemm::PanelPool::new();
    autogemm::try_gemm_prepacked_pooled(&plan, &a, &packed, &mut c_packed, 2, &pool).unwrap();

    assert_eq!(c_plain, c_packed);
}

#[test]
fn batch_api_agrees_with_individual_calls() {
    let chip = ChipSpec::m2();
    let engine = autogemm::AutoGemm::new(chip.clone());
    let (m, n, k, items) = (8usize, 12usize, 16usize, 4usize);
    let plan = engine.plan(m, n, k);
    let a_store: Vec<Vec<f32>> =
        (0..items).map(|t| (0..m * k).map(|i| ((i + t) % 5) as f32).collect()).collect();
    let b_store: Vec<Vec<f32>> =
        (0..items).map(|t| (0..k * n).map(|i| ((i * 2 + t) % 7) as f32).collect()).collect();

    let mut batch = autogemm::GemmBatch::new(m, n, k);
    for t in 0..items {
        batch.push(&a_store[t], &b_store[t]);
    }
    let mut c_batch = vec![0.0f32; items * m * n];
    let sup = autogemm::Supervision::none();
    autogemm::try_gemm_batch_supervised(&plan, &batch, &mut c_batch, 2, &sup).unwrap();

    for t in 0..items {
        let mut c_one = vec![0.0f32; m * n];
        engine.gemm(m, n, k, &a_store[t], &b_store[t], &mut c_one);
        assert_eq!(&c_batch[t * m * n..(t + 1) * m * n], &c_one[..], "item {t}");
    }
}
