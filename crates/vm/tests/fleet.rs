//! Per-shard bit-identity: the sharded fleet executor must be invisible to
//! every modeled observable. Each (workload, config) job run inside a
//! 1/2/4/8-worker fleet — with or without the shared compile-artifact
//! cache, under fault injection or not — produces output, modeled clock,
//! full stats and `.folded` profile identical to its solo run. Host-side
//! effects (compile wall time, shared-cache hit counters) are exactly
//! where sharing is *allowed* to show, and the suite asserts those too:
//! the second identical tenant runs zero compiler pipelines.

use dchm_testutil::fleet::{run_job, run_jobs_fleet, FleetJob, JobReport};
use dchm_testutil::find_workload;
use dchm_vm::fleet::FleetConfig;
use dchm_vm::{FaultConfig, SharedCodeCache};
use dchm_workloads::{catalog, Driver, Scale};
use std::sync::{Arc, OnceLock};

/// The 7-workload catalog as harness jobs plus their solo goldens,
/// computed once per test binary (offline pipelines are the slow part).
fn goldens() -> &'static Vec<(FleetJob, JobReport)> {
    static GOLDENS: OnceLock<Vec<(FleetJob, JobReport)>> = OnceLock::new();
    GOLDENS.get_or_init(|| {
        catalog(Scale::Small)
            .iter()
            .map(|w| {
                let job = FleetJob::for_workload(w);
                let solo = run_job(&job, None);
                (job, solo)
            })
            .collect()
    })
}

fn assert_shard_matches_solo(ctx: &str, name: &str, shard: &JobReport, solo: &JobReport) {
    assert_eq!(
        shard.obs, solo.obs,
        "{ctx}: {name} observable fingerprint diverged from solo"
    );
    assert_eq!(shard.stats, solo.stats, "{ctx}: {name} stats diverged");
    assert_eq!(shard.folded, solo.folded, "{ctx}: {name} profile diverged");
}

#[test]
fn fleet_is_bit_identical_to_solo_at_every_worker_count() {
    let goldens = goldens();
    let jobs: Vec<FleetJob> = goldens.iter().map(|(j, _)| j.clone()).collect();
    for workers in [1, 2, 4, 8] {
        let reports = run_jobs_fleet(&FleetConfig::dynamic(workers), &jobs, None);
        for ((job, solo), rep) in goldens.iter().zip(&reports) {
            assert_shard_matches_solo(&format!("{workers}-worker fleet"), &job.name, rep, solo);
            assert_eq!(rep.shared_hits + rep.shared_misses, 0, "no shared cache attached");
        }
    }
}

#[test]
fn shared_cache_fleet_is_bit_identical_and_replicas_hit() {
    let goldens = goldens();
    // Two replicas of every workload: the second replica of each program is
    // an identical tenant and can be answered entirely from the shared
    // cache (when scheduling happens to serialize them) — and must be
    // bit-identical either way.
    let mut jobs: Vec<FleetJob> = Vec::new();
    for (j, _) in goldens {
        for replica in 0..2 {
            let mut job = j.clone();
            job.name = format!("{}[{replica}]", j.name);
            jobs.push(job);
        }
    }
    for workers in [2, 4, 8] {
        let shared = Arc::new(SharedCodeCache::new(4096));
        let reports = run_jobs_fleet(&FleetConfig::dynamic(workers), &jobs, Some(&shared));
        for (i, rep) in reports.iter().enumerate() {
            let (_, solo) = &goldens[i / 2];
            assert_shard_matches_solo(
                &format!("{workers}-worker shared fleet"),
                &jobs[i].name,
                rep,
                solo,
            );
        }
        let s = shared.stats();
        assert!(s.inserts > 0, "tenants must publish artifacts");
        assert!(
            reports.iter().map(|r| r.shared_hits).sum::<u64>() > 0,
            "identical replicas must hit the shared cache"
        );
        // Distinct programs have distinct scopes: 7 workloads × 2 replicas
        // never exceed the capacity, so nothing is evicted here.
        assert_eq!(s.evictions, 0);
    }
}

#[test]
fn second_identical_tenant_runs_zero_compiler_pipelines() {
    let (job, solo) = &goldens()[0]; // SalaryDB
    let shared = Arc::new(SharedCodeCache::new(4096));
    let first = run_job(job, Some(&shared));
    let second = run_job(job, Some(&shared));
    assert_shard_matches_solo("tenant 1", &job.name, &first, solo);
    assert_shard_matches_solo("tenant 2", &job.name, &second, solo);
    assert!(first.shared_misses > 0, "tenant 1 populates the cache");
    assert!(first.compile_wall_nanos > 0, "tenant 1 pays the compiles");
    assert!(second.shared_hits > 0, "tenant 2 adopts artifacts");
    assert_eq!(second.shared_misses, 0, "every tenant-2 request is answered");
    assert_eq!(
        second.compile_wall_nanos, 0,
        "an identical tenant's compile wall must be exactly zero"
    );
}

#[test]
fn separately_built_tenants_of_one_program_share_every_artifact() {
    // Every catalog build links its own copy of each program, so the second
    // tenant's program is equal to the first's but not the same allocation.
    // The shared store's scope must still match.
    for ((job, solo), w) in goldens().iter().zip(catalog(Scale::Small)) {
        let shared = Arc::new(SharedCodeCache::new(4096));
        let first = run_job(job, Some(&shared));
        let second = run_job(&FleetJob::for_workload(&w), Some(&shared));
        assert_shard_matches_solo("built once", &job.name, &first, solo);
        assert_shard_matches_solo("built twice", &job.name, &second, solo);
        assert_eq!(second.shared_misses, 0, "{}: the rebuilt tenant missed", job.name);
        assert_eq!(
            second.compile_wall_nanos, 0,
            "{}: the rebuilt tenant ran a pipeline",
            job.name
        );
    }
}

#[test]
fn fleet_under_fault_injection_is_bit_identical_to_solo_injection() {
    // Fault-injected tenants: the injector draws are seeded per tenant, so
    // a shard's sequence is the solo sequence regardless of interleaving.
    let mut jobs = Vec::new();
    for (name, fault) in [
        ("SalaryDB", FaultConfig::transparent(0xD1CE)),
        ("SalaryDB", FaultConfig::guard_failures(0x5EED)),
        ("SimLogic", FaultConfig::transparent(0xD1CE)),
        ("SimLogic", FaultConfig::compile_failures(0xFA11)),
    ] {
        let mut job = FleetJob::for_workload(&find_workload(name));
        job.name = format!("{name}+{fault:?}");
        job.fault = Some(fault);
        jobs.push(job);
    }
    let solos: Vec<JobReport> = jobs.iter().map(|j| run_job(j, None)).collect();
    for workers in [2, 4] {
        let shared = Arc::new(SharedCodeCache::new(4096));
        let reports = run_jobs_fleet(&FleetConfig::dynamic(workers), &jobs, Some(&shared));
        for ((job, solo), rep) in jobs.iter().zip(&solos).zip(&reports) {
            assert_shard_matches_solo(
                &format!("{workers}-worker fault fleet"),
                &job.name,
                rep,
                solo,
            );
        }
    }
}

#[test]
fn eviction_churn_never_invalidates_in_flight_tenant_code() {
    // The cross-tenant stale-hit regression at VM level (mirrors the
    // quarantine stale-hit test of the resilience suite): tenant A adopts
    // artifacts from a pathological capacity-1 shared cache, tenant B's
    // compiles churn every one of A's entries out of the map while A is
    // mid-run — A's installed code must stay alive and bit-exact, because
    // eviction drops map entries, never the Arc'd artifacts A holds.
    let a = find_workload("SPECjbb2000");
    let Driver::Warehouse {
        setup,
        run,
        txns,
        warehouses,
    } = a.driver
    else {
        panic!("SPECjbb2000 is warehouse-driven");
    };
    let job_a = FleetJob::for_workload(&a);
    let job_b = FleetJob::for_workload(&find_workload("SimLogic"));
    let solo = run_job(&job_a, None);

    let shared = Arc::new(SharedCodeCache::new(1));
    let mut vm = job_a.prepared.make_vm_shared(job_a.config.clone(), &shared);
    vm.call_static(setup, &[]).expect("setup");
    vm.call_static(run, &[dchm_bytecode::Value::Int(txns)])
        .expect("first warehouse");
    // Tenant B churns the capacity-1 cache while A is in flight.
    let _ = run_job(&job_b, Some(&shared));
    assert!(
        shared.stats().evictions > 0,
        "capacity-1 shared cache must churn"
    );
    for _ in 1..warehouses {
        vm.call_static(run, &[dchm_bytecode::Value::Int(txns)])
            .expect("remaining warehouses");
    }
    let rep = JobReport::of(&vm);
    assert_shard_matches_solo("churned tenant", &job_a.name, &rep, &solo);
}

mod interleavings {
    //! Random fleets: shard counts, job orders (replicas included), shared
    //! cache on/off and fault-injection seeds — every shard must reproduce
    //! its solo golden bit for bit.

    use super::*;
    use proptest::prelude::*;

    /// Deterministic Fisher–Yates driven by splitmix64.
    fn shuffle<T>(items: &mut [T], mut seed: u64) {
        let mut next = || {
            seed = seed.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        for i in (1..items.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn random_fleets_reproduce_solo_goldens(
            workers in 1usize..9,
            order_seed in 0u64..1_000,
            with_shared in 0u8..2,
            fault_seed in 0u64..1_000,
        ) {
            let goldens = goldens();
            // Base jobs + one faulted SalaryDB replica (seeded per case)
            // + one clean SalaryDB replica, in a random order.
            let mut indexed: Vec<(usize, FleetJob)> = goldens
                .iter()
                .enumerate()
                .map(|(i, (j, _))| (i, j.clone()))
                .collect();
            let mut faulted = goldens[0].0.clone();
            faulted.fault = Some(FaultConfig::guard_failures(fault_seed + 1));
            let faulted_solo = run_job(&faulted, None);
            indexed.push((usize::MAX, faulted));
            indexed.push((0, goldens[0].0.clone()));
            shuffle(&mut indexed, order_seed);

            let jobs: Vec<FleetJob> = indexed.iter().map(|(_, j)| j.clone()).collect();
            let shared = (with_shared == 1).then(|| Arc::new(SharedCodeCache::new(4096)));
            let reports = run_jobs_fleet(
                &FleetConfig::dynamic(workers),
                &jobs,
                shared.as_ref(),
            );
            for ((gi, job), rep) in indexed.iter().zip(&reports) {
                let solo = if *gi == usize::MAX { &faulted_solo } else { &goldens[*gi].1 };
                prop_assert_eq!(&rep.obs, &solo.obs, "{} diverged (workers {})", &job.name, workers);
                prop_assert_eq!(&rep.stats, &solo.stats, "{} stats diverged", &job.name);
                prop_assert_eq!(&rep.folded, &solo.folded, "{} profile diverged", &job.name);
            }
        }
    }
}
