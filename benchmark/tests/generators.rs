//! The inputs a workload feeds the system depend on the seed and on
//! nothing else.

use statesman_benchmark::gen::{self, POD_REUSE_ROUNDS};
use statesman_benchmark::stack::{Fabric, Topology};
use statesman_benchmark::{api_ingest, api_mixed};
use statesman_net::SimConfig;
use statesman_storage::StorageConfig;
use statesman_types::{AppId, DatacenterId, SimTime};
use std::collections::HashMap;

fn dcs() -> Vec<DatacenterId> {
    vec![DatacenterId::new("dc1"), DatacenterId::new("dc2")]
}

fn bytes<T: std::fmt::Debug>(inputs: &T) -> Vec<u8> {
    format!("{inputs:?}").into_bytes()
}

#[test]
fn wave_schedule_is_a_function_of_the_seed() {
    let a = gen::wave_schedule(7, &dcs(), 52, 8, 24);
    assert_eq!(bytes(&a), bytes(&gen::wave_schedule(7, &dcs(), 52, 8, 24)));
    assert_ne!(bytes(&a), bytes(&gen::wave_schedule(8, &dcs(), 52, 8, 24)));
}

#[test]
fn waves_do_the_same_work_for_every_seed_and_keep_pods_apart() {
    for seed in [1, 2, 3] {
        let waves = gen::wave_schedule(seed, &dcs(), 52, 8, 40);
        let mut last_touched: HashMap<String, usize> = HashMap::new();
        for (round, w) in waves.iter().enumerate() {
            assert_eq!(w.campaign.len(), 8);
            assert_eq!(w.greedy.len(), 3);
            let pod_of = |t: &gen::Target| {
                let name = t.entity.as_device().expect("a device").as_str().to_string();
                name[..name.rfind('-').expect("agg-<pod>-<n>")].to_string()
            };
            // The greedy three share one pod; campaign Aggs are each alone
            // in theirs.
            let greedy_pod = pod_of(&w.greedy[0]);
            assert!(w.greedy.iter().all(|t| pod_of(t) == greedy_pod));
            let mut pods: Vec<String> = w.campaign.iter().map(pod_of).collect();
            pods.push(greedy_pod);
            let distinct: std::collections::HashSet<&String> = pods.iter().collect();
            assert_eq!(
                distinct.len(),
                pods.len(),
                "round {round}: a pod used twice"
            );
            for pod in pods {
                if let Some(prev) = last_touched.insert(pod.clone(), round) {
                    assert!(
                        round - prev >= POD_REUSE_ROUNDS,
                        "seed {seed}: {pod} reused after {} rounds",
                        round - prev
                    );
                }
            }
        }
    }
}

#[test]
fn row_batches_are_a_function_of_seed_writer_and_op() {
    let fabric = Fabric::build(
        Topology::OneDc(6_000),
        SimConfig::default(),
        StorageConfig::default(),
    );
    let keys = api_ingest::keys(5, &fabric, 0);
    let batch = |seed, op| gen::row_batch(seed, &AppId::new("w"), &keys, op, 64, SimTime::ZERO);
    assert_eq!(bytes(&batch(5, 3)), bytes(&batch(5, 3)));
    assert_ne!(bytes(&batch(5, 3)), bytes(&batch(6, 3)));
    assert_ne!(bytes(&batch(5, 3)), bytes(&batch(5, 4)));
    // Two connections never write the same variable.
    let other = api_ingest::keys(5, &fabric, 1);
    assert!(keys.iter().all(|k| !other.contains(k)));
    // A key written twice gets a different value the second time, so
    // storage cannot suppress the write as value-identical.
    let cycle = |op| gen::row_batch(5, &AppId::new("w"), &keys, op, keys.len(), SimTime::ZERO);
    assert_eq!(cycle(0)[0].key(), cycle(1)[0].key());
    assert_ne!(cycle(0)[0].value, cycle(1)[0].value);
}

#[test]
fn api_inputs_are_a_function_of_the_seed() {
    let fabric = Fabric::build(
        Topology::OneDc(12_000),
        SimConfig::default(),
        StorageConfig::default(),
    );
    let a = api_mixed::Inputs::new(9, &fabric);
    assert_eq!(bytes(&a), bytes(&api_mixed::Inputs::new(9, &fabric)));
    assert_ne!(bytes(&a), bytes(&api_mixed::Inputs::new(10, &fabric)));
    assert_eq!(a.os_keys.len(), 4 * api_mixed::DELTA_ROWS);
}
