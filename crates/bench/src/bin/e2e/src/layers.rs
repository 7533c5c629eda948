//! Unit costs of the layers below `Comm`, measured from outside by calling
//! their public functions on one thread: the SPSC cell queue, the cache
//! simulator and arena in `cxl-shm`, the plan builders, the connection
//! table's sizing and the `cmpi-fabric` cost models. No universe is
//! involved, so these are the host cost of our own Rust with nothing waiting
//! on a peer; a traced run sets them beside the per-call spans.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cmpi_core::coll::{build_allreduce, build_bcast, CommView};
use cmpi_core::queue::{CellHeader, QueueGeometry, SpscQueue};
use cmpi_core::transport::conn::ConnTable;
use cmpi_core::{CollTuning, CxlShmTransportConfig, Group, ReduceOp};
use cmpi_fabric::cost::{CoherenceMode, CxlCostModel};
use cmpi_fabric::profiles::InterconnectKind;
use cmpi_fabric::{params, table1, CxlContentionModel};
use cxl_shm::{ArenaConfig, CxlShmArena, CxlView, DaxDevice, HostCache};

use crate::stats::median;

/// Batches per unit cost; the reported value is the median batch.
const BATCHES: usize = 5;

/// Median ns per call of `f` over [`BATCHES`] batches that together take
/// about `budget`.
pub fn unit_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    // Size a batch from a short calibration so that cheap and expensive
    // calls both get the same wall budget.
    let t = Instant::now();
    let mut calls = 0u64;
    while calls < 3 || t.elapsed() < budget / 20 {
        f();
        calls += 1;
    }
    let per_call = t.elapsed().as_secs_f64() / calls as f64;
    let batch = ((budget.as_secs_f64() / BATCHES as f64 / per_call) as u64).max(1);
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

fn device(name: &str, bytes: usize) -> DaxDevice {
    DaxDevice::new(name, bytes).expect("bench device")
}

fn queue_pair(cell_payload: usize) -> (SpscQueue, SpscQueue) {
    let geometry = QueueGeometry {
        cell_payload,
        cells: params::CELLS_PER_QUEUE,
    };
    let dev = device(&format!("e2e-queue-{cell_payload}"), 16 << 20);
    let producer = CxlShmArena::init(
        CxlView::new(dev.clone(), HostCache::new("producer")),
        ArenaConfig::small(),
    )
    .expect("arena init");
    let consumer =
        CxlShmArena::attach(CxlView::new(dev, HostCache::new("consumer"))).expect("arena attach");
    let obj = producer
        .create("q", geometry.queue_bytes())
        .expect("queue object");
    let tx = SpscQueue::new(obj, 0, geometry);
    let rx = SpscQueue::new(consumer.open("q").expect("queue open"), 0, geometry);
    tx.format().expect("queue format");
    (tx, rx)
}

/// One full cell through the ring: enqueue on one host view, dequeue on the
/// other (flush, fence, invalidate and copy included).
fn enq_deq_ns(cell: usize, budget: Duration) -> f64 {
    let (tx, rx) = queue_pair(cell);
    let payload = vec![0x5Au8; cell];
    let mut out = vec![0u8; cell];
    let header = CellHeader {
        src: 0,
        ctx: 0,
        tag: 1,
        total_len: cell as u64,
        chunk_offset: 0,
        chunk_len: cell as u32,
        timestamp: 0.0,
    };
    let mut scratch = Vec::new();
    unit_ns(budget, || {
        assert!(tx
            .try_enqueue_with_scratch(black_box(&header), black_box(&payload), &mut scratch)
            .expect("enqueue"));
        rx.try_dequeue_into(1.0, &mut out)
            .expect("dequeue")
            .expect("a cell");
    })
}

/// Plan construction for an 8-rank world communicator, no cache.
fn plan_build_ns(bytes: usize, budget: Duration) -> f64 {
    let group = Group::world(8);
    let view = CommView {
        group: &group,
        ctx: 0,
        rank: 0,
    };
    let tuning = CollTuning::default();
    let mut flip = false;
    unit_ns(budget, || {
        // Alternate the two data-plane-eligible collectives the mixes use.
        flip = !flip;
        if flip {
            black_box(build_allreduce::<f64>(
                &view,
                &tuning,
                None,
                None,
                (bytes / 8).max(1),
                ReduceOp::Sum,
            ));
        } else {
            black_box(build_bcast(&view, &tuning, None, None, 0, bytes));
        }
    })
}

/// Largest relative error, in percent, of the model-produced Table 1 rows
/// against the paper's anchors (the two CXL rows are the ones a model
/// computes; the others are read back from the anchors).
fn table1_max_err_pct() -> f64 {
    let anchors = [
        (
            InterconnectKind::CxlShmCached,
            params::CXL_CACHED_LATENCY_NS,
        ),
        (
            InterconnectKind::CxlShmFlushed,
            params::CXL_FLUSHED_LATENCY_US * 1000.0,
        ),
    ];
    let rows = table1::build_table1();
    anchors
        .iter()
        .map(|(kind, anchor)| {
            let row = rows
                .iter()
                .find(|r| r.kind == *kind)
                .expect("Table 1 has the CXL rows");
            (row.latency_ns - anchor).abs() / anchor * 100.0
        })
        .fold(0.0, f64::max)
}

/// Every workload-independent per-layer unit cost, by metric name.
/// `budget` is the wall time each timed entry may take.
pub fn unit_costs(budget: Duration) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();

    out.push(("queue.enq_deq_16KiB_ns", enq_deq_ns(16 << 10, budget)));
    out.push(("queue.enq_deq_64KiB_ns", enq_deq_ns(64 << 10, budget)));
    out.push((
        "queue.cells_per_MiB",
        ((1 << 20) as f64 / params::CMPI_CELL_SIZE as f64).ceil(),
    ));

    let config = CxlShmTransportConfig::default();
    let geometry = QueueGeometry {
        cell_payload: config.cell_size,
        cells: config.cells_per_queue,
    };
    for (name, ranks) in [
        ("transport.pool_bytes_n2", 2),
        ("transport.pool_bytes_n8", 8),
    ] {
        let bytes =
            ConnTable::required_device_bytes(ranks, geometry, &config).expect("pool sizing");
        out.push((name, bytes as f64));
    }

    out.push(("plan.build_8B_n8_ns", plan_build_ns(8, budget)));
    out.push(("plan.build_1MiB_n8_ns", plan_build_ns(1 << 20, budget)));

    // cxl-shm: a writer host and a reader host on one device.
    let dev = device("e2e-coherence", 8 << 20);
    let writer = CxlView::new(dev.clone(), HostCache::new("writer"));
    let reader = CxlView::new(dev, HostCache::new("reader"));
    let payload = vec![0xABu8; 4096];
    let mut buf = vec![0u8; 4096];
    let before = writer.counters();
    let mut writes = 0u64;
    out.push((
        "cxl_shm.write_flush_4KiB_ns",
        unit_ns(budget, || {
            writes += 1;
            writer
                .write_flush(black_box(0), black_box(&payload))
                .expect("write_flush")
        }),
    ));
    let after = writer.counters();
    reader.cache().reset_stats();
    out.push((
        "cxl_shm.read_coherent_4KiB_ns",
        unit_ns(budget, || {
            reader
                .read_coherent(black_box(0), black_box(&mut buf))
                .expect("read_coherent")
        }),
    ));
    let cache = reader.cache().stats();
    out.push((
        "cxl_shm.nt_store_u64_ns",
        unit_ns(budget, || {
            writer
                .nt_store_u64(black_box(1 << 20), black_box(42))
                .expect("nt_store")
        }),
    ));
    let lines = (after.clflush_lines + after.clflushopt_lines)
        - (before.clflush_lines + before.clflushopt_lines);
    let kib = (after.bytes_written - before.bytes_written) as f64 / 1024.0;
    out.push(("cxl_shm.flush_lines_per_KiB", lines as f64 / kib));
    out.push((
        "cxl_shm.fences_per_write",
        (after.fences - before.fences) as f64 / writes as f64,
    ));
    let reads = cache.read_hits + cache.read_misses;
    out.push((
        "cxl_shm.cache_read_hit_ratio",
        if reads == 0 {
            0.0
        } else {
            cache.read_hits as f64 / reads as f64
        },
    ));

    // Arena: create/destroy on the owning host, open from a peer host.
    let dev = device("e2e-arena", 32 << 20);
    let arena = CxlShmArena::init(
        CxlView::new(dev.clone(), HostCache::new("host0")),
        ArenaConfig::for_objects(1024),
    )
    .expect("arena init");
    let peer = CxlShmArena::attach(CxlView::new(dev, HostCache::new("host1"))).expect("attach");
    for i in 0..64 {
        arena.create(&format!("warm-{i}"), 256).expect("create");
    }
    let mut i = 0usize;
    out.push((
        "cxl_shm.arena_create_destroy_ns",
        unit_ns(budget, || {
            i += 1;
            let mut obj = arena.create(&format!("tmp-{i}"), 1024).expect("create");
            arena.destroy(&mut obj).expect("destroy");
        }),
    ));
    out.push((
        "cxl_shm.arena_open_ns",
        unit_ns(budget, || {
            black_box(peer.open(black_box("warm-32")).expect("open"));
        }),
    ));

    // Fabric: the models sit on every simulated operation's path.
    let cxl = CxlCostModel::default();
    let contention = CxlContentionModel::default();
    out.push((
        "fabric.cost_eval_ns",
        unit_ns(budget, || {
            black_box(cxl.coherent_write(black_box(64 << 10), CoherenceMode::FlushClflushopt));
            black_box(contention.throttle(black_box(1), black_box(64 << 10), 10_000.0, true));
        }),
    ));
    out.push(("fabric.table1_max_err_pct", table1_max_err_pct()));
    // How much 16 concurrent pairs stretch one 64 KiB two-sided transfer.
    let ideal = cxl.coherent_write(64 << 10, CoherenceMode::FlushClflushopt);
    out.push((
        "fabric.throttle_16pairs_x",
        contention.throttle(16, 64 << 10, ideal, true) / ideal,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_ns_scales_with_the_work() {
        let spin = |n: u64| {
            move || {
                let mut x = 0u64;
                for i in 0..n {
                    x = black_box(x.wrapping_add(i));
                }
                black_box(x);
            }
        };
        let small = unit_ns(Duration::from_millis(20), spin(100));
        let large = unit_ns(Duration::from_millis(20), spin(10_000));
        assert!(small > 0.0 && large > 10.0 * small, "{small} vs {large}");
    }

    #[test]
    fn every_unit_cost_is_finite_and_named_once() {
        let costs = unit_costs(Duration::from_millis(5));
        for (name, value) in &costs {
            assert!(value.is_finite(), "{name} = {value}");
        }
        let mut names: Vec<_> = costs.iter().map(|c| c.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), costs.len());
        let get = |n: &str| costs.iter().find(|c| c.0 == n).expect(n).1;
        assert_eq!(get("queue.cells_per_MiB"), 16.0);
        assert!(get("transport.pool_bytes_n8") > get("transport.pool_bytes_n2"));
        assert!(get("fabric.table1_max_err_pct") < 25.0);
        assert!(get("fabric.throttle_16pairs_x") >= 1.0);
        assert!(get("cxl_shm.fences_per_write") >= 1.0);
    }
}
